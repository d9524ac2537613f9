"""Loaders for the bundled sample data files."""

from __future__ import annotations

from importlib import resources

from .catalog import TrainingRow, parse_pairs_table, parse_training_table
from .keywords import KeywordMap, load_keyword_map
from .regression import RegressionModel, load_model


def _read(name: str) -> str:
    return (resources.files("ctrserve") / "fixtures" / name).read_text()


def fixture_path(name: str) -> str:
    return str(resources.files("ctrserve") / "fixtures" / name)


def training_sample() -> list[TrainingRow]:
    """The 12-row aggregated training sample."""
    return parse_training_table(_read("training_sample.csv"))


def validation_sample() -> list[TrainingRow]:
    """The 6-row hand-picked validation set."""
    return parse_training_table(_read("validation_sample.csv"))


def validation_pairs() -> tuple[list[float], list[float]]:
    """The published (observed, predicted) validation pairs."""
    return parse_pairs_table(_read("validation_pairs.csv"))


def sports_keyword_map() -> KeywordMap:
    """The illustrative football-cluster keyword map (a lookup fixture; the
    mapping procedure is re-randomized per corpus, so these exact values are
    not an algorithm target)."""
    return load_keyword_map(_read("keyword_map_sports.json"))


def normal_equation_model() -> RegressionModel:
    """The published raw-feature coefficient vector as a loadable model."""
    return load_model(_read("model_normal_eq.json"))
