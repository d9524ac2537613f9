"""Validation metrics: standard error, R squared and residual reports."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

from .catalog import TrainingRow
from .errors import ContractError, CtrServeError
from .regression import GRADIENT_DESCENT, RegressionModel, predict


@dataclass(frozen=True)
class EvaluationReport:
    """Residual table plus the summary statistics derived from it."""

    n: int
    pairs: tuple[tuple[float, float, float], ...]  # (y, y_pred, residual)
    sse: float
    ym: float
    ssto: float
    se: float
    r_squared: float

    def to_json(self) -> str:
        payload = {**asdict(self),
                   "pairs": [{"y": y, "y_pred": yp, "f": f} for y, yp, f in self.pairs]}
        return json.dumps(payload, indent=2) + "\n"


def _check_series(y: Sequence[float], y_pred: Sequence[float]) -> None:
    if len(y) != len(y_pred):
        raise ContractError(f"series lengths differ: {len(y)} vs {len(y_pred)}")
    if len(y) == 0:
        raise ContractError("series must be nonempty")


def _summary(y: Sequence[float], y_pred: Sequence[float]) -> tuple[float, float, float, float, float]:
    """(sse, ym, ssto, se, r_squared) of an observed/predicted series pair;
    R squared is NaN when the observed values are constant."""
    _check_series(y, y_pred)
    sse = sum((yi - pi) ** 2 for yi, pi in zip(y, y_pred))
    ym = sum(y) / len(y)
    ssto = sum((yi - ym) ** 2 for yi in y)
    r2 = 1.0 - sse / ssto if ssto > 0.0 else float("nan")
    return sse, ym, ssto, math.sqrt(sse / len(y)), r2


def standard_error(y: Sequence[float], y_pred: Sequence[float]) -> float:
    """sqrt of the mean squared residual over the validation set."""
    return _summary(y, y_pred)[3]


def defined_r_squared(ssto: float, r2: float) -> float:
    """`r2`, unless SSTO is 0: a constant observed series has no R squared
    and raises CtrServeError."""
    if ssto == 0.0:
        raise CtrServeError("observed values are constant; R squared is undefined")
    return r2


def r_squared(y: Sequence[float], y_pred: Sequence[float]) -> float:
    """1 - SSE/SSTO, with SSTO taken about the observed mean."""
    _, _, ssto, _, r2 = _summary(y, y_pred)
    return defined_r_squared(ssto, r2)


def evaluate(model: RegressionModel, validation: Sequence[TrainingRow]) -> EvaluationReport:
    """Predict every validation row and assemble the residual report.
    R squared is NaN when the observed values are constant."""
    if not validation:
        raise ContractError("validation set must be nonempty")
    y = [row.ctr for row in validation]
    y_pred = [predict(model, (row.placement_code, row.size_code, row.bid, row.keyword_value))
              for row in validation]
    pairs = tuple((yi, pi, yi - pi) for yi, pi in zip(y, y_pred))
    sse, ym, ssto, se, r2 = _summary(y, y_pred)
    return EvaluationReport(n=len(y), pairs=pairs, sse=sse, ym=ym, ssto=ssto, se=se,
                            r_squared=r2)


def export_cost_trace(model: RegressionModel) -> list[tuple[int, float]]:
    """(iteration, cost) series of a gradient-descent model, 1-based."""
    if model.config.method != GRADIENT_DESCENT or not model.cost_trace:
        raise CtrServeError("model has no cost trace (not trained by gradient descent)")
    return [(t + 1, c) for t, c in enumerate(model.cost_trace)]
