"""Validation metrics: standard error, R squared and the residual report."""

from __future__ import annotations

import json
import math
from typing import NamedTuple, Sequence

from .catalog import TrainingRow
from .errors import ContractError, CtrServeError
from .regression import RegressionModel, predict


class EvaluationReport(NamedTuple):
    """Residual table plus the summary statistics derived from it."""

    n: int
    pairs: tuple[tuple[float, float, float], ...]  # (y, y_pred, residual)
    sse: float
    ym: float
    ssto: float
    se: float
    r_squared: float

    def to_json(self) -> str:
        payload = {**self._asdict(),
                   "pairs": [{"y": y, "y_pred": yp, "f": f} for y, yp, f in self.pairs]}
        return json.dumps(payload, indent=2) + "\n"


def summarize(y: Sequence[float], y_pred: Sequence[float]) -> EvaluationReport:
    """The residual report of an observed/predicted series pair. R squared
    is NaN when the observed values are constant; a squared residual or
    deviation past the float range raises CtrServeError."""
    if len(y) != len(y_pred):
        raise ContractError(f"series lengths differ: {len(y)} vs {len(y_pred)}")
    n = len(y)
    if n == 0:
        raise ContractError("validation set must be nonempty")
    try:
        sse = sum((yi - pi) ** 2 for yi, pi in zip(y, y_pred))
        ym = sum(y) / n
        ssto = sum((yi - ym) ** 2 for yi in y)
    except OverflowError:  # a float's ** raises where its * would give inf
        raise CtrServeError("a squared residual or deviation is too large for a float") from None
    return EvaluationReport(n=n, pairs=tuple((yi, pi, yi - pi) for yi, pi in zip(y, y_pred)),
                            sse=sse, ym=ym, ssto=ssto, se=math.sqrt(sse / n),
                            r_squared=1.0 - sse / ssto if ssto > 0.0 else float("nan"))


def evaluate(model: RegressionModel, validation: Sequence[TrainingRow]) -> EvaluationReport:
    """The residual report of the model's predictions for every validation row."""
    return summarize([row.ctr for row in validation],
                     [predict(model, (row.placement_code, row.size_code, row.bid,
                                      row.keyword_value)) for row in validation])


def defined_r_squared(report: EvaluationReport) -> float:
    """The report's R squared, unless SSTO is 0: a constant observed series
    has no R squared and raises CtrServeError."""
    if report.ssto == 0.0:
        raise CtrServeError("observed values are constant; R squared is undefined")
    return report.r_squared


def standard_error(y: Sequence[float], y_pred: Sequence[float]) -> float:
    """sqrt of the mean squared residual over the validation set."""
    return summarize(y, y_pred).se


def r_squared(y: Sequence[float], y_pred: Sequence[float]) -> float:
    """1 - SSE/SSTO, with SSTO taken about the observed mean."""
    return defined_r_squared(summarize(y, y_pred))
