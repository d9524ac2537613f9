"""Categorical encodings, the fold of logged events into training rows,
design-matrix assembly and z-score scaling.

Serving scales one feature vector at a time in plain floats
(`transform_row`); only the matrix functions import numpy, so `predict`
and the server run without it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

from .catalog import PLACEMENTS, Placement, TrainingRow, page_keywords
from .errors import (ContractError, CtrServeError, DegenerateFeatureError, EncodingError,
                     MappingError, ValidationError)
from .keywords import resolve_page_value

DEFAULT_SIZE_REGISTRY = ("300x250", "728x90", "160x600")


@dataclass(frozen=True)
class DesignMatrix:
    """Numeric feature matrix (leading ones column when intercept is on)
    paired with the CTR target vector."""

    X: np.ndarray
    y: np.ndarray
    include_intercept: bool

    def __post_init__(self):
        import numpy as np

        if self.X.ndim != 2 or self.X.shape[0] < 1:
            raise ContractError(f"design matrix must be 2-D and nonempty, got shape {self.X.shape}")
        if self.y.shape != (self.X.shape[0],):
            raise ContractError("target length must equal the row count")
        if not (np.isfinite(self.X).all() and np.isfinite(self.y).all()):
            raise ContractError("design matrix entries must be finite")

    @property
    def m(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True)
class ScalerStats:
    """Per-column mean and sample (n-1) standard deviation of the
    non-intercept feature columns, stored as tuples of floats."""

    means: tuple[float, ...]
    stds: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "means", tuple(map(float, self.means)))
        object.__setattr__(self, "stds", tuple(map(float, self.stds)))


def encode_placement(p: Placement) -> int:
    return 1 if p == Placement.ABOVE_FOLD else 0


def encode_size(label: str) -> int:
    """1-based code of a size label in DEFAULT_SIZE_REGISTRY."""
    try:
        return DEFAULT_SIZE_REGISTRY.index(label) + 1
    except ValueError:
        raise EncodingError(f"size {label!r} is not in the registry "
                            f"{list(DEFAULT_SIZE_REGISTRY)}") from None


def build_design_matrix(rows: Sequence[TrainingRow]) -> DesignMatrix:
    """One matrix row per TrainingRow: a ones entry, then the columns in
    FEATURE_NAMES order; y = ctr."""
    import numpy as np

    if not rows:
        raise CtrServeError("cannot build a design matrix from zero rows")
    X = np.array(
        [[1.0, r.placement_code, r.size_code, r.bid, r.keyword_value] for r in rows],
        dtype=float,
    )
    y = np.array([r.ctr for r in rows], dtype=float)
    return DesignMatrix(X=X, y=y, include_intercept=True)


def fit_scaler(matrix: DesignMatrix) -> ScalerStats:
    """Column means (divisor n) and sample stds (divisor n-1); the ones
    column is never scaled. Constant columns fail fast."""
    if matrix.m < 2:
        raise CtrServeError(f"need at least 2 rows to fit a scaler, got {matrix.m}")
    import numpy as np

    cols = matrix.X[:, int(matrix.include_intercept):]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite stat is refused later
        means = cols.mean(axis=0)
        stds = cols.std(axis=0, ddof=1)
    for j, sigma in enumerate(stds):
        if sigma == 0.0:
            raise DegenerateFeatureError(f"feature column {j} is constant and cannot be scaled")
    return ScalerStats(means=means, stds=stds)


def _check_arity(scaler: ScalerStats, width: int) -> None:
    if width != len(scaler.means):
        raise ContractError(f"scaler expects {len(scaler.means)} feature columns, got {width}")


def transform(scaler: ScalerStats, matrix: DesignMatrix) -> DesignMatrix:
    """Replace each non-intercept entry with (x - mean) / std."""
    sl = slice(int(matrix.include_intercept), None)
    _check_arity(scaler, matrix.X[:, sl].shape[1])
    X = matrix.X.copy()
    X[:, sl] = (X[:, sl] - scaler.means) / scaler.stds
    return DesignMatrix(X=X, y=matrix.y.copy(), include_intercept=matrix.include_intercept)


def transform_row(scaler: ScalerStats, raw: Sequence[float]) -> tuple[float, ...]:
    """Inference-time counterpart of transform for one raw feature vector
    (without the ones entry). Each entry is the same IEEE subtraction and
    division as in `transform`, so it keeps the matrix's bits."""
    _check_arity(scaler, len(raw))
    return tuple((float(x) - m) / s for x, m, s in zip(raw, scaler.means, scaler.stds))


def compute_ctr(clicks: int, impressions: int) -> float:
    """Click-through rate of a group: clicks / impressions."""
    if impressions <= 0:
        raise ValidationError(f"impressions must be >= 1, got {impressions}")
    if clicks < 0 or clicks > impressions:
        raise ValidationError(f"clicks must lie in [0, impressions], got {clicks}/{impressions}")
    return clicks / impressions


def aggregate_events(tally: Mapping[tuple, list[int]], bids: Mapping[str, float],
                     keyword_map) -> list[TrainingRow]:
    """Fold an event-log tally, as `catalog.tally_event_log` reads it, into
    groups by (placement, size, bid, keyword value) and emit one TrainingRow
    per group with its observed CTR. `bids` maps each ad_id to its catalog
    bid.

    Viewer fields and the category are never grouped on. Group order follows
    first appearance in the log. Each distinct row is folded once, with its
    count; the page value is resolved once per distinct `keywords` field. An
    ad_id outside `bids`, a size outside the registry or a `keywords` field
    without a token raises naming the first row that has it.
    """
    page_values: dict[str, float] = {}
    groups: dict[tuple, list[int]] = {}  # key -> [impressions, clicks]
    for (ad_id, placement, size, _, keywords, clicked), (count, row) in tally.items():
        bid = bids.get(ad_id)
        if bid is None:
            raise ValidationError(f"event row {row}: ad_id {ad_id!r} not in catalog")
        try:
            size_code = encode_size(size)
            value = page_values.get(keywords)
            if value is None:
                value = page_values[keywords] = resolve_page_value(keyword_map,
                                                                   page_keywords(keywords))
        except (EncodingError, MappingError) as exc:
            raise type(exc)(f"event row {row}: {exc}") from exc
        counts = groups.setdefault((encode_placement(PLACEMENTS[placement]), size_code, bid, value),
                                  [0, 0])
        counts[0] += count
        if clicked == "1":
            counts[1] += count
    return [
        TrainingRow(placement_code=p, size_code=s, bid=b, keyword_value=kv,
                    ctr=compute_ctr(clicks, impressions))
        for (p, s, b, kv), (impressions, clicks) in groups.items()
    ]
