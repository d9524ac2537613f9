"""Categorical encodings, the fold of logged events into training rows,
design-matrix assembly and z-score scaling.

Only the matrix functions import numpy; `regression.predict` scales one
request's features itself in plain floats, so it and the server run
without it."""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

from .catalog import PLACEMENTS, Placement, TrainingRow, _Frozen, page_keywords
from .errors import ContractError, CtrServeError, EncodingError, MappingError
from .keywords import resolve_page_value

DEFAULT_SIZE_REGISTRY = ("300x250", "728x90", "160x600")


class DesignMatrix(_Frozen):
    """Numeric feature matrix (leading ones column when intercept is on)
    paired with the CTR target vector."""

    __slots__ = ("X", "y", "include_intercept")

    def __init__(self, X: np.ndarray, y: np.ndarray, include_intercept: bool):
        import numpy as np

        if X.ndim != 2 or X.shape[0] < 1:
            raise ContractError(f"design matrix must be 2-D and nonempty, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ContractError("target length must equal the row count")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ContractError("design matrix entries must be finite")
        super().__init__(X, y, include_intercept)

    @property
    def m(self) -> int:
        return self.X.shape[0]


class ScalerStats(_Frozen):
    """Per-column mean and sample (n-1) standard deviation of the
    non-intercept feature columns, stored as tuples of floats."""

    __slots__ = ("means", "stds")

    def __init__(self, means: Sequence[float], stds: Sequence[float]):
        super().__init__(tuple(map(float, means)), tuple(map(float, stds)))


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
            raise CtrServeError(f"feature column {j} is constant and cannot be scaled")
    return ScalerStats(means=means, stds=stds)


def transform(scaler: ScalerStats, matrix: DesignMatrix) -> DesignMatrix:
    """Replace each non-intercept entry with (x - mean) / std."""
    sl = slice(int(matrix.include_intercept), None)
    width = matrix.X[:, sl].shape[1]
    if width != len(scaler.means):
        raise ContractError(f"scaler expects {len(scaler.means)} feature columns, got {width}")
    X = matrix.X.copy()
    X[:, sl] = (X[:, sl] - scaler.means) / scaler.stds
    return DesignMatrix(X=X, y=matrix.y.copy(), include_intercept=matrix.include_intercept)


def aggregate_events(tally: Mapping[tuple, list[int]], bids: Mapping[str, float],
                     keyword_map) -> list[TrainingRow]:
    """Fold an event-log tally, as `catalog.tally_event_log` reads it, into
    groups by (placement, size, bid, keyword value) and emit one TrainingRow
    per group with its observed CTR, clicks / impressions. `bids` maps each
    ad_id to its catalog bid. The tally must be read with the same `bids`,
    which refuses an ad_id outside them naming its first row; such an ad_id
    is a KeyError here.

    Viewer fields and the category are never grouped on. Group order follows
    first appearance in the log. Each distinct row is folded once, with its
    count; the page value is resolved once per distinct `keywords` field. A
    size outside the registry or a `keywords` field without a token raises
    naming the first row that has it.
    """
    page_values: dict[str, float] = {}
    groups: dict[tuple, list[int]] = {}  # key -> [impressions, clicks]
    for (ad_id, placement, size, _, keywords, clicked), (count, row) in tally.items():
        try:
            size_code = encode_size(size)
            value = page_values.get(keywords)
            if value is None:
                value = page_values[keywords] = resolve_page_value(keyword_map,
                                                                   page_keywords(keywords))
        except (EncodingError, MappingError) as exc:
            raise type(exc)(f"event row {row}: {exc}") from exc
        counts = groups.setdefault((encode_placement(PLACEMENTS[placement]), size_code,
                                    bids[ad_id], value), [0, 0])
        counts[0] += count
        if clicked == "1":
            counts[1] += count
    return [
        TrainingRow(placement_code=p, size_code=s, bid=b, keyword_value=kv,
                    ctr=clicks / impressions)
        for (p, s, b, kv), (impressions, clicks) in groups.items()
    ]
