"""Categorical encodings, design-matrix assembly and z-score scaling.

Serving scales one feature vector at a time in plain floats
(`transform_row`); only the matrix functions import numpy, so `predict`
and the server run without it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Sequence

if TYPE_CHECKING:
    import numpy as np

from .catalog import FEATURE_NAMES, Placement, TrainingRow
from .errors import ContractError, CtrServeError, DegenerateFeatureError, EncodingError

DEFAULT_SIZE_REGISTRY = ("300x250", "728x90", "160x600")


@dataclass(frozen=True)
class FeatureSchema:
    """Fixed feature order plus the size-label registry (1-based codes)."""

    include_intercept: bool = True
    size_registry: ClassVar[tuple[str, ...]] = DEFAULT_SIZE_REGISTRY

    @property
    def n_columns(self) -> int:
        return len(FEATURE_NAMES) + (1 if self.include_intercept else 0)


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
    return 1 if p is Placement.ABOVE_FOLD or p == Placement.ABOVE_FOLD else 0


def encode_size(label: str, registry: Sequence[str]) -> int:
    """1-based code of a size label in the registry."""
    try:
        return registry.index(label) + 1
    except ValueError:
        raise EncodingError(f"size {label!r} is not in the registry {list(registry)}") from None


def build_design_matrix(rows: Sequence[TrainingRow], schema: FeatureSchema) -> DesignMatrix:
    """One matrix row per TrainingRow, columns in schema order, y = ctr."""
    import numpy as np

    if not rows:
        raise CtrServeError("cannot build a design matrix from zero rows")
    feats = np.array(
        [[r.placement_code, r.size_code, r.bid, r.keyword_value] for r in rows],
        dtype=float,
    )
    if schema.include_intercept:
        feats = np.hstack([np.ones((len(rows), 1)), feats])
    y = np.array([r.ctr for r in rows], dtype=float)
    return DesignMatrix(X=feats, y=y, include_intercept=schema.include_intercept)


def _feature_slice(matrix: DesignMatrix) -> slice:
    return slice(1, None) if matrix.include_intercept else slice(0, None)


def fit_scaler(matrix: DesignMatrix) -> ScalerStats:
    """Column means (divisor n) and sample stds (divisor n-1); the ones
    column is never scaled. Constant columns fail fast."""
    if matrix.m < 2:
        raise CtrServeError(f"need at least 2 rows to fit a scaler, got {matrix.m}")
    cols = matrix.X[:, _feature_slice(matrix)]
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
    sl = _feature_slice(matrix)
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
