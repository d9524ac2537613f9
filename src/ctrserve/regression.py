"""Linear CTR model: prediction, cost, batch gradient descent and the
closed-form normal equation, plus model persistence.

The model and `predict` are plain Python floats; only the fitting
functions import numpy, so serving, `predict` and `evaluate` never load it."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

from .catalog import _NUMBER, TrainingRow, _as_text, _check, _list_of
from .errors import (ContractError, CtrServeError, DegenerateFeatureError,
                     DivergenceError, ModelLoadError, SingularMatrixError)
from .features import (DEFAULT_SIZE_REGISTRY, FEATURE_NAMES, DesignMatrix, FeatureSchema,
                       ScalerStats, build_design_matrix, fit_scaler, transform, transform_row)

GRADIENT_DESCENT = "gradient_descent"
NORMAL_EQUATION = "normal_equation"

MODEL_FORMAT_VERSION = 1

_MAX_CONDITION = 1e12


@dataclass(frozen=True)
class TrainingConfig:
    """Defaults mirror the shipped setup: alpha 0.01, 400 iterations,
    intercept on; scaling on for gradient descent, off for normal equation
    unless overridden."""

    method: str = GRADIENT_DESCENT
    alpha: float = 0.01
    iterations: int = 400
    include_intercept: bool = True
    scale_features: Optional[bool] = None

    def __post_init__(self):
        if self.method not in (GRADIENT_DESCENT, NORMAL_EQUATION):
            raise ContractError(f"unknown training method {self.method!r}")
        if not 0 < self.alpha < math.inf:
            raise ContractError(f"alpha must be positive and finite, got {self.alpha}")
        if self.iterations <= 0:
            raise ContractError(f"iterations must be positive, got {self.iterations}")
        if self.scale_features is None:
            object.__setattr__(self, "scale_features", self.method == GRADIENT_DESCENT)


@dataclass(frozen=True)
class RegressionModel:
    """theta is stored as a tuple of floats; any sequence of numbers is
    accepted and converted."""

    theta: tuple[float, ...]
    scaler: Optional[ScalerStats]
    config: TrainingConfig
    cost_trace: tuple[float, ...] = ()
    keyword_map_ref: str = ""

    def __post_init__(self):
        theta = tuple(map(float, self.theta))
        object.__setattr__(self, "theta", theta)
        if len(theta) != self.schema.n_columns:
            raise ContractError(f"theta has {len(theta)} values, the schema needs "
                                f"{self.schema.n_columns}")
        if not all(map(math.isfinite, theta)):
            raise ContractError("theta must be finite")
        if (self.scaler is not None) != bool(self.config.scale_features):
            raise ContractError("scaler must be present iff scale_features is set")
        if self.scaler is not None:
            width = len(FEATURE_NAMES)
            if len(self.scaler.means) != width or len(self.scaler.stds) != width:
                raise ContractError(f"scaler means and stds must each have {width} values")
            if not (all(map(math.isfinite, self.scaler.means + self.scaler.stds))
                    and all(s > 0 for s in self.scaler.stds)):
                raise ContractError("scaler means must be finite and stds finite and > 0")

    @property
    def schema(self) -> FeatureSchema:
        return FeatureSchema(include_intercept=self.config.include_intercept)

    @property
    def bid_weight(self) -> float:
        """theta's bid coefficient. Scaling divides bid by a positive std,
        so its sign is the sign of the score's slope in bid."""
        return self.theta[FEATURE_NAMES.index("bid") + self.config.include_intercept]


def predict(model: RegressionModel, raw: Sequence[float]) -> float:
    """Predicted CTR for one raw feature vector (placement code, size code,
    bid, keyword value). Output is deliberately not clamped to [0,1].

    The score is the correctly rounded sum (`math.fsum`) of the products
    theta_i * x_i, the intercept's x being 1.0. So with the other features
    fixed it never falls as bid rises when the bid weight is positive, and
    never rises when it is negative, which the server's ordered scan needs."""
    raw = tuple(map(float, raw))
    if len(raw) != len(FEATURE_NAMES):
        raise ContractError(f"expected {len(FEATURE_NAMES)} features, got {len(raw)}")
    feats = transform_row(model.scaler, raw) if model.scaler is not None else raw
    if model.config.include_intercept:
        feats = (1.0, *feats)
    return math.fsum(t * x for t, x in zip(model.theta, feats))


def cost(theta: np.ndarray, matrix: DesignMatrix) -> float:
    """Half mean squared residual: (1/2m) * sum((h(x) - y)^2)."""
    import numpy as np

    theta = np.asarray(theta, dtype=float)
    if theta.shape != (matrix.X.shape[1],):
        raise ContractError(f"theta length {theta.shape} does not match {matrix.X.shape[1]} columns")
    residual = matrix.X @ theta - matrix.y
    return float(residual @ residual / (2 * matrix.m))


def gradient(theta: np.ndarray, matrix: DesignMatrix) -> np.ndarray:
    """Batch gradient of the cost: (1/m) * X^T (X theta - y)."""
    return matrix.X.T @ (matrix.X @ theta - matrix.y) / matrix.m


def gradient_descent(matrix: DesignMatrix,
                     config: TrainingConfig) -> tuple[np.ndarray, tuple[float, ...]]:
    """Exactly `config.iterations` simultaneous batch updates from theta = 0;
    trace[t] is the cost after update t."""
    import numpy as np

    theta = np.zeros(matrix.X.shape[1])
    trace = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(config.iterations):
            theta = theta - config.alpha * gradient(theta, matrix)
            c = cost(theta, matrix)
            if not np.isfinite(c):
                raise DivergenceError(f"cost diverged at iteration {t}", iteration=t)
            trace.append(c)
    return theta, tuple(trace)


def normal_equation(matrix: DesignMatrix) -> np.ndarray:
    """Solve (X^T X) theta = X^T y with a stable linear solve; rank
    deficiency is a hard error, never a silent pseudo-inverse."""
    import numpy as np

    XtX = matrix.X.T @ matrix.X
    Xty = matrix.X.T @ matrix.y
    condition = float(np.linalg.cond(XtX))
    if not np.isfinite(condition) or condition > _MAX_CONDITION:
        raise SingularMatrixError(
            f"X^T X is rank deficient or near-singular (condition ~ {condition:.3e})",
            condition=condition)
    return np.linalg.solve(XtX, Xty)


def train(rows: Sequence[TrainingRow], keyword_map, config: TrainingConfig) -> RegressionModel:
    """Assemble the design matrix, optionally scale, fit by the configured
    method and package the result with the frozen keyword-map reference."""
    if not rows:
        raise CtrServeError("cannot train on zero rows")
    matrix = build_design_matrix(rows, FeatureSchema(include_intercept=config.include_intercept))
    scaler = None
    if config.scale_features:
        scaler = fit_scaler(matrix)
        matrix = transform(scaler, matrix)
    if config.method == GRADIENT_DESCENT:
        theta, trace = gradient_descent(matrix, config)
    else:
        theta, trace = normal_equation(matrix), ()
    map_ref = getattr(keyword_map, "category", "")  # "" without a map (None)
    return RegressionModel(theta=theta, scaler=scaler, config=config, cost_trace=trace,
                           keyword_map_ref=map_ref)


def simple_regression(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Single-feature fit with intercept via the normal equation; returns
    (intercept, slope)."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.shape[0] < 2:
        raise ContractError("x and y must be equal-length 1-D series of length >= 2")
    if np.all(x == x[0]):
        raise DegenerateFeatureError("x is constant; no slope is identifiable")
    X = np.column_stack([np.ones_like(x), x])
    matrix = DesignMatrix(X=X, y=y, include_intercept=True)
    theta = normal_equation(matrix)
    return float(theta[0]), float(theta[1])


def save_model(model: RegressionModel) -> str:
    payload = {
        "version": MODEL_FORMAT_VERSION,
        "method": model.config.method,
        "theta": list(model.theta),
        "schema": {
            "features": list(FEATURE_NAMES),
            "include_intercept": model.config.include_intercept,
            "size_registry": list(DEFAULT_SIZE_REGISTRY),
        },
        "scaler": None if model.scaler is None else {
            "means": list(model.scaler.means),
            "stds": list(model.scaler.stds),
        },
        "config": {"alpha": model.config.alpha, "iterations": model.config.iterations},
        "cost_trace": [float(c) for c in model.cost_trace],
        "keyword_map_ref": model.keyword_map_ref,
    }
    return json.dumps(payload, indent=2) + "\n"


def load_model(stream) -> RegressionModel:
    """Parse a model file. Every field is type-checked, not coerced: a bool
    is not a number, a string is not a list, and a field of the wrong type
    raises ModelLoadError naming it, as does a schema whose features or size
    registry differ from the constants or a theta/scaler that does not fit."""
    try:
        payload = json.loads(_as_text(stream))
    except json.JSONDecodeError as exc:
        raise ModelLoadError(f"corrupt model stream: {exc}") from exc
    try:
        version = payload["version"]
        if type(version) is not int or version != MODEL_FORMAT_VERSION:
            raise ModelLoadError(f"unsupported model version {version!r}")
        schema_payload = payload["schema"]
        for name, fixed in (("features", FEATURE_NAMES), ("size_registry", DEFAULT_SIZE_REGISTRY)):
            if schema_payload[name] != list(fixed):
                raise ModelLoadError(f"invalid model payload: schema.{name} must be "
                                     f"{list(fixed)}, got {schema_payload[name]!r}")
        include_intercept = schema_payload["include_intercept"]
        _check(type(include_intercept) is bool, "schema.include_intercept", include_intercept)
        scaler_payload = payload["scaler"]
        scaler = None
        if scaler_payload is not None:
            scaler = ScalerStats(
                means=_list_of(scaler_payload["means"], _NUMBER, "scaler.means"),
                stds=_list_of(scaler_payload["stds"], _NUMBER, "scaler.stds"))
        alpha, iterations = payload["config"]["alpha"], payload["config"]["iterations"]
        _check(type(alpha) in _NUMBER, "config.alpha", alpha)
        _check(type(iterations) is int, "config.iterations", iterations)
        config = TrainingConfig(
            method=payload["method"],
            alpha=float(alpha),
            iterations=iterations,
            include_intercept=include_intercept,
            scale_features=scaler is not None,
        )
        keyword_map_ref = payload.get("keyword_map_ref", "")
        _check(type(keyword_map_ref) is str, "keyword_map_ref", keyword_map_ref)
        return RegressionModel(
            theta=_list_of(payload["theta"], _NUMBER, "theta"),
            scaler=scaler,
            config=config,
            cost_trace=tuple(map(float, _list_of(payload["cost_trace"], _NUMBER, "cost_trace"))),
            keyword_map_ref=keyword_map_ref,
        )
    except (KeyError, TypeError, ValueError, OverflowError, ContractError) as exc:
        raise ModelLoadError(f"invalid model payload: {exc}") from exc
