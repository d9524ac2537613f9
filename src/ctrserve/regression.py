"""Linear CTR model: prediction, cost, batch gradient descent and the
closed-form normal equation, plus model persistence.

The model and `predict` are plain Python floats; only the fitting
functions import numpy, so serving, `predict` and `evaluate` never load it."""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

from .catalog import (FEATURE_NAMES, JSON_NUMBER, TrainingRow, _Frozen, check_field,
                      decode_text, list_of, parse_json)
from .errors import ContractError, CtrServeError, ParseError, ValidationError
from .features import (DEFAULT_SIZE_REGISTRY, DesignMatrix, ScalerStats, build_design_matrix,
                       fit_scaler, transform)
from .keywords import KeywordMap, load_keyword_map

GRADIENT_DESCENT = "gradient_descent"
NORMAL_EQUATION = "normal_equation"

MODEL_FORMAT_VERSION = 1

# The `schema` block of every model file, the one model shape: a file restates it exactly.
MODEL_SCHEMA = {
    "features": list(FEATURE_NAMES),
    "include_intercept": True,
    "size_registry": list(DEFAULT_SIZE_REGISTRY),
}

_MAX_CONDITION = 1e12


class TrainingConfig(_Frozen):
    """How `train` fits the one model shape, an intercept plus FEATURE_NAMES:
    by gradient descent on z-scored features (the default, alpha 0.01, 400
    iterations) or by the normal equation on raw features, which reads
    neither alpha nor iterations."""

    __slots__ = ("method", "alpha", "iterations")

    def __init__(self, method: str = GRADIENT_DESCENT, alpha: float = 0.01,
                 iterations: int = 400):
        if method not in (GRADIENT_DESCENT, NORMAL_EQUATION):
            raise ContractError(f"unknown training method {method!r}")
        if not 0 < alpha < math.inf:
            raise ContractError(f"alpha must be positive and finite, got {alpha}")
        if iterations <= 0:
            raise ContractError(f"iterations must be positive, got {iterations}")
        super().__init__(method, alpha, iterations)


class RegressionModel(_Frozen):
    """theta is the intercept followed by one weight per FEATURE_NAMES entry.
    theta and cost_trace take any sequence of numbers and store a tuple of
    floats. A model with a scaler predicts on z-scored features."""

    __slots__ = ("theta", "scaler", "config", "cost_trace", "keyword_map_ref")

    def __init__(self, theta: Sequence[float], scaler: Optional[ScalerStats],
                 config: TrainingConfig, cost_trace: Sequence[float] = (),
                 keyword_map_ref: str = ""):
        theta = tuple(map(float, theta))
        n_columns = len(FEATURE_NAMES) + 1
        if len(theta) != n_columns:
            raise ContractError(f"theta has {len(theta)} values, the schema needs {n_columns}")
        if not all(map(math.isfinite, theta)):
            raise ContractError("theta must be finite")
        if scaler is not None:
            width = len(FEATURE_NAMES)
            if len(scaler.means) != width or len(scaler.stds) != width:
                raise ContractError(f"scaler means and stds must each have {width} values")
            if not (all(map(math.isfinite, scaler.means + scaler.stds))
                    and all(s > 0 for s in scaler.stds)):
                raise ContractError("scaler means must be finite and stds finite and > 0")
        super().__init__(theta, scaler, config, tuple(map(float, cost_trace)), keyword_map_ref)

    @property
    def bid_weight(self) -> float:
        """theta's bid coefficient. Scaling divides bid by a positive std,
        so its sign is the sign of the score's slope in bid."""
        return self.theta[FEATURE_NAMES.index("bid") + 1]


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
    if model.scaler is not None:  # `transform`'s IEEE operations, so the matrix's bits
        raw = tuple((x - m) / s for x, m, s in zip(raw, model.scaler.means, model.scaler.stds))
    return math.fsum(t * x for t, x in zip(model.theta, (1.0, *raw)))


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
                raise CtrServeError(f"cost diverged at iteration {t}")
            trace.append(c)
    return theta, tuple(trace)


def normal_equation(matrix: DesignMatrix) -> np.ndarray:
    """Solve (X^T X) theta = X^T y with a stable linear solve; rank
    deficiency is a hard error, never a silent pseudo-inverse."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as condition inf
        XtX = matrix.X.T @ matrix.X
        Xty = matrix.X.T @ matrix.y
        condition = float(np.linalg.cond(XtX))
    if not np.isfinite(condition) or condition > _MAX_CONDITION:
        raise CtrServeError(
            f"X^T X is rank deficient or near-singular (condition ~ {condition:.3e})")
    return np.linalg.solve(XtX, Xty)


def train(rows: Sequence[TrainingRow], keyword_map, config: TrainingConfig) -> RegressionModel:
    """Assemble the design matrix, fit it by the configured method (gradient
    descent on the scaled matrix, the normal equation on the raw one) and
    package the result with the frozen keyword-map reference."""
    if not rows:
        raise CtrServeError("cannot train on zero rows")
    matrix = build_design_matrix(rows)
    if config.method == GRADIENT_DESCENT:
        scaler = fit_scaler(matrix)
        theta, trace = gradient_descent(transform(scaler, matrix), config)
    else:
        scaler, theta, trace = None, normal_equation(matrix), ()
    map_ref = getattr(keyword_map, "category", "")  # "" without a map (None)
    return RegressionModel(theta=theta, scaler=scaler, config=config, cost_trace=trace,
                           keyword_map_ref=map_ref)


def save_model(model: RegressionModel) -> str:
    payload = {
        "version": MODEL_FORMAT_VERSION,
        "method": model.config.method,
        "theta": list(model.theta),
        "schema": MODEL_SCHEMA,
        "scaler": None if model.scaler is None else {
            "means": list(model.scaler.means),
            "stds": list(model.scaler.stds),
        },
        "config": {"alpha": model.config.alpha, "iterations": model.config.iterations},
        "cost_trace": list(model.cost_trace),
        "keyword_map_ref": model.keyword_map_ref,
    }
    return json.dumps(payload, indent=2) + "\n"


def load_model(stream) -> RegressionModel:
    """Parse a model file. Every field is type-checked, not coerced: a bool
    is not a number, a string is not a list, and a field of the wrong type
    raises ParseError naming it, as do a missing field and a `schema`
    entry that is not the one of MODEL_SCHEMA, value and type (`1` is not
    `true`), or a theta/scaler that does not fit."""
    payload = parse_json(stream, "corrupt model stream")
    try:
        version = payload["version"]
        if type(version) is not int or version != MODEL_FORMAT_VERSION:
            raise ParseError(f"unsupported model version {version!r}")
        schema_payload = payload["schema"]
        for name, fixed in MODEL_SCHEMA.items():
            value = schema_payload[name]
            if type(value) is not type(fixed) or value != fixed:
                raise ParseError(f"invalid model payload: schema.{name} must be "
                                 f"{json.dumps(fixed)}, got {value!r:.100}")
        scaler_payload = payload["scaler"]
        scaler = None
        if scaler_payload is not None:
            scaler = ScalerStats(
                means=list_of(scaler_payload["means"], JSON_NUMBER, "scaler.means"),
                stds=list_of(scaler_payload["stds"], JSON_NUMBER, "scaler.stds"))
        alpha, iterations = payload["config"]["alpha"], payload["config"]["iterations"]
        check_field(type(alpha) in JSON_NUMBER, "config.alpha", alpha)
        check_field(type(iterations) is int, "config.iterations", iterations)
        config = TrainingConfig(method=payload["method"], alpha=float(alpha), iterations=iterations)
        keyword_map_ref = payload.get("keyword_map_ref", "")
        check_field(type(keyword_map_ref) is str, "keyword_map_ref", keyword_map_ref)
        return RegressionModel(
            theta=list_of(payload["theta"], JSON_NUMBER, "theta"),
            scaler=scaler,
            config=config,
            cost_trace=list_of(payload["cost_trace"], JSON_NUMBER, "cost_trace"),
            keyword_map_ref=keyword_map_ref,
        )
    except KeyError as exc:
        raise ParseError(f"invalid model payload: missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError, ContractError) as exc:
        raise ParseError(f"invalid model payload: {exc}") from exc


def read_file(path) -> Optional[bytes]:
    """The bytes of the file at `path`, or None where `path` is empty."""
    return Path(path).read_bytes() if path else None


def load_model_and_map(model_path, map_path, model_data=None,
                       map_data=None) -> tuple[Optional[RegressionModel], Optional[KeywordMap]]:
    """The model and the keyword map at these paths (or their bytes, read
    already), either None where its path is empty. A model that names the
    keyword map it was trained with must be paired with a map of that
    category; a model that names none goes with any map."""
    model = keyword_map = None
    if model_path:
        data = read_file(model_path) if model_data is None else model_data
        model = load_model(decode_text(data, model_path))
    if map_path:
        data = read_file(map_path) if map_data is None else map_data
        keyword_map = load_keyword_map(decode_text(data, map_path))
        if model is not None and model.keyword_map_ref not in ("", keyword_map.category):
            raise ValidationError(f"model {model_path} was trained with the "
                                  f"{model.keyword_map_ref!r} keyword map, but map "
                                  f"{map_path} is for {keyword_map.category!r}")
    return model, keyword_map
