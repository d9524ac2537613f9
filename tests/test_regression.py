import hashlib
import json
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import least_squares_exact
from ctrserve.errors import ContractError, CtrServeError, ParseError
from ctrserve.catalog import FEATURE_NAMES
from ctrserve.features import (DesignMatrix, ScalerStats, build_design_matrix, fit_scaler,
                               transform)
from ctrserve.regression import (NORMAL_EQUATION, RegressionModel,
                                 TrainingConfig, cost, gradient, gradient_descent,
                                 load_model, normal_equation, predict, save_model, train)


def table6_matrix(table6_rows):
    return build_design_matrix(table6_rows)


def single_feature_slope(x, y):
    """The slope of y on x alone, with an intercept, by the normal equation."""
    X = np.column_stack([np.ones_like(x), x])
    return normal_equation(DesignMatrix(X=X, y=y, include_intercept=True))[1]


def random_design(rng, m=None, n=None, y_unit=False):
    m = m or rng.randint(2, 50)
    n = n or rng.randint(1, 6)
    X = np.array([[rng.uniform(-2, 2) for _ in range(n)] for _ in range(m)])
    if y_unit:
        y = np.array([rng.random() for _ in range(m)])
    else:
        y = np.array([rng.uniform(-2, 2) for _ in range(m)])
    return DesignMatrix(X=X, y=y, include_intercept=False)


def finite_floats(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False, allow_subnormal=False)


@st.composite
def linear_models(draw, scaled, bid_sign=None):
    """A model with random theta, the intercept first; `scaled` adds random
    scaler stats, and `bid_sign` fixes the bid weight's sign."""
    theta = draw(st.lists(finite_floats(-1e3, 1e3), min_size=len(FEATURE_NAMES) + 1,
                          max_size=len(FEATURE_NAMES) + 1))
    if bid_sign is not None:
        bid = FEATURE_NAMES.index("bid") + 1
        theta[bid] = bid_sign * abs(theta[bid])
    scaler = None
    if scaled:
        width = len(FEATURE_NAMES)
        scaler = ScalerStats(
            means=draw(st.lists(finite_floats(-1e3, 1e3), min_size=width, max_size=width)),
            stds=draw(st.lists(finite_floats(1e-3, 1e3), min_size=width, max_size=width)))
    return RegressionModel(theta=theta, scaler=scaler, config=TrainingConfig())


RAW_FEATURES = st.lists(finite_floats(-1e6, 1e6), min_size=len(FEATURE_NAMES),
                        max_size=len(FEATURE_NAMES))


def numpy_terms(model, raw):
    """theta and the scaled feature vector (ones entry first) built with
    numpy; `float(feats @ theta)` is the reference formula for predict."""
    scaled = np.asarray(raw, dtype=float)
    if model.scaler is not None:
        scaled = (scaled - np.array(model.scaler.means)) / np.array(model.scaler.stds)
    return np.array(model.theta), np.concatenate([[1.0], scaled])


class TestPredict:
    @pytest.mark.parametrize("scaled", [False, True])
    @given(data=st.data(), raw=RAW_FEATURES)
    def test_matches_numpy_dot_product(self, scaled, data, raw):
        model = data.draw(linear_models(scaled))
        theta, feats = numpy_terms(model, raw)
        # numpy's dot product and fsum each err by a few units of 2**-53 of
        # sum |theta_i x_i|; products that underflow add a few 2**-1074.
        bound = 8 * 2.0 ** -52 * float(np.abs(theta * feats).sum()) + 8 * 2.0 ** -1074
        assert abs(predict(model, raw) - float(feats @ theta)) <= bound

    @pytest.mark.parametrize("scaled", [False, True])
    @pytest.mark.parametrize("sign", [1.0, 0.0, -1.0])
    @given(data=st.data(), raw=RAW_FEATURES, bids=st.lists(finite_floats(-1e6, 1e6), min_size=2,
                                                           max_size=2))
    def test_monotone_in_bid(self, scaled, sign, data, raw, bids):
        model = data.draw(linear_models(scaled, bid_sign=sign))
        low, high = sorted(bids)
        at = FEATURE_NAMES.index("bid")
        score_low = predict(model, raw[:at] + [low] + raw[at + 1:])
        score_high = predict(model, raw[:at] + [high] + raw[at + 1:])
        if model.bid_weight > 0:
            assert score_low <= score_high
        elif model.bid_weight < 0:
            assert score_low >= score_high
        else:
            assert score_low == score_high

    def test_paper_coefficients(self, paper_model):
        value = predict(paper_model, (1, 1, 22, 51))
        assert value == pytest.approx(0.048338, abs=2e-4)
        # the coefficients' own dot product
        assert value == pytest.approx(0.048328, abs=1e-9)

    def test_zero_theta(self, paper_model):
        model = RegressionModel(theta=np.zeros(5), scaler=None, config=paper_model.config)
        assert predict(model, (1, 3, 99, 47)) == 0.0

    def test_intercept_only(self, paper_model):
        model = RegressionModel(theta=np.array([0.3, 0, 0, 0, 0]), scaler=None,
                                config=paper_model.config)
        assert predict(model, (0, 2, 5, 50)) == 0.3

    def test_arity_mismatch(self, paper_model):
        with pytest.raises(ContractError):
            predict(paper_model, (1, 1, 22))

    def test_not_clamped(self, paper_model):
        # large negative intercept regime: outputs may go below zero
        assert predict(paper_model, (0, 1, 1, 1)) < 0.0


class TestCost:
    def test_exact_fit_costs_zero(self):
        X = np.array([[1.0, 1.0], [1.0, 2.0]])
        matrix = DesignMatrix(X=X, y=X @ np.array([0.5, 0.25]), include_intercept=True)
        assert cost(np.array([0.5, 0.25]), matrix) == 0.0

    def test_zero_theta_on_table6(self, table6_rows):
        matrix = table6_matrix(table6_rows)
        # oracle: (1/2m) * sum(y^2) in exact arithmetic over the printed decimals
        ys = ["0.08", "0.04", "0.02", "0.06", "0.01", "0.006",
              "0.005", "0.1", "0.015", "0.02", "0.001", "0.0001"]
        expected = sum(Fraction(y) ** 2 for y in ys) / 24
        assert float(expected) == pytest.approx(9.4945875e-4, abs=1e-12)
        assert cost(np.zeros(5), matrix) == pytest.approx(float(expected), abs=1e-12)

    def test_convex_along_a_line(self, table6_rows):
        matrix = table6_matrix(table6_rows)
        theta_star = normal_equation(matrix)
        base = cost(theta_star, matrix)
        direction = np.ones_like(theta_star)
        costs = [cost(theta_star + t * direction, matrix) for t in (0.5, 1.0, 2.0)]
        assert base < costs[0] < costs[1] < costs[2]

    def test_dimension_mismatch(self, table6_rows):
        with pytest.raises(ContractError):
            cost(np.zeros(3), table6_matrix(table6_rows))


class TestGradientDescent:
    def test_zero_target_is_fixed_point(self):
        matrix = DesignMatrix(X=np.eye(3), y=np.zeros(3), include_intercept=False)
        theta, trace = gradient_descent(matrix, TrainingConfig(iterations=10))
        assert np.all(theta == 0.0)
        assert trace == (0.0,) * 10

    @pytest.mark.parametrize("c,T", [(0.5, 1), (0.2, 40), (1.0, 400)])
    def test_intercept_only_closed_form(self, c, T):
        # theta_0 after T steps follows the recurrence theta <- theta - a(theta - c)
        m = 7
        matrix = DesignMatrix(X=np.ones((m, 1)), y=np.full(m, c), include_intercept=True)
        alpha = 0.01
        theta, _ = gradient_descent(matrix, TrainingConfig(alpha=alpha, iterations=T))
        expected = c * (1.0 - (1.0 - alpha) ** T)
        assert theta[0] == pytest.approx(expected, rel=1e-12)

    def test_converges_to_normal_equation(self, table6_rows):
        matrix = table6_matrix(table6_rows)
        scaled = transform(fit_scaler(matrix), matrix)
        theta_gd, _ = gradient_descent(scaled, TrainingConfig(alpha=0.01, iterations=200000))
        theta_ne = normal_equation(scaled)
        assert np.max(np.abs(theta_gd - theta_ne)) < 1e-6

    def test_divergence_reports_iteration(self):
        X = np.array([[10.0], [-10.0]])
        matrix = DesignMatrix(X=X, y=np.array([1.0, -1.0]), include_intercept=False)
        with pytest.raises(CtrServeError) as err:
            gradient_descent(matrix, TrainingConfig(alpha=1e6, iterations=5000))
        iteration = re.fullmatch(r"cost diverged at iteration (\d+)", str(err.value))
        assert iteration and 0 <= int(iteration[1]) < 5000

    def test_monotone_descent_random_datasets(self, table6_rows):
        rng = random.Random(99)
        for _ in range(20):
            matrix = random_design(rng, y_unit=True)
            scaled = transform(fit_scaler(matrix), matrix) \
                if matrix.m >= 2 and np.all(matrix.X.std(axis=0, ddof=1) > 0) else matrix
            _, trace = gradient_descent(scaled, TrainingConfig(alpha=0.01, iterations=100))
            assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))

    def test_deterministic(self, table6_rows):
        matrix = table6_matrix(table6_rows)
        scaled = transform(fit_scaler(matrix), matrix)
        a = gradient_descent(scaled, TrainingConfig(iterations=400))
        b = gradient_descent(scaled, TrainingConfig(iterations=400))
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]


class TestGradientCheck:
    def test_matches_central_differences(self):
        rng = random.Random(7)
        h = 1e-6
        for _ in range(25):
            matrix = random_design(rng)
            theta = np.array([rng.uniform(-1, 1) for _ in range(matrix.X.shape[1])])
            analytic = gradient(theta, matrix)
            fd = np.zeros_like(theta)
            for j in range(len(theta)):
                e = np.zeros_like(theta)
                e[j] = h
                fd[j] = (cost(theta + e, matrix) - cost(theta - e, matrix)) / (2 * h)
            denom = np.linalg.norm(analytic) + np.linalg.norm(fd) + 1e-12
            assert np.linalg.norm(analytic - fd) / denom < 1e-6


class TestNormalEquation:
    def test_exact_line(self):
        X = np.array([[1.0, 1.0], [1.0, 2.0]])
        matrix = DesignMatrix(X=X, y=np.array([2.0, 4.0]), include_intercept=True)
        theta = normal_equation(matrix)
        assert theta == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_table6_against_exact_oracle(self, table6_rows):
        matrix = table6_matrix(table6_rows)
        theta = normal_equation(matrix)
        oracle = [float(v) for v in least_squares_exact(matrix.X.tolist(), matrix.y.tolist())]
        assert np.max(np.abs(theta - np.array(oracle))) < 1e-9

    def test_residual_is_tiny(self, table6_rows):
        matrix = table6_matrix(table6_rows)
        theta = normal_equation(matrix)
        XtX, Xty = matrix.X.T @ matrix.X, matrix.X.T @ matrix.y
        residual = np.max(np.abs(XtX @ theta - Xty))
        assert residual / max(1.0, np.max(np.abs(Xty))) < 1e-9

    def test_duplicate_column_is_singular(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        matrix = DesignMatrix(X=X, y=np.array([1.0, 2.0, 3.0]), include_intercept=False)
        with pytest.raises(CtrServeError) as err:
            normal_equation(matrix)
        condition = re.fullmatch(r"X\^T X is rank deficient or near-singular \(condition ~ (\S+)\)",
                                 str(err.value))
        assert condition and (float(condition[1]) > 1e12 or not np.isfinite(float(condition[1])))

    def test_optimality_vs_gradient_descent(self, table6_rows):
        matrix = table6_matrix(table6_rows)
        scaled = transform(fit_scaler(matrix), matrix)
        theta_ne = normal_equation(scaled)
        theta_gd, _ = gradient_descent(scaled, TrainingConfig(iterations=400))
        assert cost(theta_ne, scaled) <= cost(theta_gd, scaled) + 1e-15


class TestTrainingConfig:
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0])
    def test_refuses_an_alpha_that_is_not_positive_and_finite(self, alpha):
        with pytest.raises(ContractError, match="alpha must be positive and finite"):
            TrainingConfig(method=NORMAL_EQUATION, alpha=alpha)

    def test_refuses_an_unknown_method(self):
        with pytest.raises(ContractError, match="unknown training method 'x'"):
            TrainingConfig(method="x")

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_refuses_iterations_that_are_not_positive(self, iterations):
        with pytest.raises(ContractError, match="iterations must be positive"):
            TrainingConfig(iterations=iterations)


class TestTrain:
    def test_normal_equation_model_predicts_like_oracle(self, table6_rows, sports_map):
        config = TrainingConfig(method=NORMAL_EQUATION)
        model = train(table6_rows, sports_map, config)
        matrix = table6_matrix(table6_rows)
        oracle = [float(v) for v in least_squares_exact(matrix.X.tolist(), matrix.y.tolist())]
        expected = oracle[0] + oracle[1] + oracle[2] + 22 * oracle[3] + 51 * oracle[4]
        assert predict(model, (1, 1, 22, 51)) == pytest.approx(expected, abs=1e-9)
        assert model.scaler is None
        assert model.keyword_map_ref == "sports"

    def test_gradient_descent_trace(self, table6_rows, sports_map):
        model = train(table6_rows, sports_map, TrainingConfig())
        assert len(model.cost_trace) == 400
        assert all(b <= a for a, b in zip(model.cost_trace, model.cost_trace[1:]))
        assert model.scaler is not None

    def test_empty_rows(self, sports_map):
        with pytest.raises(CtrServeError):
            train([], sports_map, TrainingConfig())

    def test_affine_equivalence(self, table6_rows, sports_map):
        raw = train(table6_rows, sports_map, TrainingConfig(method=NORMAL_EQUATION))
        matrix = table6_matrix(table6_rows)
        scaler = fit_scaler(matrix)
        scaled = RegressionModel(theta=normal_equation(transform(scaler, matrix)), scaler=scaler,
                                 config=raw.config)
        for raw_features in [(1, 1, 22, 51), (0, 3, 5, 47), (1, 2, 40, 52.1)]:
            assert predict(raw, raw_features) == pytest.approx(
                predict(scaled, raw_features), abs=1e-9)


class TestSimpleRegression:
    def test_bid_slope_positive(self, table6_rows):
        matrix = table6_matrix(table6_rows)
        scaled = transform(fit_scaler(matrix), matrix)
        slope = single_feature_slope(scaled.X[:, 3], scaled.y)
        assert slope > 0.0

    def test_keyword_relation_weaker_than_bid(self, table6_rows):
        matrix = table6_matrix(table6_rows)
        scaled = transform(fit_scaler(matrix), matrix)
        bid_slope = single_feature_slope(scaled.X[:, 3], scaled.y)
        kw_slope = single_feature_slope(scaled.X[:, 4], scaled.y)
        assert abs(kw_slope) < bid_slope


class TestPersistence:
    def test_round_trip(self, table6_rows, sports_map):
        model = train(table6_rows, sports_map, TrainingConfig(iterations=50))
        loaded = load_model(save_model(model))
        assert np.array_equal(loaded.theta, model.theta)
        assert loaded.cost_trace == model.cost_trace
        assert np.array_equal(loaded.scaler.means, model.scaler.means)
        assert np.array_equal(loaded.scaler.stds, model.scaler.stds)
        assert loaded.config.alpha == model.config.alpha
        assert loaded.keyword_map_ref == model.keyword_map_ref

    def test_a_trace_of_integers_is_stored_as_floats(self):
        model = RegressionModel(theta=[0.3, 0, 0, 0, 1], scaler=None, config=TrainingConfig(),
                                cost_trace=(1, 2))
        assert [type(c) for c in model.cost_trace] == [float, float]
        text = save_model(model)
        assert '"cost_trace": [\n    1.0,\n    2.0\n  ],' in text
        assert (hashlib.sha256(text.encode()).hexdigest()
                == "5b9778368e33bc0826a7e129b0892dc3461736c38a32bfd592ff4243ab05dbc2")
        loaded = load_model(text)
        assert loaded == model and loaded.cost_trace == (1.0, 2.0)

    def test_truncated_stream(self, table6_rows, sports_map):
        model = train(table6_rows, sports_map, TrainingConfig(iterations=5))
        payload = save_model(model)
        with pytest.raises(ParseError):
            load_model(payload[: len(payload) // 2])

    def test_unknown_version(self, paper_model):
        payload = save_model(paper_model).replace('"version": 1', '"version": 99')
        with pytest.raises(ParseError, match="version"):
            load_model(payload)

    @pytest.mark.parametrize("edit", [
        lambda m: m.update(theta=m["theta"][:4]),
        lambda m: m.update(theta=m["theta"] + [0.0]),
        lambda m: m.update(theta=[m["theta"]]),
        lambda m: m["schema"].update(features=["placement", "size", "keyword_value", "bid"]),
        lambda m: m["schema"].update(features=["placement", "size", "bid"]),
        lambda m: m["schema"].update(include_intercept=False),
        lambda m: m["theta"].__setitem__(0, 10 ** 400),
        lambda m: m.update(theta=m["theta"][1:]) or m["schema"].update(include_intercept=False),
    ])
    def test_rejects_theta_that_does_not_fit_schema(self, paper_model, edit):
        payload = json.loads(save_model(paper_model))
        edit(payload)
        with pytest.raises(ParseError):
            load_model(json.dumps(payload))

    @pytest.mark.parametrize("edit, field", [
        (lambda m: m.update(version=True), "version"),
        (lambda m: m["schema"].update(include_intercept="false"), "schema.include_intercept"),
        (lambda m: m["schema"].update(size_registry="300x250"), "schema.size_registry"),
        (lambda m: m["schema"]["size_registry"].reverse(), "schema.size_registry"),
        (lambda m: m["schema"]["size_registry"].pop(), "schema.size_registry"),
        (lambda m: m["theta"].__setitem__(1, True), "theta"),
        (lambda m: m["config"].update(alpha="0.01"), "config.alpha"),
        (lambda m: m["config"].update(iterations=2.7), "config.iterations"),
        (lambda m: m.update(cost_trace=[False]), "cost_trace"),
        (lambda m: m.update(keyword_map_ref=None), "keyword_map_ref"),
        pytest.param(lambda m: m["schema"].update(include_intercept=1),
                     "schema.include_intercept", id="schema.include_intercept=1"),
    ])
    def test_rejects_mistyped_field_naming_it(self, paper_model, edit, field):
        payload = json.loads(save_model(paper_model))
        edit(payload)
        with pytest.raises(ParseError, match=field):
            load_model(json.dumps(payload))

    @pytest.mark.parametrize("field", ["version", "method", "theta", "schema", "scaler",
                                       "config", "cost_trace"])
    def test_rejects_a_missing_field_naming_it(self, paper_model, field):
        payload = json.loads(save_model(paper_model))
        del payload[field]
        with pytest.raises(ParseError) as refused:
            load_model(json.dumps(payload))
        assert str(refused.value) == f"invalid model payload: missing field {field!r}"

    @pytest.mark.parametrize("edit", [
        lambda s: s["means"].__setitem__(0, "1.0"),
        lambda s: s.update(means=s["means"][:3]),
        lambda s: s.update(stds=s["stds"] + [1.0]),
        lambda s: s["stds"].__setitem__(2, 0.0),
        lambda s: s["stds"].__setitem__(0, -1.0),
    ])
    def test_rejects_scaler_that_does_not_fit_features(self, table6_rows, sports_map, edit):
        payload = json.loads(save_model(train(table6_rows, sports_map, TrainingConfig(iterations=5))))
        edit(payload["scaler"])
        with pytest.raises(ParseError):
            load_model(json.dumps(payload))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_a_theta_literal_that_is_not_finite(self, paper_model, literal):
        """json reads these three literals as floats."""
        payload = json.loads(save_model(paper_model))
        payload["theta"][2] = "THETA"
        with pytest.raises(ParseError, match="theta must be finite"):
            load_model(json.dumps(payload).replace('"THETA"', literal))

    def test_bid_weight(self, paper_model):
        assert paper_model.bid_weight == paper_model.theta[3]
