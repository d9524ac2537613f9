import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ctrserve.catalog import Placement, TrainingRow
from ctrserve.errors import ContractError, CtrServeError, DegenerateFeatureError, EncodingError
from ctrserve.features import (DEFAULT_SIZE_REGISTRY, DesignMatrix, build_design_matrix,
                               encode_placement, encode_size, fit_scaler, transform,
                               transform_row)

TABLE6_BIDS = [20, 15, 10, 40, 20, 15, 10, 42, 25, 20, 10, 5]


def exact_mean_std(values):
    vals = [Fraction(v) for v in values]
    n = len(vals)
    mean = sum(vals) / n
    var = sum((v - mean) ** 2 for v in vals) / (n - 1)
    return float(mean), math.sqrt(float(var))


class TestEncodings:
    def test_size_codes(self):
        assert encode_size("300x250") == 1
        assert encode_size("728x90") == 2
        assert encode_size("160x600") == 3

    def test_unknown_size(self):
        with pytest.raises(EncodingError, match="999x1"):
            encode_size("999x1")

    def test_size_injective_over_registry(self):
        codes = [encode_size(label) for label in DEFAULT_SIZE_REGISTRY]
        assert codes == sorted(set(codes))

    def test_placement(self):
        assert encode_placement(Placement.ABOVE_FOLD) == 1
        assert encode_placement(Placement.BELOW_FOLD) == 0


class TestDesignMatrix:
    def test_table6_shape(self, table6_rows):
        matrix = build_design_matrix(table6_rows)
        assert matrix.X.shape == (12, 5)
        assert np.all(matrix.X[:, 0] == 1.0)
        assert matrix.y[0] == 0.08 and matrix.y[-1] == 0.0001

    def test_single_row_has_the_ones_entry_first(self):
        row = TrainingRow(1, 2, 20.0, 50.0, 0.08)
        matrix = build_design_matrix([row])
        assert matrix.X.tolist() == [[1.0, 1.0, 2.0, 20.0, 50.0]]
        assert matrix.y.tolist() == [0.08]

    def test_empty_rows(self):
        with pytest.raises(CtrServeError):
            build_design_matrix([])

    @pytest.mark.parametrize("X, y, message", [
        (np.ones(3), np.ones(3), "must be 2-D and nonempty"),
        (np.ones((0, 5)), np.ones(0), "must be 2-D and nonempty"),
        (np.ones((3, 5)), np.ones(2), "target length must equal the row count"),
        (np.ones((3, 5)), np.ones((3, 1)), "target length must equal the row count"),
        (np.array([[1.0, math.nan]] * 2), np.ones(2), "entries must be finite"),
        (np.ones((2, 2)), np.array([0.1, math.inf]), "entries must be finite"),
    ], ids=["1-D", "no rows", "short target", "2-D target", "NaN entry", "infinite target"])
    def test_refuses_a_matrix_it_cannot_hold(self, X, y, message):
        with pytest.raises(ContractError, match=message):
            DesignMatrix(X=X, y=y, include_intercept=True)


class TestScaler:
    def test_table6_bid_column(self, table6_rows):
        matrix = build_design_matrix(table6_rows)
        scaler = fit_scaler(matrix)
        mean, std = exact_mean_std(TABLE6_BIDS)
        assert scaler.means[2] == pytest.approx(mean, abs=1e-12)
        assert scaler.stds[2] == pytest.approx(std, abs=1e-12)
        # sanity against the coarse hand calculation
        assert scaler.means[2] == pytest.approx(19.3333, abs=1e-4)
        assert scaler.stds[2] == pytest.approx(11.594, abs=1e-3)

    def test_symmetric_column(self):
        matrix = DesignMatrix(X=np.array([[-1.0], [1.0]]), y=np.zeros(2),
                              include_intercept=False)
        scaler = fit_scaler(matrix)
        assert scaler.means[0] == 0.0
        assert scaler.stds[0] == pytest.approx(math.sqrt(2))

    def test_constant_column(self):
        matrix = DesignMatrix(X=np.array([[5.0], [5.0], [5.0]]), y=np.zeros(3),
                              include_intercept=False)
        with pytest.raises(DegenerateFeatureError, match="column 0"):
            fit_scaler(matrix)

    def test_too_few_rows(self):
        matrix = DesignMatrix(X=np.array([[1.0, 2.0]]), y=np.zeros(1),
                              include_intercept=False)
        with pytest.raises(CtrServeError):
            fit_scaler(matrix)

    def test_scaling_identity(self, table6_rows):
        matrix = build_design_matrix(table6_rows)
        scaled = transform(fit_scaler(matrix), matrix)
        feats = scaled.X[:, 1:]
        assert np.all(np.abs(feats.mean(axis=0)) < 1e-12)
        assert np.all(np.abs(feats.std(axis=0, ddof=1) - 1.0) < 1e-12)
        assert np.all(scaled.X[:, 0] == 1.0)
        assert np.array_equal(scaled.y, matrix.y)

    def test_mean_entry_maps_to_zero(self, table6_rows):
        matrix = build_design_matrix(table6_rows)
        scaler = fit_scaler(matrix)
        assert transform_row(scaler, scaler.means) == (0.0,) * 4

    def test_transform_row_matches_matrix(self, table6_rows):
        matrix = build_design_matrix(table6_rows)
        scaler = fit_scaler(matrix)
        scaled = transform(scaler, matrix)
        for i in range(matrix.m):
            assert np.array_equal(transform_row(scaler, matrix.X[i, 1:]), scaled.X[i, 1:])

    def test_bid_22_scales_as_expected(self, table6_rows):
        matrix = build_design_matrix(table6_rows)
        scaler = fit_scaler(matrix)
        mean, std = exact_mean_std(TABLE6_BIDS)
        row = transform_row(scaler, [1.0, 1.0, 22.0, 51.0])
        assert row[2] == pytest.approx((22 - mean) / std, abs=1e-12)
        assert row[2] == pytest.approx(0.2300, abs=1e-4)

    def test_schema_mismatch(self, table6_rows):
        matrix = build_design_matrix(table6_rows)
        scaler = fit_scaler(matrix)
        with pytest.raises(ContractError):
            transform_row(scaler, [1.0, 2.0])


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, (6, 3), elements=st.floats(-100, 100)))
def test_scaling_identity_random_matrices(X):
    # Skip columns whose spread is at rounding-noise level relative to their
    # magnitude; scaling such a column only amplifies float error.
    if np.any(X.std(axis=0, ddof=1) <= 1e-9 * (1.0 + np.abs(X).max(axis=0))):
        return
    matrix = DesignMatrix(X=X, y=np.zeros(6), include_intercept=False)
    scaler = fit_scaler(matrix)
    scaled = transform(scaler, matrix)
    assert np.all(np.abs(scaled.X.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(scaled.X.std(axis=0, ddof=1) - 1.0) < 1e-9)
