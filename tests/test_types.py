"""The package's immutable types: a field can be neither assigned nor deleted,
and each constructor refuses a bad value with its own message."""

import math

import numpy as np
import pytest

from ctrserve.catalog import AdCreative, TrainingRow
from ctrserve.errors import ContractError, CtrServeError, ValidationError
from ctrserve.evaluation import EvaluationReport
from ctrserve.features import DesignMatrix, ScalerStats
from ctrserve.keywords import CooccurrenceStats, KeywordMap
from ctrserve.regression import RegressionModel, TrainingConfig
from ctrserve.simulate import SimulationConfig, SimulationOutput

THETA = (0.02, 0.01, 0.002, 0.001, 0.0003)


@pytest.mark.parametrize("build, field", [
    pytest.param(lambda: AdCreative("a1", "c1", "sports", "300x250", 20.0, "https://x",
                                    frozenset({"football"})), "ad_id", id="AdCreative"),
    pytest.param(lambda: TrainingRow(1, 1, 20.0, 50.0, 0.1), "ctr", id="TrainingRow"),
    pytest.param(lambda: CooccurrenceStats("sports", {"football": 1}, {}), "support",
                 id="CooccurrenceStats"),
    pytest.param(lambda: KeywordMap("sports", ("football",), {"football": 50.0},
                                    {"football": "football"}), "values", id="KeywordMap"),
    pytest.param(lambda: DesignMatrix(np.ones((2, 5)), np.zeros(2), True), "X",
                 id="DesignMatrix"),
    pytest.param(lambda: ScalerStats((1.0,) * 4, (2.0,) * 4), "stds", id="ScalerStats"),
    pytest.param(TrainingConfig, "alpha", id="TrainingConfig"),
    pytest.param(lambda: RegressionModel(THETA, None, TrainingConfig()), "theta",
                 id="RegressionModel"),
    pytest.param(lambda: EvaluationReport(1, ((0.1, 0.1, 0.0),), 0.0, 0.1, 0.0, 0.0, math.nan),
                 "se", id="EvaluationReport"),
    pytest.param(lambda: SimulationConfig(1, 10), "n_events", id="SimulationConfig"),
    pytest.param(lambda: SimulationOutput("[]\n", "", "{}\n", "{}\n"), "events_csv",
                 id="SimulationOutput"),
])
def test_a_field_can_be_neither_assigned_nor_deleted(build, field):
    instance = build()
    before = getattr(instance, field)
    with pytest.raises(AttributeError):
        setattr(instance, field, 0)
    with pytest.raises(AttributeError):
        delattr(instance, field)
    assert getattr(instance, field) is before


@pytest.mark.parametrize("build, error, message", [
    (lambda: TrainingRow(2, 1, 20.0, 50.0, 0.1), ValidationError,
     "placement_code must be 0 or 1, got 2"),
    (lambda: TrainingRow(1, 1, 20.0, 50.0, 1.5), ValidationError,
     "ctr must lie in [0,1], got 1.5"),
    (lambda: TrainingConfig(method="sgd"), ContractError, "unknown training method 'sgd'"),
    (lambda: TrainingConfig(alpha=0.0), ContractError,
     "alpha must be positive and finite, got 0.0"),
    (lambda: TrainingConfig(alpha=math.inf), ContractError,
     "alpha must be positive and finite, got inf"),
    (lambda: TrainingConfig(iterations=0), ContractError, "iterations must be positive, got 0"),
    (lambda: RegressionModel(THETA[:4], None, TrainingConfig()), ContractError,
     "theta has 4 values, the schema needs 5"),
    (lambda: RegressionModel((*THETA[:4], math.nan), None, TrainingConfig()), ContractError,
     "theta must be finite"),
    (lambda: RegressionModel(THETA, ScalerStats((1.0,) * 3, (2.0,) * 3), TrainingConfig()),
     ContractError, "scaler means and stds must each have 4 values"),
    (lambda: SimulationConfig(seed=1, n_events=-1), CtrServeError, "n_events must be >= 0"),
], ids=["placement", "ctr", "method", "alpha-zero", "alpha-inf", "iterations", "theta-length",
        "theta-finite", "scaler-width", "n_events"])
def test_a_constructor_keeps_its_refusal(build, error, message):
    with pytest.raises(CtrServeError) as err:
        build()
    assert (type(err.value), str(err.value)) == (error, message)
