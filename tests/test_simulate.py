import itertools

import numpy as np
import pytest

from ctrserve.catalog import Placement, parse_ad_catalog, tally_event_log
from ctrserve.errors import CtrServeError
from ctrserve.features import (DEFAULT_SIZE_REGISTRY, aggregate_events, build_design_matrix,
                               encode_placement, encode_size)
from ctrserve.keywords import load_keyword_map
from ctrserve.regression import NORMAL_EQUATION, TrainingConfig, train
from ctrserve.simulate import (BIDS, TRUE_THETA, SimulationConfig, planted_keyword_map,
                               run_simulation)


def test_same_seed_byte_identical():
    a = run_simulation(SimulationConfig(seed=3, n_events=500))
    b = run_simulation(SimulationConfig(seed=3, n_events=500))
    assert a == b


def test_different_seeds_differ():
    a = run_simulation(SimulationConfig(seed=3, n_events=500))
    b = run_simulation(SimulationConfig(seed=4, n_events=500))
    assert a.events_csv != b.events_csv


def test_zero_events_header_only():
    out = run_simulation(SimulationConfig(seed=1, n_events=0))
    assert out.events_csv.splitlines() == [
        "timestamp,ad_id,placement,size,category,keywords,country,city,area,ip,browser,clicked"
    ]


def test_invalid_parameters():
    with pytest.raises(CtrServeError):
        SimulationConfig(seed=1, n_events=-1)


def test_every_planted_click_probability_lies_inside_0_1():
    """A click is a Bernoulli draw, so the planted linear model must give a
    probability strictly inside (0, 1) for every feature value the simulator
    can draw: each placement, size, bid and planted keyword value."""
    probabilities = [
        sum(t * xi for t, xi in zip(TRUE_THETA, (1.0, float(placement), float(size), bid, value)))
        for placement, size, bid, value in itertools.product(
            {encode_placement(p) for p in Placement},
            [encode_size(label) for label in DEFAULT_SIZE_REGISTRY], BIDS,
            planted_keyword_map().values.values())]
    assert all(0.0 < p < 1.0 for p in probabilities)


def test_planted_map_is_injective():
    kmap = planted_keyword_map()
    assert len(set(kmap.values.values())) == len(kmap.values)
    assert kmap.centroids == ("football", "cricket", "tennis")


def test_outputs_parse_and_aggregate():
    out = run_simulation(SimulationConfig(seed=5, n_events=2000))
    ads = parse_ad_catalog(out.catalog_json)
    bids = {a.ad_id: a.bid for a in ads}
    tally = tally_event_log(out.events_csv, bids=bids)
    kmap = load_keyword_map(out.map_json)
    rows = aggregate_events(tally, bids, kmap)
    assert rows
    assert sum(count for key, (count, _) in tally.items() if key[-1] == "1") > 0
    assert all(0.0 <= r.ctr <= 1.0 for r in rows)


def test_planted_recovery_smoke():
    # full-scale statistical recovery is covered by the acceptance suite;
    # here a coarse check that the fit lands in the right region
    cfg = SimulationConfig(seed=7, n_events=8000)
    out = run_simulation(cfg)
    ads = parse_ad_catalog(out.catalog_json)
    bids = {a.ad_id: a.bid for a in ads}
    kmap = load_keyword_map(out.map_json)
    rows = aggregate_events(tally_event_log(out.events_csv, bids=bids), bids, kmap)
    model = train(rows, kmap, TrainingConfig(method=NORMAL_EQUATION))
    X = build_design_matrix(rows).X
    y = np.array([r.ctr for r in rows])
    resid = X @ model.theta - y
    sigma2 = resid @ resid / (X.shape[0] - X.shape[1])
    ses = np.sqrt(np.diag(sigma2 * np.linalg.inv(X.T @ X)))
    z = np.abs(model.theta - np.array(TRUE_THETA)) / ses
    assert np.all(z < 4.0)
