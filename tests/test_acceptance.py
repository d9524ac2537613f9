"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them)."""

import random
import time

import numpy as np
import pytest

from _oracles import brute_force_best_by_bid, eligible_candidates, least_squares_exact
from conftest import make_context, weighted
from ctrserve import sample_data
from ctrserve.catalog import parse_ad_catalog, tally_event_log
from ctrserve.evaluation import r_squared, standard_error
from ctrserve.features import (DEFAULT_SIZE_REGISTRY, aggregate_events, build_design_matrix,
                               fit_scaler, transform)
from ctrserve.keywords import (build_keyword_map, confidence,
                               count_cooccurrences, load_keyword_map,
                               resolve_page_value, save_keyword_map)
from ctrserve.regression import (NORMAL_EQUATION, TrainingConfig, cost, gradient,
                                 gradient_descent, normal_equation, predict, train)
from ctrserve.server import MODE_BID, MODE_CTR, NO_FILL, ServingState, serve
from ctrserve.simulate import TRUE_THETA, SimulationConfig, run_simulation
from test_regression import single_feature_slope
from test_server import make_ad, random_catalog, random_request


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_criterion_1_published_theta_replay(paper_model):
    value = predict(paper_model, (1, 1, 22, 51))
    report("1 published-theta replay: predict(1,1,22,51) = 0.048338 +/- 2e-4",
           abs(value - 0.048338) < 2e-4)


def test_criterion_2_standard_error_replay(table10_pairs):
    y, y_pred = table10_pairs
    se = standard_error(y, y_pred)
    sse = sum((a - b) ** 2 for a, b in zip(y, y_pred))
    report("2 residual-pair replay: SE = 0.010127 +/- 1e-5 and SSE = 0.000615 +/- 1e-5",
           abs(se - 0.010127) < 1e-5 and abs(sse - 0.000615) < 1e-5)


def test_criterion_3_r_squared_audit(table10_pairs):
    # The 0.836581861 headline figure is not derivable from the published
    # residual pairs: recomputing sum((y - ym)^2) with the stated ym gives
    # ~0.002382, not 0.003765, so 1 - SSE/SSTO lands at ~0.7417. The
    # faithful direct computation is the asserted value.
    y, y_pred = table10_pairs
    value = r_squared(y, y_pred)
    ym = sum(y) / len(y)
    ssto = sum((yi - ym) ** 2 for yi in y)
    sse = sum((a - b) ** 2 for a, b in zip(y, y_pred))
    direct = 1.0 - sse / ssto
    headline_irreproducible = abs(direct - 0.836581861) > 1e-2
    report("3 r-squared audit: direct value = 0.7417 +/- 1e-3; headline 0.8366 irreproducible",
           abs(value - 0.7417) < 1e-3 and abs(value - direct) < 1e-12
           and headline_irreproducible)


def test_criterion_4_normal_equation_oracle(table6_rows):
    matrix = build_design_matrix(table6_rows)
    theta = normal_equation(matrix)
    oracle = np.array([float(v) for v in
                       least_squares_exact(matrix.X.tolist(), matrix.y.tolist())])
    coef_ok = np.max(np.abs(theta - oracle)) < 1e-9
    XtX, Xty = matrix.X.T @ matrix.X, matrix.X.T @ matrix.y
    residual_ok = np.max(np.abs(XtX @ theta - Xty)) / max(1.0, np.max(np.abs(Xty))) < 1e-9
    report("4 normal-equation vs exact-arithmetic oracle (1e-9) + residual check",
           coef_ok and residual_ok)


def test_criterion_5_gradient_descent_convergence(table6_rows):
    matrix = build_design_matrix(table6_rows)
    scaled = transform(fit_scaler(matrix), matrix)
    _, trace400 = gradient_descent(scaled, TrainingConfig(alpha=0.01, iterations=400))
    monotone = all(b <= a for a, b in zip(trace400, trace400[1:]))
    theta_gd, _ = gradient_descent(scaled, TrainingConfig(alpha=0.01, iterations=200000))
    theta_ne = normal_equation(scaled)
    converged = np.max(np.abs(theta_gd - theta_ne)) < 1e-6
    probes = [(1, 1, 22, 51), (0, 3, 5, 47), (1, 2, 40, 52.1)]
    scaler = fit_scaler(matrix)
    agree = True
    for raw in probes:
        z = np.concatenate([[1.0], (np.array(raw, float) - scaler.means) / scaler.stds])
        agree &= abs(float(z @ theta_gd) - float(z @ theta_ne)) < 1e-6
    report("5 gradient descent: 400-step monotone trace; 200k steps -> normal equation (1e-6)",
           monotone and converged and agree)


def test_criterion_6_gradient_matches_finite_differences():
    rng = random.Random(2024)
    h = 1e-6
    ok = True
    for _ in range(50):
        m, n = rng.randint(2, 50), rng.randint(1, 6)
        X = np.array([[rng.uniform(-2, 2) for _ in range(n)] for _ in range(m)])
        y = np.array([rng.uniform(-1, 1) for _ in range(m)])
        from ctrserve.features import DesignMatrix
        matrix = DesignMatrix(X=X, y=y, include_intercept=False)
        theta = np.array([rng.uniform(-1, 1) for _ in range(n)])
        analytic = gradient(theta, matrix)
        fd = np.array([
            (cost(theta + h * np.eye(n)[j], matrix) - cost(theta - h * np.eye(n)[j], matrix)) / (2 * h)
            for j in range(n)
        ])
        denom = np.linalg.norm(analytic) + np.linalg.norm(fd) + 1e-12
        ok &= np.linalg.norm(analytic - fd) / denom < 1e-6
    report("6 analytic gradient vs central differences on 50 random matrices (1e-6 rel)", ok)


def test_criterion_7_qualitative_signs(table6_rows):
    matrix = build_design_matrix(table6_rows)
    scaled = transform(fit_scaler(matrix), matrix)
    bid_slope = single_feature_slope(scaled.X[:, 3], scaled.y)
    kw_slope = single_feature_slope(scaled.X[:, 4], scaled.y)
    report("7 sign checks: bid slope > 0 and |keyword slope| < bid slope",
           bid_slope > 0 and abs(kw_slope) < bid_slope)


def test_criterion_8_selection_oracle_equivalence(paper_model, sports_map):
    rng = random.Random(808)
    ok = True
    from ctrserve.features import encode_placement, encode_size
    for trial in range(1000):
        n = rng.randint(1, 1000) if trial % 50 == 0 else rng.randint(1, 40)
        catalog = random_catalog(rng, n, categories=("sports",))
        request = random_request(rng)
        candidates = eligible_candidates(catalog, request)
        state = ServingState(catalog=tuple(catalog), model=paper_model, keyword_map=sports_map)
        by_bid = serve(request, MODE_BID, state)
        by_ctr = serve(request, MODE_CTR, state)
        if not candidates:
            ok &= by_bid.status == by_ctr.status == NO_FILL
            continue
        ok &= by_bid.ad_id == brute_force_best_by_bid(candidates).ad_id
        placement_code = encode_placement(request.placement)
        kw_value = resolve_page_value(sports_map, request.page_keywords)
        scored = [(predict(paper_model, (placement_code, encode_size(c.size), c.bid, kw_value)),
                   c.bid, c) for c, _ in candidates]
        best_score, best_bid = max((s, b) for s, b, _ in scored)
        best_id = min(c.ad_id for s, b, c in scored if s == best_score and b == best_bid)
        ok &= (by_ctr.ad_id, by_ctr.score) == (best_id, best_score)
    report("8 bid and ctr selection match exhaustive oracles over 1000 random pools", ok)


def test_criterion_9_keyword_map_properties():
    vocab = [f"kw{i}" for i in range(14)]
    ok = True
    for seed in range(100):
        rng = random.Random(seed)
        txns = [set(rng.sample(vocab, rng.randint(1, 5))) for _ in range(rng.randint(5, 50))]
        stats = count_cooccurrences(weighted(txns), "x")
        k = min(3, len(stats.support))
        kmap = build_keyword_map(stats, k)
        ok &= save_keyword_map(kmap) == save_keyword_map(build_keyword_map(stats, k))
        ok &= len(set(kmap.values.values())) == len(kmap.values)
        ok &= all(kmap.values[c] == 50.0 + 10.0 * r for r, c in enumerate(kmap.centroids))
        for c in kmap.centroids:
            members = [kw for kw, cen in kmap.cluster_of.items()
                       if cen == c and kw != c and kw not in kmap.nudged]
            members.sort(key=lambda m: -confidence(stats, m, c))
            for a, b in zip(members, members[1:]):
                if confidence(stats, a, c) > confidence(stats, b, c):
                    ok &= abs(kmap.values[a] - kmap.values[c]) < abs(kmap.values[b] - kmap.values[c])
    report("9 keyword maps over 100 corpora: deterministic, injective, exact bases, monotone", ok)


def test_criterion_10_planted_model_recovery():
    config = SimulationConfig(seed=7, n_events=10000)
    out = run_simulation(config)
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
    report(f"10 planted-theta recovery within 3 SE (max |z| = {np.max(z):.2f})",
           bool(np.all(z < 3.0)))


def test_criterion_11_serving_latency(paper_model, sports_map):
    rng = random.Random(1111)
    catalog = random_catalog(rng, 10000, categories=("sports", "health", "news", "autos", "travel"))
    state = ServingState(catalog=tuple(catalog), model=paper_model, keyword_map=sports_map)
    requests = [random_request(rng) for _ in range(10000)]
    # keep categories aligned with the catalog's so pools are non-trivial
    latencies = []
    filled = 0
    for request in requests:
        start = time.perf_counter()
        response = serve(request, MODE_CTR, state)
        latencies.append(time.perf_counter() - start)
        filled += response.status != NO_FILL
    p99 = sorted(latencies)[int(0.99 * len(latencies))]
    report(f"11 serve p99 latency {p99 * 1000:.3f} ms < 10 ms over 10k ads / 10k requests "
           f"({filled} filled)", p99 < 0.010)
