"""Output checks computed apart from the program.

Nothing here imports `ctrserve`: the oracles read the same catalog, model,
map and event-log files the program reads and apply the documented rules in
plain Python (and numpy's SVD-based least squares for the fit).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

SCORE_TOL = 1e-9          # |served score - oracle score|, absolute
THETA_RTOL = 1e-6         # normal-equation theta against the lstsq solve
THETA_ATOL = 1e-9
PLANTED_MAX_Z = 3.0       # planted placement, size and bid coefficients


class CheckFailed(Exception):
    """An output of the program disagrees with its oracle."""


def _load(path: Path):
    return json.loads(Path(path).read_text())


class ServingOracle:
    """Eligibility (size, category, country target, keyword overlap >= 1),
    then bid mode: overlap, bid, ad_id; ctr mode: theta . x with the page's
    keyword value (map's first-ranked keyword on the page, else the first
    centroid's value), ties by bid then ad_id."""

    def __init__(self, workdir: Path):
        workdir = Path(workdir)
        self.buckets: dict[tuple[str, str], list[dict]] = {}
        for ad in _load(workdir / "catalog.json"):
            ad = dict(ad, keywords=frozenset(k.strip().lower() for k in ad["keywords"]),
                      locations=frozenset(ad.get("locations") or ()))
            self.buckets.setdefault((ad["size"], ad["category"]), []).append(ad)
        model = _load(workdir / "model.json")
        if model["scaler"] is not None or not model["schema"]["include_intercept"]:
            raise CheckFailed("the serving oracle expects an unscaled model with intercept")
        self.theta = [float(t) for t in model["theta"]]
        self.registry = list(model["schema"]["size_registry"])
        kmap = _load(workdir / "map.json")
        self.map_values = {k: float(v) for k, v in kmap["values"].items()}
        self.fallback = self.map_values[kmap["centroids"][0]]

    def keyword_value(self, page: frozenset) -> float:
        for keyword, value in self.map_values.items():  # file order is rank order
            if keyword in page:
                return value
        return self.fallback

    def answer(self, op: dict):
        """The winning ad with its score, or None for a no-fill."""
        page = frozenset(k.strip().lower() for k in op["keywords"])
        pool = []
        for ad in self.buckets.get((op["size"], op["category"]), ()):
            if ad["locations"] and op["country"] not in ad["locations"]:
                continue
            overlap = len(ad["keywords"] & page)
            if overlap >= 1:
                pool.append((ad, overlap))
        if not pool:
            return None
        if op["mode"] == "bid":
            ad, _ = min(pool, key=lambda c: (-c[1], -c[0]["bid"], c[0]["ad_id"]))
            return {"ad_id": ad["ad_id"], "score": ad["bid"], "ad": ad}
        if op["size"] not in self.registry:
            return None
        x = (1.0, 1.0 if op["placement"] == "above_fold" else 0.0,
             float(self.registry.index(op["size"]) + 1), 0.0, self.keyword_value(page))
        best = None
        for ad, _ in pool:
            score = math.fsum(t * v for t, v in zip(self.theta, x[:3] + (ad["bid"],) + x[4:]))
            key = (score, ad["bid"])
            if best is None or key > best[0] or (key == best[0] and ad["ad_id"] < best[1]["ad_id"]):
                best = (key, ad)
        return {"ad_id": best[1]["ad_id"], "score": best[0][0], "ad": best[1]}


def check_ad_response(op: dict, expected, status: int, body: bytes) -> None:
    """A 204 exactly when no ad is eligible; otherwise the oracle's ad and
    score, echoed mode and the ad's fields."""
    if expected is None:
        if status != 204:
            raise CheckFailed(f"expected 204 for {op}, got {status} {body[:200]!r}")
        return
    if status != 200:
        raise CheckFailed(f"expected 200 for {op}, got {status} {body[:200]!r}")
    got = json.loads(body)
    ad = expected["ad"]
    if got.get("status") != "filled" or got.get("ad_id") != expected["ad_id"] \
            or got.get("mode") != op["mode"] or got.get("size") != ad["size"] \
            or got.get("campaign_id") != ad["campaign_id"] \
            or got.get("landing_page") != ad["landing_page"]:
        raise CheckFailed(f"request {op}: served {got}, oracle wants {expected['ad_id']}")
    if not abs(float(got["score"]) - expected["score"]) <= SCORE_TOL:
        raise CheckFailed(f"request {op}: score {got['score']} != oracle {expected['score']}")


def expected_log_row(op: dict) -> list[str]:
    """The event-log columns after the timestamp, as the program must write
    them for an accepted POST /event."""
    return [op["ad_id"], op["placement"], op["size"], op["category"],
            ";".join(sorted(k.strip().lower() for k in op["keywords"])),
            op.get("country", ""), op.get("city", ""), op.get("area", ""),
            op.get("ip", ""), op.get("browser", ""), "1" if op["clicked"] else "0"]


def check_event_log(path: Path, accepted: list[list[str]]) -> None:
    """Read back with the csv module, the log holds exactly the accepted
    events, in order, with non-decreasing positive timestamps."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:2] != ["timestamp", "ad_id"]:
        raise CheckFailed(f"event log {path} has no header")
    rows = rows[1:]
    if len(rows) != len(accepted):
        raise CheckFailed(f"event log holds {len(rows)} events, {len(accepted)} were accepted")
    last = 0
    for i, (row, want) in enumerate(zip(rows, accepted)):
        if row[1:] != want:
            raise CheckFailed(f"event log row {i + 1}: {row[1:]} != accepted {want}")
        stamp = int(row[0])
        if stamp <= 0 or stamp < last:
            raise CheckFailed(f"event log row {i + 1}: timestamp {stamp} after {last}")
        last = stamp


def check_keyword_map(path: Path) -> dict:
    """The mined map is injective and its centroid of rank r sits at 50 + 10 r."""
    kmap = _load(path)
    values = [float(v) for v in kmap["values"].values()]
    if len(set(values)) != len(values):
        raise CheckFailed("mined keyword map is not injective")
    for r, centroid in enumerate(kmap["centroids"]):
        if float(kmap["values"][centroid]) != 50.0 + 10.0 * r:
            raise CheckFailed(f"centroid {centroid!r} of rank {r} is at "
                              f"{kmap['values'][centroid]}, not {50 + 10 * r}")
    return kmap


def group_ctr_table(workdir: Path, kmap: dict):
    """Aggregate the event log into (placement, size code, bid, keyword
    value) groups with their CTRs, joining bids from the catalog."""
    bids = {ad["ad_id"]: float(ad["bid"]) for ad in _load(workdir / "catalog.json")}
    registry = ["300x250", "728x90", "160x600"]
    rank = [(k, float(v)) for k, v in kmap["values"].items()]
    groups: dict[tuple, list[int]] = {}
    with open(workdir / "events.csv", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            page = set(row[5].split(";"))
            value = next(v for k, v in rank if k in page)
            key = (1.0 if row[2] == "above_fold" else 0.0,
                   float(registry.index(row[3]) + 1), bids[row[1]], value)
            counts = groups.setdefault(key, [0, 0])
            counts[0] += 1
            counts[1] += row[11] == "1"
    X = np.array([(1.0,) + key for key in groups])
    y = np.array([clicks / shown for shown, clicks in groups.values()])
    shown = np.array([counts[0] for counts in groups.values()], dtype=float)
    return X, y, shown


def standard_errors(X, theta, shown):
    """Sampling SEs of OLS on group CTRs when each group's CTR is a binomial
    proportion: the sandwich (X'X)^-1 X' diag(p (1 - p) / n) X (X'X)^-1 with
    p the fitted CTR. Unlike the residual-based formula it does not assume
    every group has the same variance, which groups of 20 and of 3000
    impressions do not."""
    p = np.clip(X @ theta, 1e-6, 1 - 1e-6)
    bread = np.linalg.inv(X.T @ X)
    meat = (X * (p * (1 - p) / shown)[:, None]).T @ X
    return np.sqrt(np.diag(bread @ meat @ bread))


def check_training(workdir: Path, map_path: Path, model_path: Path) -> dict:
    """The mined map's properties, the fitted theta against an independent
    least-squares solve, and the planted placement, size and bid
    coefficients within PLANTED_MAX_Z standard errors."""
    kmap = check_keyword_map(map_path)
    X, y, shown = group_ctr_table(workdir, kmap)
    ref, *_ = np.linalg.lstsq(X, y, rcond=None)
    theta = np.array(_load(model_path)["theta"], dtype=float)
    if theta.shape != ref.shape or not np.allclose(theta, ref, rtol=THETA_RTOL, atol=THETA_ATOL):
        raise CheckFailed(f"normal-equation theta {theta.tolist()} != lstsq {ref.tolist()}")
    se = standard_errors(X, ref, shown)
    truth = np.array(_load(workdir / "truth.json")["theta"])
    z = np.abs(theta - truth) / se
    if not np.all(z[1:4] < PLANTED_MAX_Z):
        raise CheckFailed(f"planted placement/size/bid not recovered: |z| = {z[1:4].tolist()}")
    return {"groups": int(X.shape[0]), "z": z.tolist()}
