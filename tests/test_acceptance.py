"""Acceptance suite: one test per exit criterion.

Each test prints a single `[acceptance] criterion N: PASS/FAIL` line with
the measured quantities (visible with `pytest -s` or in failure output) and
asserts the criterion at its stated tolerance, including the runtime bound
where one is stated.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from covtomo.accuracy import classify_triple, score_trees
from covtomo.delay_cov import build_covariance_matrix, estimate_covariance, normalize_series, align_pairs
from covtomo.dynamic import attach_peer
from covtomo.logio import export_log, import_log
from covtomo.model import (
    DelaySeries,
    branching_skeleton,
    trees_topologically_equal,
)
from covtomo.ordering import dfs_order
from covtomo.recover import RecoveryConfig, recover_tree
from covtomo.scenarios import parse_config, run_dynamic_scenario, run_scenario
from covtomo.simulator import PACKET_SIZE_BYTES, SimulatorConfig, generate_topology, simulate_session

from treegen import covariance_matrix_from_tree, log_from_dicts, random_truth_tree, restrict, shared_covariance


def _series(values):
    return DelaySeries(receiver="x", indices=tuple(range(len(values))), values=tuple(values))


def _report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


BASE_SIMULATOR = {
    "n_hosts": 150,
    "n_routers": 50,
    "n_pairs": 2000,
    "link_delay_var_ms2": [0.5, 1.5],
    "bg_rate_bytes_per_sec": 4e6,  # mid-range of the 1..12 MBps loads
}
BASE_RHO = 0.35


def test_criterion_1_estimator_properties():
    start = time.monotonic()
    rng = np.random.default_rng(101)

    # affine invariance on 1000 random series pairs, 1e-9 relative
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(5, 120))
        va = rng.normal(0, 400, n)
        vb = 0.4 * va + rng.normal(0, 400, n)
        a, c = rng.uniform(0.1, 6, size=2)
        b, d = rng.uniform(-2000, 2000, size=2)
        base = estimate_covariance(_series(va), _series(vb))
        transformed = estimate_covariance(_series(a * va + b), _series(c * vb + d))
        rel = abs(transformed - a * c * base) / max(abs(a * c * base), 1e-300)
        worst = max(worst, rel)
    affine_ok = worst <= 1e-9

    # normalized series equal the raw delay series, exactly
    exact_ok = True
    for _ in range(200):
        n = int(rng.integers(3, 80))
        delta = int(rng.integers(5, 60))
        da = rng.integers(50, 8000, n)
        db = rng.integers(50, 8000, n)
        log = log_from_dicts(
            {k: k * delta for k in range(n)},
            {
                "a": {k: k * delta + int(da[k]) for k in range(n)},
                "b": {k: k * delta + int(db[k]) for k in range(n)},
            },
        )
        aligned = align_pairs(log, {"a", "b"})
        got = estimate_covariance(
            normalize_series(log, "a", aligned), normalize_series(log, "b", aligned)
        )
        direct = estimate_covariance(
            _series([int(v) for v in da]), _series([int(v) for v in db])
        )
        exact_ok = exact_ok and got == direct

    # unbiasedness: 1000 sessions x 1000 pairs against a known shared variance
    sessions, n, true_var = 1000, 1000, 3.0
    shared = rng.normal(0, math.sqrt(true_var) * 1000, (sessions, n))
    ea = rng.normal(0, 1200, (sessions, n))
    eb = rng.normal(0, 1200, (sessions, n))
    xa = np.rint(shared + ea).astype(int)
    xb = np.rint(shared + eb).astype(int)
    estimates = [
        estimate_covariance(_series(xa[s].tolist()), _series(xb[s].tolist()))
        for s in range(sessions)
    ]
    mean = float(np.mean(estimates))
    stderr = float(np.std(estimates, ddof=1)) / math.sqrt(sessions)
    unbiased_ok = abs(mean - true_var) <= 3 * stderr

    elapsed = time.monotonic() - start
    _report(
        "criterion 1 (estimator: affine invariance, exact equivalence, unbiasedness)",
        affine_ok and exact_ok and unbiased_ok and elapsed < 30,
        f"worst_rel={worst:.2e}, exact={exact_ok}, mean={mean:.4f} vs {true_var} "
        f"(3*stderr={3 * stderr:.4f}), elapsed={elapsed:.1f}s < 30s",
    )


def test_criterion_2_noiseless_oracle_recovery():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    equal_count = 0
    perfect_p = 0
    trials = 100
    for _ in range(trials):
        tree, v_min = random_truth_tree(rng, int(rng.integers(2, 11)))
        cov = covariance_matrix_from_tree(tree)
        rho = float(rng.uniform(0.05, 0.95)) * v_min
        recovered = recover_tree("src", dfs_order(cov), cov, RecoveryConfig(rho))
        recovered.validate()
        if trees_topologically_equal(recovered, tree):
            equal_count += 1
        if score_trees(recovered, branching_skeleton(tree), tree.leaves).p == 1.0:
            perfect_p += 1
    elapsed = time.monotonic() - start
    _report(
        "criterion 2 (noiseless recovery on 100 random trees)",
        equal_count == trials and perfect_p == trials and elapsed < 10,
        f"topologically equal {equal_count}/{trials}, p==1.0 {perfect_p}/{trials}, "
        f"elapsed={elapsed:.1f}s < 10s",
    )


def test_criterion_3_static_dynamic_agreement():
    start = time.monotonic()
    rng = np.random.default_rng(303)
    trees = 100
    checks = failures = 0
    for _ in range(trees):
        truth, v_min = random_truth_tree(rng, int(rng.integers(2, 9)))
        cov = covariance_matrix_from_tree(truth)
        config = RecoveryConfig(float(rng.uniform(0.2, 0.8)) * v_min)
        full = recover_tree("src", dfs_order(cov), cov, config)
        oracle = lambda a, b: shared_covariance(truth, a, b)
        for held_out in sorted(truth.leaves):
            rest = [l for l in sorted(truth.leaves) if l != held_out]
            sub = restrict(cov, rest)
            partial = recover_tree("src", dfs_order(sub), sub, config)
            attach_peer(partial, oracle, held_out, config)
            checks += 1
            if not trees_topologically_equal(partial, full):
                failures += 1
    elapsed = time.monotonic() - start
    _report(
        "criterion 3 (leave-one-out join equivalence on 100 random trees)",
        failures == 0 and elapsed < 30,
        f"{checks} held-out joins, {failures} disagreements, elapsed={elapsed:.1f}s < 30s",
    )


def test_criterion_4_desk_scale_accuracy():
    start = time.monotonic()
    cfg = parse_config(
        {
            "simulator": dict(BASE_SIMULATOR),
            "recovery": {"rho_ms2": BASE_RHO},
            "seeds": list(range(1, 21)),
        }
    )
    report = run_scenario(cfg)
    mean_p = report["summary"]["mean_p"]
    n_leaves = {run["n_leaves"] for run in report["runs"]}
    elapsed = time.monotonic() - start
    _report(
        "criterion 4 (150 hosts + 50 routers, 105 clients, 20 runs, n=2000)",
        mean_p >= 0.90 and n_leaves == {105} and elapsed < 600,
        f"mean p={mean_p:.4f} >= 0.90, clients={sorted(n_leaves)}, elapsed={elapsed:.1f}s < 600s",
    )


def test_criterion_5_background_traffic_u_curve():
    rates = [1e6, 4e6, 12e6]  # lowest, mid-range, highest (bytes/s)
    low, mid, high = (
        run_scenario(
            parse_config(
                {
                    "simulator": dict(BASE_SIMULATOR, bg_rate_bytes_per_sec=rate),
                    "recovery": {"rho_ms2": BASE_RHO},
                    "seeds": list(range(1, 21)),
                }
            )
        )["summary"]["mean_p"]
        for rate in rates
    )
    _report(
        "criterion 5 (background-traffic U-curve)",
        mid - low >= 0.05 and mid - high >= 0.05,
        f"low={low:.4f}, mid={mid:.4f}, high={high:.4f}; "
        f"mid-low={mid - low:.4f} >= 0.05, mid-high={mid - high:.4f} >= 0.05",
    )


def test_criterion_6_dynamic_growth():
    cfg = parse_config(
        {
            "simulator": dict(BASE_SIMULATOR),
            "recovery": {"rho_ms2": BASE_RHO},
            "seeds": list(range(1, 11)),
            "joins": {"batches": [50] * 12, "n_pairs": 2000},
        }
    )
    report = run_dynamic_scenario(cfg)
    sizes = [pt["n_nodes"] for pt in report["runs"][0]["curve"]]
    drop = report["summary"]["mean_drop"]
    _report(
        "criterion 6 (growth 200 -> 800 nodes via joins over 10 seeds)",
        sizes[0] == 200 and sizes[-1] == 800 and drop <= 0.08,
        f"sizes {sizes[0]} -> {sizes[-1]}, initial={report['summary']['initial_mean_p']:.4f}, "
        f"final={report['summary']['final_mean_p']:.4f}, drop={drop:.4f} <= 0.08",
    )


def test_criterion_7_import_path_with_testbed_settings(tmp_path):
    # live-network results are out of reach at desk scale; the import path
    # must feed the identical inference core at the matched settings
    # (200-byte packets, 30 ms interval)
    sim = SimulatorConfig(
        n_hosts=12,
        n_routers=5,
        seed=7,
        n_pairs=2000,
        pair_interval_us=30_000,
        link_delay_var_ms2=(0.5, 1.5),
    )
    assert PACKET_SIZE_BYTES == 200 and sim.pair_interval_us == 30_000
    net = generate_topology(sim)
    log = simulate_session(net, sim)
    path = tmp_path / "testbed.ndjson"
    export_log(log, path)
    imported = import_log(path)
    imported.validate()
    round_trip_ok = imported == log

    cov = build_covariance_matrix(imported, sorted(net.clients))
    tree = recover_tree(net.source, dfs_order(cov), cov, RecoveryConfig(BASE_RHO))
    result = score_trees(tree, branching_skeleton(net.truth))
    _report(
        "criterion 7 (import-log path, 200 B / 30 ms settings)",
        round_trip_ok and result.p >= 0.95,
        f"round_trip={round_trip_ok}, p={result.p:.4f} >= 0.95 over {result.n_leaves} receivers",
    )


def test_criterion_8_accuracy_metric_oracle():
    rng = np.random.default_rng(808)

    def brute_force(recovered, truth, leaves):
        correct = 0
        for i in leaves:
            for j in leaves:
                for k in leaves:
                    correct += classify_triple(i, j, k, recovered, truth)
        return Fraction(correct, len(leaves) ** 3)

    pairs = 200
    mismatches = 0
    for _ in range(pairs):
        n = int(rng.integers(2, 7))
        t1, _ = random_truth_tree(rng, n)
        t2, _ = random_truth_tree(rng, n)
        leaves = sorted(t1.leaves)
        if score_trees(t1, t2, leaves).p != float(brute_force(t1, t2, leaves)):
            mismatches += 1
    _report(
        "criterion 8 (optimized accuracy == brute-force enumeration)",
        mismatches == 0,
        f"{pairs} random tree pairs (<= 6 leaves), {mismatches} mismatches",
    )
