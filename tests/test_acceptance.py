"""Acceptance gate: eight pinned criteria, one printed verdict line each.

Each test records a single PASS/FAIL line (echoed in the terminal summary
by conftest, where pytest does not capture) and asserts the same condition,
so the gate reads cleanly in both the console and the test report.
Tolerances and wall-clock limits are pinned in the assertions.
"""

import json
import math
import time

import numpy as np

from jsam.audit import (budget_identity, grid_vs_brute_force,
                        interim_monotone, truthfulness)
from jsam.cli import main, matched_spend_runs, plan_for
from jsam.config import DESK, from_dict
from jsam.costs import UniformCosts
from jsam.flsim import noise_sigma
from jsam.mechanism import ServerConfig, optimal_epsilon
from jsam.oracle import lagrangian_budget_split
from jsam.payments import interim_allocation

VERDICTS = []


def _verdict(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    VERDICTS.append(line)
    print(line)
    assert ok, line


def test_criterion_1_closed_form_matches_independent_minimizer():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    dist = UniformCosts(0.0, 1.0)
    by_n = {}
    for _ in range(200):
        n = int(rng.integers(1, 7))
        by_n.setdefault(n, []).append(
            (rng.dirichlet(np.ones(n)),
             np.atleast_1d(dist.virtual(rng.uniform(0.0, 1.0, n))),
             float(rng.uniform(0.1, 10.0))))
    worst = 0.0
    for n, items in by_n.items():
        p = np.array([it[0] for it in items])
        v = np.array([it[1] for it in items])
        b = np.array([it[2] for it in items])
        _, oracle_obj = lagrangian_budget_split(p, v, b)
        eps = optimal_epsilon(p, b[:, None], v)
        closed = np.where(p > 0, p * p / np.where(eps > 0, eps, 1.0) ** 2,
                          0.0).sum(axis=1)
        worst = max(worst, float(np.max(np.abs(oracle_obj - closed) / closed)))
    took = time.perf_counter() - t0
    ok = worst <= 1e-6 and took < 10.0
    _verdict(1, ok, "closed-form budget split vs independent Lagrangian "
                    f"minimizer, 200 instances, max rel objective gap "
                    f"{worst:.2e} (tol 1e-6), {took:.1f}s (limit 10s)")


def test_criterion_2_grid_solver_matches_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    dist = UniformCosts(0.0, 1.0)
    instances = []
    for _ in range(50):
        n = int(rng.integers(2, 5))
        costs = rng.uniform(0.02, 0.98, n)
        eta = float(rng.uniform(0.2, 5.0))
        cfg = ServerConfig(eta=eta, q_coefficient=1.0, grid_delta=1e-3)
        instances.append((dist.virtual(costs), cfg))
    verdict = grid_vs_brute_force(instances)
    took = time.perf_counter() - t0
    ok = verdict.passed and took < 300.0
    _verdict(2, ok, "grid solver vs simplex brute force, 50 instances "
                    f"(N in 2..4, g=0.01), worst gap/tolerance "
                    f"{verdict.measured:.3f} (tol 1, structure verified), "
                    f"{took:.0f}s (limit 300s)")


def test_criterion_3_truthfulness_audit():
    t0 = time.perf_counter()
    dist = UniformCosts(0.0, 1.0)
    cfg = ServerConfig(eta=1.0, q_coefficient=1.0, grid_delta=1e-3)
    interim = interim_allocation(1, dist, 3, cfg, grid_size=200,
                                 samples=2000, seed=31)
    rng = np.random.default_rng(1003)
    lo, hi = float(interim.grid[0]), float(interim.grid[-1])
    draws = [(float(rng.uniform(lo, hi)), rng.uniform(lo, hi, 20))
             for _ in range(100)]
    ic, ir = truthfulness(interim, *zip(*draws))
    took = time.perf_counter() - t0
    ok = ic.passed and ir.passed and took < 600.0
    _verdict(3, ok, "truthfulness audit, 100 costs x 20 misreports, worst IC "
                    f"gain {ic.measured:.2e} (tol 3/sqrt(S)+quadrature="
                    f"{ic.tolerance:.4f}), worst IR shortfall "
                    f"{ir.measured:.2e} (tol 1e-6), {took:.0f}s (limit 600s)")


def test_criterion_4_interim_allocation_weakly_decreasing():
    dist = UniformCosts(0.0, 1.0)
    cfg = ServerConfig(eta=1.0, q_coefficient=1.0, grid_delta=1e-3)
    interim = interim_allocation(1, dist, 3, cfg, grid_size=50,
                                 samples=2000, seed=41)
    verdict = interim_monotone(interim)
    _verdict(4, verdict.passed, "interim allocation weakly decreasing on a "
                                f"50-point grid, max increase "
                                f"{verdict.measured:.2e} (tol 3/sqrt(S)="
                                f"{verdict.tolerance:.4f})")


def test_criterion_5_budget_identity_in_bulk():
    t0 = time.perf_counter()
    verdict = budget_identity(np.random.default_rng(1005))
    took = time.perf_counter() - t0
    ok = verdict.passed and took < 1.0
    _verdict(5, ok, "spend identity sum(v*eps)=B on 10^4 random triples, "
                    f"max rel err {verdict.measured:.2e} (tol 1e-9), "
                    f"{took:.3f}s (limit 1s)")


def test_criterion_6_noise_calibration_exact():
    sigma = noise_sigma(100, 1.0, 1e-5, 1.0)
    exact = sigma == math.sqrt(100.0 * math.log(1e5))
    worst = 0.0
    for t_k in (1, 25, 100, 10_000):
        base = noise_sigma(t_k, 1.0, 1e-5, 1.0)
        for k in (2.0, 3.0, 7.0):
            grown = noise_sigma(int(t_k * k * k), 1.0, 1e-5, 1.0)
            worst = max(worst, abs(grown - k * base) / (k * base))
        for e in (0.01, 0.5, 2.0, 300.0):
            worst = max(worst, abs(noise_sigma(t_k, e, 1e-5, 1.0) * e - base)
                        / base)
    ok = exact and worst <= 5e-15
    _verdict(6, ok, "sigma(100,1,1e-5,1)=sqrt(100 ln 1e5) exactly "
                    f"({sigma!r}), sqrt(T_k) and 1/eps scaling max rel err "
                    f"{worst:.2e} (tol 5e-15)")


_ETA_LOW = 30.0
_ETA_HIGH = 1e5
_ETA_GRID = (30.0, 100.0, 300.0, 1000.0, 3000.0, 10_000.0, 30_000.0, 1e5)
_SEEDS = (0, 1, 2, 3, 4)


def test_criterion_7_desk_scale_directional_checks():
    t0 = time.perf_counter()
    cfg = from_dict(DESK, mechanisms=["jsam", "usbm"])

    gaps = {}
    for eta in (_ETA_LOW, _ETA_HIGH):
        # per seed: (jsam, usbm) accuracies, usbm at jsam's spend
        pairs = [[record.test_accuracy[-1]
                  for _, record in matched_spend_runs(cfg, eta, s)]
                 for s in _SEEDS]
        jsam_mean = float(np.mean([a for a, _ in pairs]))
        usbm_mean = float(np.mean([b for _, b in pairs]))
        gaps[eta] = jsam_mean - usbm_mean
    low_ok = gaps[_ETA_LOW] >= 0.02
    high_ok = abs(gaps[_ETA_HIGH]) <= 0.015

    count_ok = payment_ok = True
    for seed in _SEEDS:
        plans = [plan_for(cfg, "jsam", seed, eta) for eta in _ETA_GRID]
        counts = [p.selected_count for p in plans]
        pays = [p.total_payment for p in plans]
        count_ok &= all(a <= b for a, b in zip(counts, counts[1:]))
        payment_ok &= all(a <= b * (1 + 1e-9)
                          for a, b in zip(pays, pays[1:]))

    took = time.perf_counter() - t0
    ok = low_ok and high_ok and count_ok and payment_ok and took < 1800.0
    _verdict(7, ok, "desk-scale directional checks: low-eta matched-cost "
                    f"gap {gaps[_ETA_LOW] * 100:+.1f}pts (need >= +2), "
                    f"high-eta gap {gaps[_ETA_HIGH] * 100:+.2f}pts "
                    f"(need |.| <= 1.5), selected count monotone={count_ok}, "
                    f"total payment monotone={payment_ok}, {took:.0f}s "
                    f"(limit 1800s)")


def test_criterion_8_byte_identical_reruns(tmp_path):
    doc = {
        "clients": 3,
        "costs": {"kind": "uniform", "lower": 0.1, "upper": 1.0},
        "server": {"eta": 1.0, "q_coefficient": 1.0, "grid_delta": 1e-2},
        "train": {"rounds": 8, "per_round": 2},
        "task": {"feature_dim": 4, "classes": 3, "samples_per_client": 12,
                 "test_size": 30},
        "mechanisms": ["jsam", "usbm"],
        "seeds": [0, 1],
        "payment_grid": 30,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    outs = {}
    for cmd in ("solve", "simulate"):
        pair = []
        for tag in ("a", "b"):
            out = tmp_path / f"{cmd}-{tag}"
            assert main([cmd, "--config", str(cfg_path),
                         "--out", str(out)]) == 0
            pair.append(out.read_bytes())
        outs[cmd] = pair[0] == pair[1]
    ok = outs["solve"] and outs["simulate"]
    _verdict(8, ok, "repeated runs byte-identical: plan file "
                    f"match={outs['solve']}, run record match="
                    f"{outs['simulate']}")
