"""Correctness checks on each op's output. An op whose output fails one is a failed op.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

SIMULATE_HEADER = ("run_id,mechanism,seed,s,eta,round,train_loss,test_loss,"
                   "test_accuracy,cumulative_monetary_cost")
SIMULATE_NUMERIC_COLUMNS = (2, 3, 4, 5, 6, 7, 8, 9)
SOLVE_TOLERANCE = 1e-9
IR_TOLERANCE = 1e-6


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _non_finite(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, list):
        return any(_non_finite(v) for v in value)
    if isinstance(value, dict):
        return any(_non_finite(v) for v in value.values())
    return False


def _reject_constant(token):
    raise ValueError(f"non-finite number {token}")


def check_solve(text: str) -> list[str]:
    """Plan JSON: finite, p on the simplex, budget identity, threshold structure, IR."""
    from jsam.mechanism import verify_structure

    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"plan is not finite JSON: {exc}"]
    if _non_finite(doc):
        return ["plan holds a non-finite number"]
    try:
        c = np.asarray(doc["sensitivities"], dtype=float)
        v = np.asarray(doc["virtual_costs"], dtype=float)
        p = np.asarray(doc["probabilities"], dtype=float)
        eps = np.asarray(doc["privacy_budgets"], dtype=float)
        pay = np.asarray(doc["payments"], dtype=float)
        budget = float(doc["total_budget"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"plan lacks a field or has a malformed one: {exc!r}"]
    if not c.size or not c.shape == v.shape == p.shape == eps.shape == pay.shape:
        return ["plan arrays are empty or differ in length"]
    problems = []
    if abs(p.sum() - 1.0) > SOLVE_TOLERANCE:
        problems.append(f"sum p = {p.sum()!r}, not 1")
    spend = float(np.sum(v * eps))
    if abs(spend - budget) > SOLVE_TOLERANCE * abs(budget):
        problems.append(f"sum v*eps = {spend!r} but total_budget = {budget!r}")
    order = np.argsort(v, kind="stable") + 1
    structure = verify_structure(p, order)
    if not structure.passed:
        problems.append(f"threshold structure broken: {structure.clause}")
    short = pay - c * eps
    if np.any(short < -IR_TOLERANCE):
        problems.append(f"payment below c*eps by {-short.min()!r}")
    return problems


def check_simulate(text: str, stderr: str, rounds: int, mechanism: str):
    """Run CSV: header, one finite row per round, constant cost, no divergence.

    Returns (problems, last-round test accuracy or None).
    """
    lines = text.split("\n")
    if lines[-1] != "":
        return ["CSV does not end with a newline"], None
    if lines[0] != SIMULATE_HEADER:
        return [f"CSV header is {lines[0]!r}"], None
    rows = [line.split(",") for line in lines[1:-1]]
    if len(rows) != rounds:
        return [f"{len(rows)} rows for {rounds} rounds"], None
    problems = []
    for t, row in enumerate(rows, start=1):
        if len(row) != 10:
            problems.append(f"row {t} has {len(row)} fields")
            break
        try:
            values = [float(row[j]) for j in SIMULATE_NUMERIC_COLUMNS]
        except ValueError:
            problems.append(f"row {t} has a non-numeric field")
            break
        if not all(math.isfinite(x) for x in values):
            problems.append(f"row {t} has a non-finite value")
            break
        if row[1] != mechanism or int(row[5]) != t:
            problems.append(f"row {t} names mechanism {row[1]!r}, round {row[5]!r}")
            break
    if problems:
        return problems, None
    if len({row[9] for row in rows}) != 1:
        problems.append("cumulative monetary cost is not constant")
    if "diverged" in stderr:
        problems.append("the run reported divergence")
    return problems, float(rows[-1][8])


def check_audit(text: str) -> list[str]:
    """Audit report: at least one line, and every line `ok`."""
    lines = text.splitlines()
    if not lines:
        return ["empty audit report"]
    return [f"audit line not ok: {line!r}" for line in lines
            if not line.startswith("ok: ")]
