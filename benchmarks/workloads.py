"""The benchmark's three closed-loop workloads.

One pass of a workload is a fixed list of ops, each one `jsam` command. The
ops of a pass are made from the workload seed and the pass number alone, so
the same seed gives the same inputs on every machine and every commit.

- plan-n100: `jsam solve` of mechanism jsam at N=100 on a uniform prior,
  alternating eta=1 (about one client selected) with eta=1000 (about 66).
  Nearly all time is `solve_profiles`, reached through the ex-post payment
  curves: many small (payment_grid x candidates) blocks.
- simulate-baselines: `jsam simulate` of usbm, fsbm-10 and bbm at N=100 on a
  truncated-Gaussian prior, 1000 rounds of 10 clients. Time goes to training
  and to the truncnorm virtual costs; the mechanism is a fixed-probability
  solve and `solve_profiles` is never called.
- audit-n3: `jsam audit` on the built-in N=3 config. One large
  `solve_profiles` batch (the interim curve), the only brute-force oracle
  traffic, and the interim payment and IC checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("plan-n100", "simulate-baselines", "audit-n3")

PLAN_ETAS = (1.0, 1000.0)
SIMULATE_MECHANISMS = ("usbm", "fsbm-10", "bbm")

# Sizes per scale. "tiny" only serves the benchmark's own smoke tests.
SIZES = {
    "full": {
        "plan": {"clients": 100, "payment_grid": 200},
        "simulate": {"clients": 100, "rounds": 1000, "per_round": 10,
                     "payment_grid": 200},
        "audit_config": None,  # the CLI's built-in N=3 config
    },
    "tiny": {
        "plan": {"clients": 8, "payment_grid": 12},
        "simulate": {"clients": 12, "rounds": 20, "per_round": 3,
                     "payment_grid": 8},
        # the built-in N=3 config with a coarse solver grid
        "audit_config": {
            "clients": 3,
            "server": {"eta": 1.0, "q_coefficient": 1.0, "grid_delta": 0.05},
            "train": {"rounds": 50, "per_round": 2},
            "task": {"samples_per_client": 20, "test_size": 50},
        },
    },
}


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: a `jsam` command line and what it must produce."""

    label: str
    kind: str                 # solve | simulate | audit
    argv: tuple
    out: Path
    config: Path | None = None
    rounds: int | None = None
    mechanism: str | None = None


def op_seeds(seed: int, pass_index: int, count: int) -> list[int]:
    """Distinct jsam seeds for the ops of one pass, fixed by (seed, pass)."""
    state = np.random.SeedSequence([seed, pass_index]).generate_state(count)
    return [int(s) % 2 ** 31 for s in state]


def _write_config(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def build_pass(workload: str, seed: int, pass_index: int, scale: str,
               workdir: Path) -> list[Op]:
    """Write the configs of one pass under `workdir` and return its ops."""
    size = SIZES[scale]
    tag = f"p{pass_index}"
    ops = []
    if workload == "plan-n100":
        for i, (eta, s) in enumerate(zip(PLAN_ETAS, op_seeds(seed, pass_index, 2))):
            doc = {
                "clients": size["plan"]["clients"],
                "costs": {"kind": "uniform", "lower": 0.0, "upper": 1.0},
                "server": {"eta": eta, "grid_delta": 1e-3},
                "payment_grid": size["plan"]["payment_grid"],
                "mechanisms": ["jsam"],
                "seeds": [s],
            }
            cfg = _write_config(workdir / f"{tag}-op{i}.json", doc)
            out = workdir / f"{tag}-op{i}-plan.json"
            ops.append(Op(f"solve jsam eta={eta:g} seed={s}", "solve",
                          ("solve", "--config", str(cfg), "--out", str(out)),
                          out, config=cfg))
    elif workload == "simulate-baselines":
        sim = size["simulate"]
        seeds = op_seeds(seed, pass_index, len(SIMULATE_MECHANISMS))
        for i, (mech, s) in enumerate(zip(SIMULATE_MECHANISMS, seeds)):
            doc = {
                "clients": sim["clients"],
                "costs": {"kind": "gaussian", "mean": 0.5, "std": 0.2,
                          "lower": 0.05, "upper": 1.0},
                "server": {"eta": 1000.0},
                "train": {"rounds": sim["rounds"], "per_round": sim["per_round"]},
                "payment_grid": sim["payment_grid"],
                "mechanisms": [mech],
                "seeds": [s],
            }
            cfg = _write_config(workdir / f"{tag}-op{i}.json", doc)
            out = workdir / f"{tag}-op{i}-run.csv"
            ops.append(Op(f"simulate {mech} seed={s}", "simulate",
                          ("simulate", "--config", str(cfg), "--out", str(out)),
                          out, config=cfg, rounds=sim["rounds"], mechanism=mech))
    elif workload == "audit-n3":
        (s,) = op_seeds(seed, pass_index, 1)
        out = workdir / f"{tag}-op0-audit.txt"
        argv = ("audit", "--seed", str(s), "--out", str(out))
        cfg = None
        if size["audit_config"] is not None:
            cfg = _write_config(workdir / f"{tag}-op0.json", size["audit_config"])
            argv = ("audit", "--config", str(cfg)) + argv[1:]
        ops.append(Op(f"audit seed={s}", "audit", argv, out, config=cfg))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def validate_configs(ops: list[Op]) -> None:
    """Load every generated config through jsam's strict loader; raises on a bad one."""
    from jsam.config import load

    for op in ops:
        if op.config is not None:
            load(op.config)
