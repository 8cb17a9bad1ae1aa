#!/usr/bin/env python3
"""Plan-level quantities along an eta grid: selection, budgets, payments.

No training happens here; each row is a solved plan, so wide grids are
cheap. Use this to trace how the accuracy weight moves the mechanism from
concentrating on cheap clients to uniform selection.
"""

import argparse
import sys

import numpy as np

from jsam.cli import exit_code, sample_costs, write_output
from jsam.config import from_dict, load, server_config
from jsam.flsim import make_plan

DEFAULTS = {
    "clients": 10,
    "costs": {"kind": "uniform", "lower": 0.1, "upper": 1.0},
    "train": {"rounds": 150, "per_round": 5, "similarity": 30},
    "task": {"feature_dim": 16, "classes": 5, "samples_per_client": 60,
             "test_size": 400},
    "payment_grid": 100,
}

HEADER = ("eta,seed,selected_count,threshold,total_budget,total_payment,"
          "objective,min_selected_eps,max_selected_eps,degenerate")


def run(cfg, etas, out):
    dist = cfg.costs.build()
    lines = [HEADER]
    for eta in etas:
        for seed in cfg.seeds:
            costs = sample_costs(cfg, dist, seed)
            plan = make_plan("jsam", costs, dist,
                             server_config(cfg, eta=eta),
                             payment_grid=cfg.payment_grid)
            selected = plan.epsilons[plan.epsilons > 0]
            eps_lo = float(selected.min()) if selected.size else 0.0
            eps_hi = float(selected.max()) if selected.size else 0.0
            lines.append(
                f"{float(eta)!r},{seed},{plan.selected_count},"
                f"{plan.threshold},{float(plan.total_budget)!r},"
                f"{float(plan.total_payment)!r},{float(plan.objective)!r},"
                f"{eps_lo!r},{eps_hi!r},{int(plan.degenerate)}")
    write_output("\n".join(lines) + "\n", out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON experiment config "
                                         "(default: built-in desk scale)")
    parser.add_argument("--eta", type=float, nargs="+",
                        default=list(np.geomspace(1.0, 1e5, 21)))
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--out", help="output CSV path (default stdout)")
    args = parser.parse_args(argv)

    def body():
        cfg = (load(args.config, seeds=args.seeds) if args.config
               else from_dict(DEFAULTS, seeds=args.seeds))
        run(cfg, args.eta, args.out)
        return 0

    return exit_code(body)


if __name__ == "__main__":
    sys.exit(main())
