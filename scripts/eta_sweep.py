#!/usr/bin/env python3
"""Plan-level quantities along an eta grid: selection, budgets, payments.

No training happens here; each row is a solved plan, so wide grids are
cheap. Use this to trace how the accuracy weight moves the mechanism from
concentrating on cheap clients to uniform selection.
"""

import argparse
import sys

import numpy as np

from jsam.cli import plan_for, run_command, write_output
from jsam.config import DESK, server_config

HEADER = ("eta,seed,selected_count,threshold,total_budget,total_payment,"
          "objective,min_selected_eps,max_selected_eps,degenerate")


def run(cfg, etas):
    for eta in etas:  # every eta is checked before the first plan
        server_config(cfg, eta=eta)
    lines = [HEADER]
    for eta in etas:
        for seed in cfg.seeds:
            plan = plan_for(cfg, "jsam", seed, eta)
            selected = plan.epsilons[plan.epsilons > 0]
            eps_lo = float(selected.min()) if selected.size else 0.0
            eps_hi = float(selected.max()) if selected.size else 0.0
            lines.append(
                f"{float(eta)!r},{seed},{plan.selected_count},"
                f"{plan.threshold},{float(plan.total_budget)!r},"
                f"{float(plan.total_payment)!r},{float(plan.objective)!r},"
                f"{eps_lo!r},{eps_hi!r},{int(plan.degenerate)}")
    write_output("\n".join(lines) + "\n", cfg.out)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON experiment config "
                                         "(default: built-in desk scale)")
    parser.add_argument("--eta", type=float, nargs="+",
                        default=list(np.geomspace(1.0, 1e5, 21)))
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--out", help="output CSV path (default: the "
                                      "config's out, else stdout)")
    args = parser.parse_args(argv)
    return run_command(lambda cfg: run(cfg, args.eta), args.config, DESK,
                       seeds=args.seeds, out=args.out)


if __name__ == "__main__":
    sys.exit(main())
