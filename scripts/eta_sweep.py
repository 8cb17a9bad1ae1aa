#!/usr/bin/env python3
"""Plan-level quantities along an eta grid: selection, budgets, payments.

No training happens here; each row is a solved plan, so wide grids are
cheap. Use this to trace how the accuracy weight moves the mechanism from
concentrating on cheap clients to uniform selection.
"""

import argparse
import sys

import numpy as np

from jsam.cli import check_writable, exit_code, plan_for, write_output
from jsam.config import DESK, from_dict, load

HEADER = ("eta,seed,selected_count,threshold,total_budget,total_payment,"
          "objective,min_selected_eps,max_selected_eps,degenerate")


def run(cfg, etas, out):
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
               else from_dict(DESK, seeds=args.seeds))
        check_writable(args.out)
        run(cfg, args.eta, args.out)
        return 0

    return exit_code(body)


if __name__ == "__main__":
    sys.exit(main())
