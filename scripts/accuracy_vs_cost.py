#!/usr/bin/env python3
"""Final test accuracy versus monetary spend, with baselines cost-matched.

For each eta on the grid, solve the selection plan, bisect each baseline's
eta so its total payment matches the plan's spend, train both, and emit one
CSV row per (eta, mechanism, seed). The resulting table is the data behind
an accuracy-vs-cost scatter.
"""

import argparse
import sys

from jsam.cli import matched_spend_runs, run_command, write_output
from jsam.config import DESK, server_config

HEADER = ("eta,mechanism,seed,matched_eta,total_payment,selected_count,"
          "final_test_accuracy,final_test_loss,diverged")


def run(cfg, etas):
    for eta in etas:  # every eta is checked before the first plan
        server_config(cfg, eta=eta)
        if eta == 0:
            raise ValueError("eta must be > 0: a jsam plan at eta 0 pays nothing, "
                             "so there is no spend to match")
    lines = [HEADER]
    for eta in etas:
        for seed in cfg.seeds:
            for plan, record in matched_spend_runs(cfg, eta, seed):
                lines.append(
                    f"{float(eta)!r},{plan.kind},{seed},{float(plan.eta)!r},"
                    f"{float(plan.total_payment)!r},{plan.selected_count},"
                    f"{float(record.test_accuracy[-1])!r},"
                    f"{float(record.test_loss[-1])!r},{int(record.diverged)}")
    write_output("\n".join(lines) + "\n", cfg.out)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON experiment config "
                                         "(default: built-in desk scale)")
    parser.add_argument("--eta", type=float, nargs="+",
                        default=[30.0, 100.0, 300.0, 1000.0],
                        help="anchor eta grid for the jsam plan")
    parser.add_argument("--mechanism", default="jsam,usbm,fsbm-5,jsam_ci",
                        help="comma-separated mechanisms; non-jsam entries "
                             "are cost-matched to the jsam spend")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--out", help="output CSV path (default: the "
                                      "config's out, else stdout)")
    args = parser.parse_args(argv)
    mechanisms = [m.strip() for m in args.mechanism.split(",") if m.strip()]
    return run_command(lambda cfg: run(cfg, args.eta), args.config, DESK,
                       seeds=args.seeds, mechanisms=mechanisms, out=args.out)


if __name__ == "__main__":
    sys.exit(main())
