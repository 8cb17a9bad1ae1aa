#!/usr/bin/env python3
"""Final test accuracy versus monetary spend, with baselines cost-matched.

For each eta on the grid, solve the selection plan, bisect each baseline's
eta so its total payment matches the plan's spend, train both, and emit one
CSV row per (eta, mechanism, seed). The resulting table is the data behind
an accuracy-vs-cost scatter.
"""

import argparse
import sys

from jsam.cli import (exit_code, probe_inputs, sample_costs, simulate_one,
                      write_output)
from jsam.config import from_dict, load, server_config
from jsam.flsim import initial_local_losses, make_plan, match_eta_to_cost

DEFAULTS = {
    "clients": 10,
    "costs": {"kind": "uniform", "lower": 0.1, "upper": 1.0},
    "train": {"rounds": 150, "per_round": 5, "similarity": 30},
    "task": {"feature_dim": 16, "classes": 5, "samples_per_client": 60,
             "test_size": 400},
    "payment_grid": 100,
}

HEADER = ("eta,mechanism,seed,matched_eta,total_payment,selected_count,"
          "final_test_accuracy,final_test_loss,diverged")


def run(cfg, etas, out):
    mechanisms = cfg.mechanisms
    dist = cfg.costs.build()
    lines = [HEADER]
    for eta in etas:
        for seed in cfg.seeds:
            costs = sample_costs(cfg, dist, seed)
            bbm_losses = (initial_local_losses(*probe_inputs(cfg, seed))
                          if "bbm" in mechanisms else None)
            anchor = make_plan("jsam", costs, dist,
                               server_config(cfg, eta=eta),
                               bbm_losses=bbm_losses,
                               payment_grid=cfg.payment_grid)
            for name in mechanisms:
                if name == "jsam":
                    used_eta = eta
                else:
                    def plan_at(e, _name=name):
                        return make_plan(_name, costs, dist,
                                         server_config(cfg, eta=e),
                                         bbm_losses=bbm_losses,
                                         payment_grid=cfg.payment_grid)

                    used_eta, _ = match_eta_to_cost(anchor.total_payment,
                                                    plan_at)
                record, plan = simulate_one(cfg, name, seed, eta=used_eta)
                lines.append(
                    f"{float(eta)!r},{name},{seed},{float(used_eta)!r},"
                    f"{float(plan.total_payment)!r},{plan.selected_count},"
                    f"{float(record.test_accuracy[-1])!r},"
                    f"{float(record.test_loss[-1])!r},{int(record.diverged)}")
    write_output("\n".join(lines) + "\n", out)


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
    parser.add_argument("--out", help="output CSV path (default stdout)")
    args = parser.parse_args(argv)

    mechanisms = [m.strip() for m in args.mechanism.split(",") if m.strip()]
    overrides = {"seeds": args.seeds, "mechanisms": mechanisms}

    def body():
        cfg = (load(args.config, **overrides) if args.config
               else from_dict(DEFAULTS, **overrides))
        run(cfg, args.eta, args.out)
        return 0

    return exit_code(body)


if __name__ == "__main__":
    sys.exit(main())
