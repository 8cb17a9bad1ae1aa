#!/usr/bin/env python3
"""Final test accuracy versus monetary spend, with baselines cost-matched.

For each eta on the grid, solve the selection plan, bisect each baseline's
eta so its total payment matches the plan's spend, train both, and emit one
CSV row per (eta, mechanism, seed). The resulting table is the data behind
an accuracy-vs-cost scatter.
"""

import argparse
import sys

from jsam.cli import probe_inputs, sample_costs, simulate_one
from jsam.config import from_dict, load, server_config, validate
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


def run(cfg, etas, mechanisms, out):
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
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


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

    cfg = load(args.config) if args.config else from_dict(dict(DEFAULTS))
    cfg.seeds = args.seeds
    validate(cfg)
    mechanisms = [m.strip() for m in args.mechanism.split(",") if m.strip()]
    run(cfg, args.eta, mechanisms, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
