"""Config-driven command line: solve plans, simulate training, audit, sweep."""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import audit, seeding
from .config import ConfigError, ExperimentConfig, from_dict, load, server_config
from .flsim import (RunRecord, SelectionPlan, build_schedule,
                    initial_local_losses, make_plan, make_task,
                    match_eta_to_cost, partition_noniid, train)
from .payments import interim_allocation


def sample_costs(cfg: ExperimentConfig, seed):
    """The clients' sensitivities: `cfg.sensitivities` if given, else drawn
    from the config's prior with the seed's cost stream, the same for every
    command and script."""
    if cfg.sensitivities is not None:
        return np.asarray(cfg.sensitivities, dtype=float)
    rng = seeding.derive(seed, seeding.COSTS)
    return cfg.prior.sample(rng, size=cfg.clients)


def probe_inputs(cfg: ExperimentConfig, seed):
    """The seed's (task, client shards, initial weights): bbm's probe and training."""
    task = make_task(cfg.task.feature_dim, cfg.task.classes,
                     cfg.clients * cfg.task.samples_per_client,
                     cfg.task.test_size, cfg.task.samples_per_client,
                     seeding.derive(seed, seeding.TASK))
    shards = partition_noniid(task, cfg.clients, cfg.train.similarity,
                              seeding.derive(seed, seeding.PARTITION))
    w0 = seeding.derive(seed, seeding.INIT).normal(0.0, 0.01,
                                                   size=cfg.task.weight_dim)
    return task, shards, w0


def plan_for(cfg: ExperimentConfig, name, seed, eta=None, probe=None) -> SelectionPlan:
    """Mechanism `name`'s plan for the seed's costs at accuracy weight `eta`
    (default: the config's). bbm's probe losses come from `probe`, the
    seed's `probe_inputs`, built here if bbm needs it and none is given."""
    bbm_losses = None
    if name == "bbm":
        bbm_losses = initial_local_losses(*(probe or probe_inputs(cfg, seed)))
    return make_plan(name, sample_costs(cfg, seed), cfg.prior,
                     server_config(cfg, eta=eta), bbm_losses=bbm_losses,
                     payment_grid=cfg.payment_grid)


def train_under(cfg: ExperimentConfig, plan: SelectionPlan, seed, probe) -> RunRecord:
    """Train under `plan`, whose eta must be > 0, on the seed's `probe_inputs`."""
    if plan.degenerate:
        raise ConfigError("eta must be > 0 to simulate")
    task, shards, w0 = probe
    tag = seeding.mechanism_tag(plan.kind)
    schedule = build_schedule(plan.probabilities, cfg.train.rounds,
                              cfg.train.per_round,
                              seeding.derive(seed, seeding.SCHEDULE, tag))
    run_id = f"{plan.kind}-s{cfg.train.similarity}-eta{plan.eta:g}-seed{seed}"
    return train(task, shards, plan, schedule, cfg.train,
                 seeding.derive(seed, seeding.NOISE, tag), w0=w0,
                 run_id=run_id, seed=seed)


def simulate_one(cfg: ExperimentConfig, name, seed, eta=None):
    """(RunRecord, SelectionPlan) of mechanism `name` for one seed at accuracy
    weight `eta`: the loop body of `jsam simulate` and `jsam sweep`."""
    probe = probe_inputs(cfg, seed)
    plan = plan_for(cfg, name, seed, eta, probe)
    return train_under(cfg, plan, seed, probe), plan


def matched_spend_runs(cfg: ExperimentConfig, eta, seed):
    """(SelectionPlan, RunRecord) of each of the config's mechanisms for one
    seed, all at the spend of jsam's plan at `eta`.

    Every other mechanism's eta is bisected until its total payment matches
    jsam's (`match_eta_to_cost`); its plan's `eta` is the matched one, and a
    miss beyond the bisection's tolerance is one `warning:` line on stderr.
    Each mechanism is trained once, under the plan it was matched with.
    """
    probe = probe_inputs(cfg, seed)
    anchor = plan_for(cfg, "jsam", seed, eta, probe)
    target, rel_tol = anchor.total_payment, 1e-3
    plans = [anchor if name == "jsam" else match_eta_to_cost(
        target, functools.partial(plan_for, cfg, name, seed, probe=probe),
        rel_tol)[1] for name in cfg.mechanisms]
    for name, plan in zip(cfg.mechanisms, plans):
        if abs(plan.total_payment - target) > rel_tol * target:
            print(f"warning: {name} seed {seed}: matched spend {plan.total_payment!r}"
                  f" misses the target {target!r}", file=sys.stderr)
    return [(plan, train_under(cfg, plan, seed, probe)) for plan in plans]


def write_output(text, path):
    """Write `text` to `path`, or to stdout if it is None; a ValueError if unwritable."""
    if path is None:
        sys.stdout.write(text)
    else:
        _write(path, text, "w")


def _write(path, text, mode):
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path!r}: {exc.strerror}") from None


def cmd_solve(cfg: ExperimentConfig) -> int:
    seed, name = cfg.seeds[0], cfg.mechanisms[0]
    costs, scfg = sample_costs(cfg, seed), server_config(cfg)
    plan = plan_for(cfg, name, seed)
    doc = {
        "mechanism": name,
        "seed": seed,
        "eta": scfg.eta,
        "q_coefficient": scfg.q_coefficient,
        "sensitivities": [float(c) for c in costs],
        "virtual_costs": [float(v) for v in np.atleast_1d(cfg.prior.virtual(costs))],
        "probabilities": [float(x) for x in plan.probabilities],
        "privacy_budgets": [float(x) for x in plan.epsilons],
        "payments": [float(x) for x in plan.payments],
        "total_payment": plan.total_payment,
        "total_budget": plan.total_budget,
        "threshold": plan.threshold,
        "objective_value": plan.objective,
        "selected_count": plan.selected_count,
        "degenerate": plan.degenerate,
    }
    write_output(json.dumps(doc, indent=2, sort_keys=True) + "\n", cfg.out)
    return 0


def cmd_simulate(cfg: ExperimentConfig) -> int:
    lines = [RunRecord.CSV_HEADER]
    for name in cfg.mechanisms:
        for seed in cfg.seeds:
            record, _ = simulate_one(cfg, name, seed)
            if record.diverged:
                print(f"warning: run {record.run_id} diverged", file=sys.stderr)
            lines.extend(record.rows())
    write_output("\n".join(lines) + "\n", cfg.out)
    return 0


def cmd_sweep(cfg: ExperimentConfig) -> int:
    if not cfg.eta_grid:
        raise ConfigError("eta_grid is required for sweep")
    header = ("eta,mechanism,seed,total_budget,total_payment,selected_count,"
              "final_test_accuracy,final_test_loss")
    lines = [header]
    for eta in cfg.eta_grid:
        for name in cfg.mechanisms:
            for seed in cfg.seeds:
                record, plan = simulate_one(cfg, name, seed, eta=eta)
                lines.append(
                    f"{float(eta)!r},{name},{seed},{float(plan.total_budget)!r},"
                    f"{float(plan.total_payment)!r},{plan.selected_count},"
                    f"{float(record.test_accuracy[-1])!r},"
                    f"{float(record.test_loss[-1])!r}")
    write_output("\n".join(lines) + "\n", cfg.out)
    return 0


def cmd_audit(cfg: ExperimentConfig) -> int:
    if cfg.clients > 4:
        raise ConfigError("clients must be <= 4 for audit (oracle guard)")
    seed, dist, scfg = cfg.seeds[0], cfg.prior, server_config(cfg)
    instances = [(dist.virtual(dist.sample(seeding.derive(seed, seeding.COSTS, 10 + i),
                                           size=cfg.clients)), scfg) for i in range(3)]
    mc_seed = int(seeding.derive(seed, seeding.INTERIM).integers(2 ** 31))
    interim = interim_allocation(1, dist, cfg.clients, scfg, grid_size=60,
                                 samples=600, seed=mc_seed)
    rng = seeding.derive(seed, seeding.COSTS, 99)
    lo, hi = interim.grid[0], interim.grid[-1]
    draws = [(rng.uniform(lo, hi), rng.uniform(lo, hi, size=10)) for _ in range(10)]
    verdicts = [audit.budget_identity(seeding.derive(seed, seeding.COSTS)),
                audit.grid_vs_brute_force(instances),
                audit.interim_monotone(interim),
                *audit.truthfulness(interim, *zip(*draws)),
                audit.noise_calibration(seeding.derive(seed, seeding.COSTS, 7),
                                        cfg.train.delta, cfg.train.c2)]
    write_output("".join(f"{'ok' if v.passed else 'FAIL'}: {v.name} (measured "
                         f"{v.measured:.3e}, tolerance {v.tolerance:.3e})\n"
                         for v in verdicts), cfg.out)
    return 0 if all(v.passed for v in verdicts) else 1


_AUDIT_DEFAULT = {"clients": 3, "server": {"eta": 1.0, "q_coefficient": 1.0}}


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="jsam",
        description="Joint client selection and privacy compensation for DP-FL")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [("solve", "write the mechanism plan"),
                           ("simulate", "train under each mechanism and seed"),
                           ("audit", "run the self-check suite"),
                           ("sweep", "solve and train along an eta grid")]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, help="override the seed list")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--mechanism", help="comma-separated mechanism list")
    return parser.parse_args(argv)


def run_command(command, config_path, default=None, **overrides) -> int:
    """The entry of `jsam` and the scripts: build the config from the file at
    `config_path`, else from the `default` dict, with the `overrides` that are
    not None (the command's flags) applied; reject an unwritable `out` before
    any work; return `command(cfg)`'s exit code. A ConfigError or ValueError
    becomes one `config error:` or `error:` line on stderr and exit code 2."""
    try:
        if config_path is not None:
            cfg = load(config_path, **overrides)
        elif default is not None:
            cfg = from_dict(default, **overrides)
        else:
            raise ConfigError("--config is required")
        if cfg.out is not None:
            # a missing file is created empty; an existing one keeps its content
            _write(cfg.out, "", "a")
        return command(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    args = _parse_args(argv)
    mechanisms = (None if args.mechanism is None else
                  [m.strip() for m in args.mechanism.split(",") if m.strip()])
    handler = {"solve": cmd_solve, "simulate": cmd_simulate,
               "audit": cmd_audit, "sweep": cmd_sweep}[args.command]
    return run_command(handler, args.config,
                       _AUDIT_DEFAULT if args.command == "audit" else None,
                       seeds=None if args.seed is None else [args.seed],
                       mechanisms=mechanisms, out=args.out)


if __name__ == "__main__":
    sys.exit(main())
