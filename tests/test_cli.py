"""End-to-end command line behavior, exercised in process via main(argv)."""

import dataclasses
import json
import os
import subprocess
import sys
import typing
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import jsam
from jsam import audit, cli, config
from jsam.cli import main
from jsam.costs import TruncatedGaussianCosts
from jsam.mechanism import verify_structure

SMALL_SIM = {
    "clients": 3,
    "costs": {"kind": "uniform", "lower": 0.1, "upper": 1.0},
    "server": {"eta": 1.0, "q_coefficient": 1.0, "grid_delta": 1e-2},
    "train": {"rounds": 8, "per_round": 2},
    "task": {"feature_dim": 4, "classes": 3, "samples_per_client": 12,
             "test_size": 30},
    "mechanisms": ["jsam"],
    "seeds": [0],
    "payment_grid": 30,
}


def _write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _child_env():
    """The environment of a child Python that imports the package this test
    imported, installed or not."""
    src = str(Path(jsam.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _solve_json(tmp_path, doc, extra=()):
    path = _write_cfg(tmp_path, doc)
    out = tmp_path / "solve.json"
    rc = main(["solve", "--config", path, "--out", str(out), *extra])
    assert rc == 0
    return json.loads(out.read_text())


# ---------------------------------------------------------------------------
# solve


def test_solve_single_client_takes_everything(tmp_path):
    doc = dict(SMALL_SIM, clients=1, sensitivities=[0.4])
    got = _solve_json(tmp_path, doc)
    assert got["probabilities"] == [1.0]
    assert got["selected_count"] == 1
    assert got["sensitivities"] == [0.4]
    spend = sum(v * e for v, e in
                zip(got["virtual_costs"], got["privacy_budgets"]))
    assert spend == pytest.approx(got["total_budget"], rel=1e-9)


def test_solve_output_respects_the_selection_structure(tmp_path):
    doc = dict(SMALL_SIM, clients=10)
    got = _solve_json(tmp_path, doc)
    p = np.array(got["probabilities"])
    order = np.argsort(np.array(got["virtual_costs"]), kind="stable") + 1
    report = verify_structure(p, order, tol=1e-2 + 1e-9)
    assert report.passed, report.clause
    assert got["threshold"] == report.threshold
    assert got["selected_count"] == int(np.sum(p > 0))


def test_solve_writes_to_stdout_without_out(tmp_path, capsys):
    path = _write_cfg(tmp_path, dict(SMALL_SIM, clients=2))
    assert main(["solve", "--config", path]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["mechanism"] == "jsam"
    assert len(got["probabilities"]) == 2


def test_seed_flag_changes_the_sampled_costs(tmp_path):
    a = _solve_json(tmp_path, SMALL_SIM, extra=("--seed", "0"))
    b = _solve_json(tmp_path, SMALL_SIM, extra=("--seed", "1"))
    assert a["sensitivities"] != b["sensitivities"]
    assert b["seed"] == 1


# ---------------------------------------------------------------------------
# config errors


def test_negative_eta_is_a_config_error(tmp_path, capsys):
    doc = dict(SMALL_SIM, server={"eta": -1.0, "q_coefficient": 1.0})
    path = _write_cfg(tmp_path, doc)
    assert main(["solve", "--config", path]) == 2
    assert "eta" in capsys.readouterr().err


@pytest.mark.parametrize("patch, message", [
    ({"costs": {"kind": "uniform", "lower": -1.0}},
     "costs: support lower bound must be >= 0"),
    ({"costs": {"kind": "x"}}, "costs.kind must be uniform or gaussian, got 'x'"),
    ({"costs": {"kind": "gaussian", "std": 0.0}}, "costs: std must be positive"),
    ({"server": {"eta": 1.0, "grid_delta": 2.0}},
     "server: grid_delta must lie in (0, 1]"),
    ({"server": {"eta": -1.0}}, "server: eta must be >= 0"),
    ({"train": {"delta": 2.0}}, "train.delta must lie in (0, 1)"),
])
def test_out_of_range_config_value_is_one_config_error_line(tmp_path, capsys,
                                                             patch, message):
    # the cost prior and ServerConfig check these ranges; validation builds both
    path = _write_cfg(tmp_path, dict(SMALL_SIM, **patch))
    assert main(["solve", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


@pytest.mark.parametrize("patch, field", [
    ({"path": "/tmp/x"}, "path"),
    ({"server": {"objective_form": "exact_l1"}}, "server.objective_form"),
    ({"server": {"smoothness": 1.0}}, "server.smoothness"),
    ({"task": {"center_spread": 2.5}}, "task.center_spread"),
    ({"task": {"noise": 1.0}}, "task.noise"),
])
def test_unknown_config_field_is_named(tmp_path, capsys, patch, field):
    path = _write_cfg(tmp_path, dict(SMALL_SIM, **patch))
    assert main(["solve", "--config", path]) == 2
    assert f"unknown field {field!r}" in capsys.readouterr().err


def _leaf_fields(cls=config.ExperimentConfig, path=""):
    """(dotted name, declared type) of each settable config value."""
    for name, hint in typing.get_type_hints(cls).items():
        if dataclasses.is_dataclass(hint):
            yield from _leaf_fields(hint, f"{path}{name}.")
        else:
            yield path + name, hint


def _wrong_type_patch(name, hint):
    """A config patch that sets field `name` to a value of the wrong JSON type."""
    value = 5 if str in (hint, *typing.get_args(hint)) else "x"
    for key in reversed(name.split(".")):
        value = {key: value}
    return value


@pytest.mark.parametrize("patch, field", [
    ({"server": {"eta": "1"}}, "server.eta"),
    ({"clients": True}, "clients"),
    ({"train": {"rounds": 2.5}}, "train.rounds"),
    ({"costs": {"kind": "uniform", "upper": False}}, "costs.upper"),
    ({"server": {"q_coefficient": "2"}}, "server.q_coefficient"),
    ({"server": {"eta": float("inf"), "q_coefficient": 1.0}}, "server.eta"),
    ({"eta_grid": [1.0, float("nan")]}, "eta_grid"),
    ({"seeds": [True]}, "seeds"),
    ({"seeds": 0}, "seeds"),
    ({"mechanisms": [1]}, "mechanisms"),
    ({"sensitivities": [0.2, "0.5", 0.9]}, "sensitivities"),
    # one wrong-typed value for each field the config declares
    *[(_wrong_type_patch(name, hint), name) for name, hint in _leaf_fields()],
    # a JSON integer beyond float range, in an integer and in a float field
    ({"clients": 10 ** 400}, "clients"),
    ({"server": {"eta": 10 ** 400}}, "server.eta"),
])
def test_wrongly_typed_config_value_is_named(tmp_path, capsys, patch, field):
    path = _write_cfg(tmp_path, dict(SMALL_SIM, **patch))
    assert main(["solve", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {field} must be"), captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("patch, message", [
    ({"eta_grid": [1.0, float("nan")]},
     "eta_grid must be a list of finite numbers or null, got [1.0, nan]"),
    ({"sensitivities": [0.2, "0.5", 0.9]},
     "sensitivities must be a list of finite numbers or null, got [0.2, '0.5', 0.9]"),
    ({"train": {"noiseless": 1}}, "train.noiseless must be true or false, got 1"),
    ({"out": 5}, "out must be a string or null, got 5"),
    ({"costs": {"kind": 5}}, "costs.kind must be a string, got 5"),
])
def test_type_error_names_the_declared_type_and_the_value(tmp_path, capsys,
                                                          patch, message):
    path = _write_cfg(tmp_path, dict(SMALL_SIM, **patch))
    assert main(["solve", "--config", path]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_malformed_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["solve", "--config", str(path)]) == 2
    assert "JSON" in capsys.readouterr().err


def test_undecodable_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["solve", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: config is not valid JSON")


def test_non_object_config_root_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[]")
    assert main(["solve", "--config", str(path), "--seed", "1"]) == 2
    assert capsys.readouterr().err == "config error: config root must be an object\n"


def test_bare_fsbm_is_rejected(tmp_path, capsys):
    path = _write_cfg(tmp_path, SMALL_SIM)
    assert main(["solve", "--config", path, "--mechanism", "fsbm"]) == 2
    assert "fsbm" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_fsbm_subset_larger_than_the_population_is_rejected_before_work(
        tmp_path, capsys, no_work, command):
    doc = dict(SMALL_SIM, clients=4, mechanisms=["usbm", "fsbm-5"], eta_grid=[1.0])
    out = tmp_path / "out.csv"
    assert main([command, "--config", _write_cfg(tmp_path, doc),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: mechanisms: fsbm subset "
                                       "larger than the client count\n")
    assert not out.exists()


def test_missing_config_is_an_error(capsys):
    assert main(["solve"]) == 2
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("name, reason", [("missing.json", "No such file"),
                                          (".", "Is a directory")])
def test_unreadable_config_is_one_config_error_line(tmp_path, capsys, name, reason):
    path = str(tmp_path / name)
    assert main(["solve", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot read config {path!r}")
    assert reason in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "simulate", "sweep"])
def test_unwritable_out_is_one_error_line(tmp_path, capsys, no_work, command):
    path = _write_cfg(tmp_path, dict(SMALL_SIM, clients=2, eta_grid=[1.0]))
    out = str(tmp_path / "missing" / "plan.json")
    assert main([command, "--config", path, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out!r}: No such file or directory\n"


def test_out_is_kept_when_the_work_fails(tmp_path, no_work):
    # --out is checked before the work, but written only after it succeeds
    out = tmp_path / "out.csv"
    out.write_text("earlier results\n")
    with pytest.raises(AssertionError, match="work ran"):
        main(["simulate", "--config", _write_cfg(tmp_path, SMALL_SIM),
              "--out", str(out)])
    assert out.read_text() == "earlier results\n"


@pytest.mark.parametrize("mechanism", ["jsam", "usbm"])
def test_underflowing_costs_are_one_error_line(tmp_path, capsys, mechanism):
    # at costs near 1e-200 the noise coefficient Q*c underflows to 0, and a
    # plan priced from it would carry NaN payments
    doc = {"clients": 5, "server": {"eta": 1.0},
           "costs": {"kind": "uniform", "lower": 0.0, "upper": 1e-200}}
    path = _write_cfg(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--config", path, "--mechanism", mechanism]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: noise coefficient")
    assert captured.err.count("\n") == 1


def test_irregular_cost_prior_is_a_named_config_error(tmp_path, capsys):
    # a mean far above the support leaves the truncated density at 0 there
    doc = {"clients": 5, "costs": {"kind": "gaussian", "mean": 5, "std": 0.01,
                                   "lower": 0, "upper": 1}}
    path = _write_cfg(tmp_path, doc)
    assert main(["solve", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: costs: density must be positive and "
                            "finite on the support\n")


def test_irregular_cost_prior_prints_one_stderr_line_in_a_real_process(tmp_path):
    # capsys misses Python warnings; a numpy warning raised while the prior is
    # checked would reach a real stderr
    doc = {"costs": {"kind": "gaussian", "mean": 5, "std": 0.01,
                     "lower": 0, "upper": 1}}
    proc = subprocess.run(
        [sys.executable, "-m", "jsam", "solve", "--config", _write_cfg(tmp_path, doc)],
        capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("config error: costs: density must be positive and "
                           "finite on the support\n")


@pytest.mark.parametrize("patch, message", [
    # v(c) = 2c - lower overflows at the support top, though F/f stays finite
    ({"costs": {"kind": "uniform", "lower": 1e308, "upper": 1.1e308}},
     "costs: virtual cost must be finite on the support"),
    # (c - mean) / std overflows, so the density is 0 across the support
    ({"costs": {"kind": "gaussian", "mean": 0.5, "std": 1e-300}},
     "costs: density must be positive and finite on the support"),
    # c2^2 is finite, but the derived Q's product overflows to inf
    ({"train": {"c2": 1e154}},
     "server: q_coefficient derived as 2*c2^2*ln(1/delta)*D*sqrt(T) is inf; "
     "set server.q_coefficient"),
    # the float power c2^2 raises OverflowError rather than returning inf
    ({"train": {"c2": 1e200}},
     "server: q_coefficient derived as 2*c2^2*ln(1/delta)*D*sqrt(T) is inf; "
     "set server.q_coefficient"),
    # the integer weight dim D is too large to convert to a float
    ({"task": {"feature_dim": 10 ** 308}},
     "server: q_coefficient derived as 2*c2^2*ln(1/delta)*D*sqrt(T) is inf; "
     "set server.q_coefficient"),
    # 1/delta overflows, so the noise model's ln(1/delta) is inf, whether Q
    # is derived from it or set
    ({"train": {"delta": 1e-320}},
     "train.delta is too small: 1/delta overflows"),
    ({"train": {"delta": 1e-320}, "server": {"q_coefficient": 1.0}},
     "train.delta is too small: 1/delta overflows"),
    # c2^2 underflows, so the derived Q is 0 though no field was set to 0
    ({"clients": 3, "train": {"c2": 1e-170}},
     "server: q_coefficient derived as 2*c2^2*ln(1/delta)*D*sqrt(T) is 0.0; "
     "set server.q_coefficient"),
], ids=["uniform-virtual-cost", "gaussian-std", "derived-q", "c2-power",
        "feature-dim", "delta-derived-q", "delta-explicit-q", "c2-underflow"])
def test_overflowing_config_is_one_stderr_line_in_a_real_process(tmp_path, patch,
                                                                  message):
    # the overflow is the verdict, so no numpy warning may reach stderr first
    doc = dict({"clients": 5}, **patch)
    proc = subprocess.run(
        [sys.executable, "-m", "jsam", "solve", "--config", _write_cfg(tmp_path, doc)],
        capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"config error: {message}\n"


@pytest.mark.parametrize("command", ["solve", "simulate", "audit", "sweep"])
def test_each_command_validates_its_config_once(tmp_path, monkeypatch, command):
    # flags are applied before the config is built, so nothing re-validates it;
    # every jsam name bound to validate is counted, not only the defining one
    calls = []
    real = config.validate
    for module in [m for name, m in sys.modules.items() if name.startswith("jsam")]:
        if getattr(module, "validate", None) is real:
            monkeypatch.setattr(module, "validate",
                                lambda cfg: calls.append(cfg) or real(cfg))
    argv = [command, "--seed", "1", "--out", str(tmp_path / "out")]
    if command != "audit":
        argv += ["--config", _write_cfg(tmp_path, dict(SMALL_SIM, eta_grid=[1.0]))]
    assert main(argv) == 0
    assert len(calls) == 1
    assert calls[0].seeds == [1] and calls[0].out == str(tmp_path / "out")


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_each_command_builds_its_cost_prior_once(tmp_path, monkeypatch, command):
    # validation builds the prior and the config keeps it for every run
    builds = []
    real = TruncatedGaussianCosts.__post_init__
    monkeypatch.setattr(TruncatedGaussianCosts, "__post_init__",
                        lambda self: builds.append(self) or real(self))
    doc = dict(SMALL_SIM, costs={"kind": "gaussian", "lower": 0.1, "upper": 1.0},
               mechanisms=["jsam", "usbm"], eta_grid=[1.0, 2.0])
    assert main([command, "--config", _write_cfg(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == 0
    assert len(builds) == 1


# ---------------------------------------------------------------------------
# simulate


def test_simulate_is_byte_deterministic(tmp_path):
    doc = dict(SMALL_SIM, mechanisms=["jsam", "usbm"], seeds=[0, 1])
    path = _write_cfg(tmp_path, doc)
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", path, "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", path, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_row_shape_and_cost_column(tmp_path):
    doc = dict(SMALL_SIM, mechanisms=["jsam", "usbm"], seeds=[0, 1])
    path = _write_cfg(tmp_path, doc)
    out = tmp_path / "runs.csv"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("run_id,mechanism,seed,s,eta,round,train_loss,"
                        "test_loss,test_accuracy,cumulative_monetary_cost")
    assert len(lines) == 1 + 2 * 2 * 8
    solved = _solve_json(tmp_path, SMALL_SIM)
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 10
        float(parts[6]), float(parts[7]), float(parts[8])
        if parts[1] == "jsam" and parts[2] == "0":
            assert parts[0] == "jsam-s100-eta1-seed0"
            assert float(parts[9]) == solved["total_payment"]


def test_simulate_rejects_eta_zero(tmp_path, capsys):
    doc = dict(SMALL_SIM, server={"eta": 0.0, "q_coefficient": 1.0})
    path = _write_cfg(tmp_path, doc)
    assert main(["simulate", "--config", path]) == 2
    assert "eta" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_header_rows_and_solve_consistency(tmp_path):
    doc = dict(SMALL_SIM, eta_grid=[0.5, 2.0])
    path = _write_cfg(tmp_path, doc)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("eta,mechanism,seed,total_budget,total_payment,"
                        "selected_count,final_test_accuracy,final_test_loss")
    assert len(lines) == 3
    row = lines[1].split(",")
    assert float(row[0]) == 0.5 and row[1] == "jsam" and row[2] == "0"
    point = _solve_json(tmp_path, dict(
        SMALL_SIM, server={"eta": 0.5, "q_coefficient": 1.0,
                           "grid_delta": 1e-2}))
    assert float(row[3]) == pytest.approx(point["total_budget"], rel=1e-12)
    assert float(row[4]) == pytest.approx(point["total_payment"], rel=1e-12)
    assert int(row[5]) == point["selected_count"]


def test_sweep_without_grid_is_a_config_error(tmp_path, capsys):
    path = _write_cfg(tmp_path, SMALL_SIM)
    assert main(["sweep", "--config", path]) == 2
    assert "eta_grid" in capsys.readouterr().err


def test_matched_spend_miss_is_one_warning_line(monkeypatch, capsys):
    # usbm's spend is continuous in eta and matches; jsam_ci's steps from 1
    # to 3 at eta 10, past jsam's 2, so its bisection can only end above it
    spend = {"jsam": lambda eta: 2.0, "usbm": lambda eta: eta,
             "jsam_ci": lambda eta: 1.0 if eta < 10.0 else 3.0}

    def plan_for(cfg, name, seed, eta=None, probe=None):
        return SimpleNamespace(kind=name, total_payment=spend[name](eta))

    monkeypatch.setattr(cli, "probe_inputs", lambda cfg, seed: None)
    monkeypatch.setattr(cli, "plan_for", plan_for)
    monkeypatch.setattr(cli, "train_under", lambda cfg, plan, seed, probe: None)
    cfg = config.from_dict({**SMALL_SIM, "mechanisms": ["jsam", "usbm", "jsam_ci"]})
    jsam, usbm, jsam_ci = (plan.total_payment
                           for plan, _ in cli.matched_spend_runs(cfg, 30.0, seed=4))
    assert (jsam, jsam_ci) == (2.0, 3.0)
    assert usbm == pytest.approx(2.0, rel=1e-3)
    assert capsys.readouterr().err == ("warning: jsam_ci seed 4: matched spend "
                                       "3.0 misses the target 2.0\n")


# ---------------------------------------------------------------------------
# audit


AUDIT_NAMES = ["budget-identity", "grid-vs-brute-force", "interim-monotone",
               "incentive-compatibility", "individual-rationality",
               "noise-calibration"]


def test_audit_default_config_passes(capsys):
    assert main(["audit"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in out] == AUDIT_NAMES
    assert all(line.startswith("ok:") for line in out)


def test_audit_exits_1_when_a_verdict_fails(monkeypatch, capsys):
    monkeypatch.setattr(audit, "interim_monotone",
                        lambda interim: audit.Verdict("interim-monotone",
                                                      1.0, 0.0))
    assert main(["audit"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == \
        ["ok", "ok", "FAIL", "ok", "ok", "ok"]
    assert out[2].startswith("FAIL: interim-monotone (measured 1.000e+00")


def test_audit_refuses_large_instances(tmp_path, capsys):
    path = _write_cfg(tmp_path, dict(SMALL_SIM, clients=10))
    assert main(["audit", "--config", path]) == 2
    assert "4" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config round trips and defaults


def test_config_round_trips_through_json():
    cfg = config.from_dict(SMALL_SIM)
    again = config.from_dict(json.loads(json.dumps(dataclasses.asdict(cfg))))
    assert again == cfg


def test_config_defaults_match_the_documented_protocol():
    cfg = config.from_dict({})
    assert cfg.clients == 100
    assert cfg.train.rounds == 1000
    assert cfg.train.per_round == 10
    assert cfg.train.clip == 6.0
    assert cfg.train.delta == 1e-5
    assert cfg.costs.kind == "uniform"
    config.validate(cfg)


def test_readme_config_block_shows_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    assert config.from_dict(json.loads(block)) == config.from_dict({})


def test_module_entry_point(tmp_path):
    path = _write_cfg(tmp_path, dict(SMALL_SIM, clients=2))
    proc = subprocess.run(
        [sys.executable, "-m", "jsam", "solve", "--config", path],
        capture_output=True, text=True, timeout=120,
        env=_child_env())
    assert proc.returncode == 0
    got = json.loads(proc.stdout)
    assert len(got["probabilities"]) == 2


_COLD_START = """
import json, sys
import jsam, jsam.cli

def loaded(prefix):
    return any(name == prefix or name.startswith(prefix + ".") for name in sys.modules)

uniform, gaussian, out = sys.argv[1:]
steps = {"import": loaded("scipy")}
steps["solve"] = (jsam.cli.main(["solve", "--config", uniform, "--out", out]),
                  loaded("scipy"))
steps["audit"] = (jsam.cli.main(["audit", "--out", out]), loaded("scipy"))
jsam.config.load(gaussian)
steps["gaussian"] = (jsam.cli.main(["simulate", "--config", gaussian, "--out", out]),
                     loaded("scipy.stats"))
print(json.dumps(steps))
"""


def test_no_scipy_for_a_uniform_prior_and_no_scipy_stats_at_all(tmp_path):
    # scipy.special costs about 0.3 s at import and only the truncated Gaussian
    # uses it; scipy.stats (about 1 s) is used by no command
    uniform = _write_cfg(tmp_path, {"clients": 100, "mechanisms": ["jsam"]},
                         "uniform.json")
    gaussian = _write_cfg(
        tmp_path, dict(SMALL_SIM, costs={"kind": "gaussian"}, mechanisms=["usbm"]),
        "gaussian.json")
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, uniform, gaussian,
         str(tmp_path / "out.txt")],
        capture_output=True, text=True, timeout=120,
        env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"import": False, "solve": [0, False],
                                       "audit": [0, False], "gaussian": [0, False]}


# ---------------------------------------------------------------------------
# what the benchmark tracer reads


def test_results_keep_what_the_benchmark_tracer_reads(uniform01, basic_cfg):
    # benchmarks/tracing.py counts work from these results (its COUNTERS)
    # and the benchmark's tests read jsam.cli.make_plan; a change to one of
    # them fails here, not only in a traced benchmark run
    from jsam.mechanism import fixed_probability_solve
    from jsam.oracle import brute_force_solve
    from jsam.payments import expost_payments, interim_allocation

    p = np.full((2, 3), 1.0 / 3)
    v = np.array([[0.2, 0.5, 0.9], [0.3, 0.4, 0.8]])
    assert fixed_probability_solve(p, v, basic_cfg)[1].shape[0] == 2
    costs = np.array([0.2, 0.5, 0.9])
    paid = expost_payments(costs, np.ones(3), 1.0,
                           lambda k, z: np.ones(z.size), grid_size=5)
    assert paid[0].shape == (3,)
    assert brute_force_solve(v[0], basic_cfg, grid_step=0.5).evaluations > 0
    interim = interim_allocation(1, uniform01, 2, basic_cfg, grid_size=3,
                                 samples=4)
    assert interim.grid.size == 3 and interim.samples == 4
    assert callable(jsam.cli.make_plan)


def test_benchmark_workload_configs_load(tmp_path, monkeypatch):
    # the benchmark checks its generated configs before it times anything; a
    # config change that breaks one fails here, not only in a benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    import workloads

    for scale in ("full", "tiny"):
        for workload in workloads.WORKLOADS:
            workdir = tmp_path / scale / workload
            workdir.mkdir(parents=True)
            workloads.validate_configs(workloads.build_pass(workload, 7, 0, scale,
                                                            workdir))


def test_traced_tiny_benchmark_pass_has_no_failed_op(tmp_path, monkeypatch):
    # a result the tracer's COUNTERS cannot read makes the traced op raise,
    # so one tiny pass of each workload under the tracer fails here, not
    # only in a benchmark run; the tracer wraps the jsam modules this file
    # has already imported
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    import run
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for workload in workloads.WORKLOADS:
            workdir = tmp_path / workload
            workdir.mkdir()
            _, raw = run.run_pass(workloads.build_pass(workload, 7, 0, "tiny", workdir),
                                  tracer)
            for result in raw:
                assert run.judge(*result).problems == [], workload
    finally:
        tracer.uninstall()
    for key in ("mechanism.fixed_probability_solve.rows",
                "payments.expost_payments.clients", "mechanism.solve_profiles.rows"):
        assert tracer.counts[key] > 0, key
    # jsam's payment curves are priced by client_budgets, a public layer
    assert tracer.layers()["mechanism.client_budgets"]["calls"] > 0
