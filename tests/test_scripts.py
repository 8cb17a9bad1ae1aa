"""Smoke runs of the scripts under scripts/ on a tiny config."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

TINY = {
    "clients": 4,
    "costs": {"kind": "uniform", "lower": 0.1, "upper": 1.0},
    "server": {"grid_delta": 0.01},
    "train": {"rounds": 6, "per_round": 2},
    "task": {"feature_dim": 3, "classes": 3, "samples_per_client": 12,
             "test_size": 30},
    "payment_grid": 20,
}


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


def _rows(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), [dict(zip(header.split(","), r.split(",")))
                               for r in rows]


def test_eta_sweep_writes_one_plan_row_per_eta_and_seed(tiny_config, tmp_path):
    script = _load("eta_sweep")
    out = tmp_path / "sweep.csv"
    assert script.main(["--config", str(tiny_config), "--eta", "1", "100",
                        "--seeds", "0", "1", "--out", str(out)]) == 0
    header, rows = _rows(out)
    assert header == script.HEADER.split(",")
    assert [(r["eta"], r["seed"]) for r in rows] == \
        [("1.0", "0"), ("1.0", "1"), ("100.0", "0"), ("100.0", "1")]
    for r in rows:
        assert 1 <= int(r["selected_count"]) <= TINY["clients"]
        assert float(r["total_payment"]) > 0


@pytest.mark.parametrize("mechanisms", ["jsam,usbm", "jsam,usbm,bbm"])
def test_accuracy_vs_cost_matches_each_baseline_to_the_jsam_spend(
        tiny_config, tmp_path, mechanisms):
    script = _load("accuracy_vs_cost")
    out = tmp_path / "accuracy.csv"
    assert script.main(["--config", str(tiny_config), "--eta", "30",
                        "--mechanism", mechanisms, "--seeds", "0",
                        "--out", str(out)]) == 0
    header, rows = _rows(out)
    assert header == script.HEADER.split(",")
    assert [r["mechanism"] for r in rows] == mechanisms.split(",")
    jsam, *baselines = (float(r["total_payment"]) for r in rows)
    for spend in baselines:  # within match_eta_to_cost's rel_tol
        assert spend == pytest.approx(jsam, rel=1e-3)
    for r in rows:
        assert 0.0 <= float(r["final_test_accuracy"]) <= 1.0
        assert r["diverged"] == "0"


# sha256 of each script's CSV on TINY, so that any change to the scripts'
# output, down to the last digit of a float, fails here
GOLDEN = [
    ("eta_sweep", ["--eta", "1", "100", "--seeds", "0", "1"],
     "67a29a2c9a21d6669104ac97ee8f9db67de4a649180299572256cd40b0cacd46"),
    ("accuracy_vs_cost", ["--eta", "30", "--mechanism", "jsam,usbm,bbm",
                          "--seeds", "0"],
     "3cc9ddc7eda58ccbc108067644909b80b280da470b834e7bedb9e81670f8549e"),
]


@pytest.mark.parametrize("name, argv, digest", GOLDEN,
                         ids=[name for name, _, _ in GOLDEN])
def test_script_output_matches_its_golden(tiny_config, tmp_path, name, argv,
                                          digest):
    out = tmp_path / "out.csv"
    assert _load(name).main(["--config", str(tiny_config), *argv,
                             "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


_QUICK = {"eta_sweep": ["--eta", "1", "--seeds", "0"],
          "accuracy_vs_cost": ["--eta", "30", "--mechanism", "jsam",
                               "--seeds", "0"]}


@pytest.mark.parametrize("flag", [False, True], ids=["config-out", "flag-out"])
@pytest.mark.parametrize("name", sorted(_QUICK))
def test_script_writes_the_configs_out_unless_out_overrides_it(
        tmp_path, capsys, name, flag):
    # the scripts enter through cli.run_command, as jsam does, so a config's
    # `out` is where the CSV goes and `--out` replaces it
    script = _load(name)
    from_config, from_flag = tmp_path / "config.csv", tmp_path / "flag.csv"
    cfg = tmp_path / "out.json"
    cfg.write_text(json.dumps(dict(TINY, out=str(from_config))))
    argv = ["--config", str(cfg), *_QUICK[name]]
    if flag:
        argv += ["--out", str(from_flag)]
    assert script.main(argv) == 0
    assert capsys.readouterr().out == ""
    written, unwritten = (from_flag, from_config) if flag else (from_config, from_flag)
    assert written.read_text().startswith(script.HEADER + "\n")
    assert not unwritten.exists()


@pytest.mark.parametrize("name, bad", [
    ("eta_sweep", "config"), ("eta_sweep", "out"),
    ("accuracy_vs_cost", "config"), ("accuracy_vs_cost", "out"),
    ("accuracy_vs_cost", "mechanism"),
    ("eta_sweep", "eta"), ("accuracy_vs_cost", "eta"),
])
def test_bad_script_input_is_one_error_line(tiny_config, tmp_path, capsys,
                                            no_work, name, bad):
    # every bad input is reported before any planning or training
    # eta_sweep plans jsam alone and has no --mechanism flag
    missing, out = str(tmp_path / "missing.json"), str(tmp_path / "no" / "out.csv")
    argv = {"config": ["--config", missing],
            "out": ["--config", str(tiny_config), "--out", out],
            "mechanism": ["--config", str(tiny_config), "--mechanism", "jsam,foo"],
            "eta": ["--config", str(tiny_config)]}[bad]
    if name == "accuracy_vs_cost" and bad != "mechanism":
        argv += ["--mechanism", "jsam"]
    # a bad eta after a good one; eta_sweep keeps eta 0 (its degenerate row),
    # but a jsam plan at eta 0 has no spend for accuracy_vs_cost to match
    bad_etas = {"eta_sweep": ["1", "-1"], "accuracy_vs_cost": ["30", "0"]}[name]
    etas = bad_etas if bad == "eta" else ["30"]
    assert _load(name).main([*argv, "--eta", *etas, "--seeds", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == {
        "config": f"config error: cannot read config {missing!r}: "
                  "No such file or directory\n",
        "out": f"error: cannot write {out!r}: No such file or directory\n",
        "mechanism": "config error: mechanisms: unknown mechanism 'foo'\n",
        "eta": {"eta_sweep": "error: eta must be >= 0\n",
                "accuracy_vs_cost": "error: eta must be > 0: a jsam plan at eta 0 "
                                    "pays nothing, so there is no spend to match\n"}[name],
    }[bad]
