"""The benchmark's own tests, at the tiny scale.

    python3 -m pytest benchmarks
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
# Every end-to-end metric the summary lines name, with its unit.
SUMMARY_METRICS = {**run.END_TO_END, **run.REPORTED_ONLY}


@pytest.fixture(scope="module")
def jsam():
    return run.load_jsam()


@pytest.fixture(scope="module")
def outputs(jsam, tmp_path_factory):
    """One valid tiny output per op kind: (op, stderr, text)."""
    found = {}
    for workload in workloads.WORKLOADS:
        ops = workloads.build_pass(workload, 7, 0, "tiny",
                                   tmp_path_factory.mktemp(workload))
        _, raw = run.run_pass(ops[:1])
        op, rc, raised, stderr, data, _ = raw[0]
        assert rc == 0 and raised is None
        found[op.kind] = (op, stderr, data.decode("utf-8"))
    return found


def _judge(op, stderr, text):
    return run.judge(op, 0, None, stderr, text.encode("utf-8"), 1.0).problems


def test_benchmark_json_names_the_runner_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload):
    for trace, expected in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace),
             "--scale", "tiny"],
            capture_output=True, text=True, timeout=170, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        if trace == 0:
            summary = "\n".join(lines[:-1])
            for name, unit in SUMMARY_METRICS.items():
                if name == "final_test_accuracy" and workload != "simulate-baselines":
                    continue
                assert re.search(rf"^ +{re.escape(name)} +\S+ +{re.escape(unit)}\b",
                                 summary, re.M), name


def _corrupt_plan(field, change):
    def corrupt(text):
        doc = json.loads(text)
        doc[field] = change(doc[field])
        return json.dumps(doc)
    return corrupt


def _nan_first_loss(text):
    header, first, rest = text.split("\n", 2)
    fields = first.split(",")
    fields[6] = "nan"
    return "\n".join([header, ",".join(fields), rest])


def _change_last_cost(text):
    lines = text.split("\n")
    fields = lines[-2].split(",")
    fields[9] = repr(float(fields[9]) + 1.0)
    lines[-2] = ",".join(fields)
    return "\n".join(lines)


CORRUPTIONS = {
    "solve: p off the simplex":
        ("solve", _corrupt_plan("probabilities", lambda p: [p[0] + 0.5] + p[1:])),
    "solve: budget identity":
        ("solve", _corrupt_plan("total_budget", lambda b: b * 1.001)),
    "solve: payment below cost":
        ("solve", _corrupt_plan("payments", lambda pay: [-1.0] + pay[1:])),
    "solve: non-finite":
        ("solve", lambda text: text.replace('"total_payment": ', '"total_payment": NaN, "x": ', 1)),
    "solve: truncated": ("solve", lambda text: text[: len(text) // 2]),
    "simulate: missing round": ("simulate", lambda text: text.rsplit("\n", 2)[0] + "\n"),
    "simulate: wrong header": ("simulate", lambda text: "run," + text),
    "simulate: non-finite loss": ("simulate", _nan_first_loss),
    "simulate: cost changes": ("simulate", _change_last_cost),
    "audit: failed line": ("audit", lambda text: text.replace("ok: ", "FAIL: ", 1)),
    "audit: empty": ("audit", lambda text: ""),
}


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_checks_reject_a_corrupted_output(outputs, name):
    kind, corrupt = CORRUPTIONS[name]
    op, stderr, text = outputs[kind]
    assert _judge(op, stderr, text) == []
    assert _judge(op, stderr, corrupt(text))


def test_checks_reject_a_diverged_run(outputs):
    op, _, text = outputs["simulate"]
    assert _judge(op, "warning: run x diverged\n", text)


def test_corrupted_output_counts_in_fail_frac(jsam, tmp_path, monkeypatch):
    real_main = jsam.cli.main

    def corrupting_main(argv):
        rc = real_main(argv)
        out = Path(argv[argv.index("--out") + 1])
        if out.name.startswith("p0-op0"):
            doc = json.loads(out.read_text(encoding="utf-8"))
            doc["probabilities"][0] += 0.5
            out.write_text(json.dumps(doc), encoding="utf-8")
        return rc

    monkeypatch.setattr(jsam.cli, "main", corrupting_main)
    passes = run.measure("plan-n100", 3, 0.0, "tiny", tmp_path)
    assert [bool(r.problems) for r in passes[0]["ops"]] == [True, False]
    assert run.end_to_end(passes, [1.0], "plan-n100")["fail_frac"] == 0.5


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_writes_the_untraced_digests(jsam, tmp_path, workload):
    tracer = tracing.Tracer()
    passes = run.measure(workload, 5, 0.0, "tiny", tmp_path, tracer)
    assert [p["traced"] for p in passes] == [False, True]
    assert all(not r.problems for p in passes for r in p["ops"])
    assert run.digests_match(passes)
    assert passes[0]["ops"][0].sha256 is not None


def test_tracer_sees_calls_made_through_imported_names(jsam, tmp_path):
    tracer = tracing.Tracer()
    run.measure("simulate-baselines", 5, 0.0, "tiny", tmp_path, tracer)
    layers = tracer.layers()
    sim = workloads.SIZES["tiny"]["simulate"]
    ops = len(workloads.SIMULATE_MECHANISMS)
    # train() looks these up in flsim's globals
    assert layers["flsim.local_noisy_gradient"]["calls"] == ops * sim["rounds"] * sim["per_round"]
    assert layers["flsim.test_metrics"]["calls"] == ops * sim["rounds"]
    # fixed_probability_solve is imported into flsim; virtual is a method
    assert layers["mechanism.fixed_probability_solve"]["calls"] > ops
    assert tracer.counts["costs.virtual.elements"] > 0
    assert "mechanism.solve_profiles" not in layers
    # every wrapper is gone afterwards
    assert not hasattr(jsam.flsim.local_noisy_gradient, "__wrapped__")
    assert not hasattr(jsam.cli.make_plan, "__wrapped__")
    assert not hasattr(jsam.costs.UniformCosts.virtual, "__wrapped__")


def test_tracer_counts_solver_work_under_payments(jsam, tmp_path):
    tracer = tracing.Tracer()
    run.measure("plan-n100", 5, 0.0, "tiny", tmp_path, tracer)
    plan = workloads.SIZES["tiny"]["plan"]
    spans = tracer.spans
    solves = [s for s in spans if s[0] == "mechanism.solve_profiles"]
    under_payments = [s for s in solves if spans[s[3]][0] == "payments.expost_payments"]
    assert len(under_payments) == len(workloads.PLAN_ETAS) * plan["clients"]
    candidates = tracing.candidate_count(plan["clients"], 1e-3)
    assert tracer.counts["mechanism.solve_profiles.candidate_evals"] == \
        tracer.counts["mechanism.solve_profiles.rows"] * candidates
    assert {s[4] for s in spans} == {0, 1}  # one id per op of the traced pass


def test_self_time_subtracts_traced_children():
    tracer = tracing.Tracer()
    tracer.spans = [["a", 0.0, 10.0, None, 0], ["b", 1.0, 4.0, 0, 0],
                    ["a", 2.0, 3.0, 1, 0], ["b", 5.0, 6.0, 0, 0]]
    layers = tracer.layers()
    assert layers["a"] == {"calls": 2, "total_s": 10.0, "self_s": 7.0}
    assert layers["b"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "plan-n100", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
