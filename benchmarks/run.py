"""jsam benchmark: closed-loop workloads timed end to end through `jsam.cli.main`.

One workload:

    python3 benchmarks/run.py --workload plan-n100 --seed 0 --seconds 32 --trace 0

Every workload, untraced and then traced:

    python3 benchmarks/run.py --workload all --seed 0 --seconds 32

One caller runs the ops of a workload back to back, in process, each starting
when the previous one returns. A run repeats the workload's op list (a pass)
until about `--seconds` are used up. With `--trace 1` each pass runs
untraced and then traced on the same inputs; the traced pass gives the
per-layer numbers, and the gap between the two is the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with `--trace 0`, the
per-layer ones with `--trace 1`. Details, the environment record and the
spans go to `.bench_results/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "op_s_p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Reported on the summary lines and in the details file, not in the last
# line: fail_frac is 0 on a correct program (the last line carries it as
# failed/attempted), and final_test_accuracy exists on one workload only.
REPORTED_ONLY = {"fail_frac": "ratio", "final_test_accuracy": "fraction"}

PER_LAYER = {
    "mechanism.solve_profiles.calls": "count",
    "mechanism.solve_profiles.rows": "count",
    "mechanism.solve_profiles.candidate_evals": "count",
    "mechanism.solve_profiles.self_s": "s",
    "mechanism.solve_profiles.rows_per_s": "1/s",
    "mechanism.fixed_probability_solve.calls": "count",
    "mechanism.fixed_probability_solve.rows": "count",
    "mechanism.fixed_probability_solve.self_s": "s",
    "mechanism.jsam_solve.self_s": "s",
    "payments.expost_payments.calls": "count",
    "payments.expost_payments.clients": "count",
    "payments.expost_payments.self_s": "s",
    "payments.interim_allocation.calls": "count",
    "payments.interim_allocation.profiles": "count",
    "payments.interim_allocation.self_s": "s",
    "payments.payment.calls": "count",
    "payments.verify_ic.self_s": "s",
    "costs.virtual.calls": "count",
    "costs.virtual.elements": "count",
    "costs.virtual.self_s": "s",
    "flsim.local_noisy_gradient.calls": "count",
    "flsim.local_noisy_gradient.self_s": "s",
    "flsim.model_loss.self_s": "s",
    "flsim.test_metrics.self_s": "s",
    "flsim.train.self_s": "s",
    "flsim.make_task.self_s": "s",
    "flsim.partition_noniid.self_s": "s",
    "flsim.build_schedule.self_s": "s",
    "flsim.initial_local_losses.self_s": "s",
    "flsim.make_plan.self_s": "s",
    "oracle.brute_force_solve.calls": "count",
    "oracle.brute_force_solve.evaluations": "count",
    "oracle.brute_force_solve.self_s": "s",
    "oracle.lagrangian_budget_split.self_s": "s",
    "config.load.self_s": "s",
    "config.validate.calls": "count",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.out_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.overhead_est_s": "s",
    "trace.spans": "count",
}
# Per-layer values computed by the benchmark rather than counted at a call.
COMPUTED = {
    "mechanism.solve_profiles.candidate_evals":
        "rows x candidate-grid size, the size taken from the grid's definition",
    "mechanism.solve_profiles.rows_per_s": "rows / self_s",
    "cli.out_bytes": "size of the files the ops wrote",
    "trace.overhead_s": "traced pass wall_s minus untraced pass wall_s",
    "trace.overhead_est_s": "spans x the wrapper's cost per call, timed on a no-op",
}


# ---------------------------------------------------------------------------
# the program under test


def load_jsam():
    """Import jsam from this checkout's `src/`, never from anywhere else."""
    if not (SRC / "jsam" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no jsam sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import jsam
    import jsam.cli

    if Path(jsam.__file__).resolve().parent != (SRC / "jsam").resolve():
        raise SystemExit(f"benchmark: imported jsam from {jsam.__file__}, not {SRC}")
    return jsam


# ---------------------------------------------------------------------------
# environment record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads(cap: int) -> dict:
    """Thread count of each loaded OpenBLAS, lowered to `cap` where it was higher."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return {}
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is None or put is None:
                continue
            get.restype = ctypes.c_int
            put.argtypes = [ctypes.c_int]
            if get() > cap:
                put(cap)
            found[Path(path).name] = get()
            break
    return found


def _blas_library() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _git_commit():
    """HEAD of the checkout, or None where it is not a git work tree."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_library(),
        "blas_threads": _blas_threads(nproc),
        "caller_threads": 1,
        "git_commit": _git_commit(),
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# set-up


def setup_child(workload: str, seed: int, scale: str) -> int:
    """What a fresh process does before its first op; prints `ready` when done."""
    load_jsam()
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        workloads.validate_configs(
            workloads.build_pass(workload, seed, 0, scale, Path(tmp)))
        print("ready", flush=True)
    return 0


def measure_setup(workload: str, seed: int, scale: str) -> list[float]:
    """Seconds from process start until the first op is ready, per fresh process."""
    times = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                 "--workload", workload, "--seed", str(seed), "--scale", scale],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {err.strip()}")
    return times


# ---------------------------------------------------------------------------
# ops


@dataclass
class OpResult:
    label: str
    seconds: float
    problems: list
    sha256: str | None
    out_bytes: int
    accuracy: float | None = None


def run_pass(ops, tracer=None, op_base=0):
    """Run the ops back to back; returns (pass wall seconds, raw results)."""
    import jsam.cli

    raw = []
    start = perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = op_base + i
        op.out.unlink(missing_ok=True)  # a traced pass reuses the untraced paths
        err = io.StringIO()
        t0 = perf_counter()
        raised = None
        rc = None
        try:
            with contextlib.redirect_stderr(err):
                rc = jsam.cli.main(list(op.argv))
        except Exception as exc:  # an op that raises is a failed op
            raised = f"raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        data = op.out.read_bytes() if op.out.is_file() else None
        raw.append((op, rc, raised, err.getvalue(), data, seconds))
    return perf_counter() - start, raw


def judge(op, rc, raised, stderr, data, seconds) -> OpResult:
    """Check one op's exit status and output."""
    accuracy = None
    if raised is not None:
        problems = [raised]
    elif rc != 0:
        problems = [f"exit code {rc}: {stderr.strip()[-300:]}"]
    elif data is None:
        problems = ["no output file"]
    else:
        try:
            text = data.decode("utf-8")
            if op.kind == "solve":
                problems = checks.check_solve(text)
            elif op.kind == "simulate":
                problems, accuracy = checks.check_simulate(
                    text, stderr, op.rounds, op.mechanism)
            else:
                problems = checks.check_audit(text)
        except Exception as exc:  # a malformed output may trip the checker itself
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    return OpResult(op.label, seconds, problems,
                    checks.digest(data) if data is not None else None,
                    len(data) if data is not None else 0, accuracy)


def measure(workload: str, seed: int, seconds: float, scale: str, workdir: Path,
            tracer=None) -> list[dict]:
    """Run passes until `seconds` are used up (at least one pass).

    Another pass starts unless stopping now lands nearer `seconds` than
    finishing it would, so a run measures about `seconds` whatever the pass
    length. Without a tracer each pass runs once, untraced. With one, each
    pass runs untraced and then traced on the same inputs.
    """
    passes = []
    start = perf_counter()
    index = 0
    while True:
        ops = workloads.build_pass(workload, seed, index, scale, workdir)
        modes = (False,) if tracer is None else (False, True)
        for traced in modes:
            if traced:
                tracer.install()
            try:
                wall, raw = run_pass(ops, tracer if traced else None,
                                     op_base=index * len(ops))
            finally:
                if traced:
                    tracer.uninstall()
            passes.append({"index": index, "traced": traced, "wall_s": wall,
                           "ops": [judge(*r) for r in raw]})
        index += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / index / 2 >= seconds:
            return passes


# ---------------------------------------------------------------------------
# metrics


def end_to_end(passes, setup_times, workload) -> dict:
    ops = [r for p in passes for r in p["ops"]]
    failed = sum(1 for r in ops if r.problems)
    values = {
        "wall_s": statistics.fmean(p["wall_s"] for p in passes),
        "op_s_p50": statistics.median(r.seconds for r in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
        "fail_frac": failed / len(ops),
    }
    if workload == "simulate-baselines":
        accs = [r.accuracy for r in ops if r.accuracy is not None]
        values["final_test_accuracy"] = statistics.fmean(accs) if accs else float("nan")
    return values


def per_layer(passes, tracer) -> dict:
    """Per-layer values per traced pass."""
    traced = [p for p in passes if p["traced"]]
    plain = {p["index"]: p for p in passes if not p["traced"]}
    n = len(traced)
    layers = tracer.layers()
    values = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            values[name] = layers.get(layer, {field: 0})[field] / n
        else:
            values[name] = tracer.counts.get(name, 0) / n
    rows = values["mechanism.solve_profiles.rows"]
    busy = values["mechanism.solve_profiles.self_s"]
    values["mechanism.solve_profiles.rows_per_s"] = rows / busy if busy > 0 else 0.0
    values["cli.out_bytes"] = sum(r.out_bytes for p in traced for r in p["ops"]) / n
    values["trace.overhead_s"] = statistics.median(
        p["wall_s"] - plain[p["index"]]["wall_s"] for p in traced)
    values["trace.spans"] = len(tracer.spans) / n
    values["trace.overhead_est_s"] = values["trace.spans"] * tracing.span_cost()
    return values


def digests_match(passes) -> bool:
    """Traced and untraced passes over the same inputs wrote the same bytes."""
    by_index = {}
    for p in passes:
        by_index.setdefault(p["index"], []).append([r.sha256 for r in p["ops"]])
    return all(all(d == ds[0] for d in ds) for ds in by_index.values())


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str) -> dict:
    """One benchmark run; prints the summary lines and returns the last-line object."""
    setup_start = perf_counter()
    load_jsam()
    env = environment(seed)
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RESULTS))
    try:
        workloads.validate_configs(
            workloads.build_pass(workload, seed, 0, scale, workdir))
        own_setup_s = perf_counter() - setup_start
        setup_times = [] if trace else measure_setup(workload, seed, scale)
        tracer = tracing.Tracer() if trace else None
        origin = perf_counter()
        passes = measure(workload, seed, seconds, scale, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [r for p in passes for r in p["ops"]]
    failed = sum(1 for r in ops if r.problems)
    same = digests_match(passes)
    stem = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}"
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "scale": scale,
        "trace": trace, "environment": env, "own_setup_s": own_setup_s,
        "setup_samples_s": setup_times, "digests_match": same,
        "passes": [{"index": p["index"], "traced": p["traced"],
                    "wall_s": p["wall_s"], "ops": [asdict(r) for r in p["ops"]]}
                   for p in passes],
    }
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"{workload} seed={seed} trace={int(trace)} scale={scale}: "
          f"{len(passes)} passes, {len(ops)} ops, {failed} failed")
    if trace:
        metrics = per_layer(passes, tracer)
        units = PER_LAYER
        layers = tracer.layers()
        traced_wall = sum(p["wall_s"] for p in passes if p["traced"])
        details["layers"] = layers
        details["computed"] = COMPUTED
        tracer.write_spans(f"{stem}-spans.jsonl", origin)
        print(f"  tracing overhead per pass: {_fmt(metrics['trace.overhead_s'])} s measured, "
              f"{_fmt(metrics['trace.overhead_est_s'])} s estimated from "
              f"{_fmt(metrics['trace.spans'])} spans")
        print("  self time by layer, share of traced wall_s:")
        for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])[:12]:
            print(f"  {name:40s} {row['self_s']:10.4f} s  "
                  f"{100 * row['self_s'] / traced_wall:5.1f}%  calls={row['calls']}")
    else:
        metrics = end_to_end(passes, setup_times, workload)
        units = {**END_TO_END, **REPORTED_ONLY}
        notes = {"wall_s": f"mean of {len(passes)} passes",
                 "op_s_p50": f"n={len(ops)}",
                 "setup_s": f"median of {len(setup_times)} fresh processes",
                 "fail_frac": f"{failed} of {len(ops)} ops failed"}
        for name, value in metrics.items():
            print(f"  {name:20s} {_fmt(value):>12s} {units[name]:8s} {notes.get(name, '')}")
    for r in ops:
        print(f"  op {r.label}: {r.seconds:.3f} s sha256={r.sha256}"
              + (f" FAILED {r.problems}" if r.problems else ""))
    if not same:
        print("  traced and untraced passes wrote different outputs")
    details["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    Path(f"{stem}.json").write_text(json.dumps(details, indent=2) + "\n",
                                    encoding="utf-8")
    print(f"  details: {stem.relative_to(ROOT)}.json")
    reported = PER_LAYER if trace else END_TO_END
    return {"correct": failed == 0 and same, "attempted": len(ops),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": reported[k]} for k in reported}}


def run_all(seed: int, seconds: float, scale: str) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                 "--scale", scale],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            sys.stdout.write(proc.stdout)
            last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
            try:
                ok = json.loads(last[0]).get("correct") is True
            except json.JSONDecodeError:
                ok = False
            if proc.returncode != 0 or not ok:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                        help="tiny: the smoke-test sizes")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_only:
        return setup_child(args.workload, args.seed, args.scale)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.scale)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.scale)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
