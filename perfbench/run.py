"""Benchmark of ``e2fock verify``: run one workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 36 --trace 0

Each timed pass is a fresh interpreter (``perfbench/child.py``) that times
``import e2fock.cli`` and calls ``e2fock.cli.main`` on the workload's argv,
so no in-process cache survives from one pass to the next.  Passes run one
at a time until ``--seconds`` is spent.  On a shared host the machine's
speed drifts from minute to minute, so each pass also times a fixed
reference computation (``perfbench/reference.py``) before and after the
program runs; ``wall_s`` and ``setup_s`` are medians over passes of the
pass time and the import time divided by that pass's reference time, in
seconds of the tuning host (times ``reference.NOMINAL_S``).  ``--trace 1``
adds one traced pass and reports the per-layer metrics instead of the
end-to-end ones.  The line before the last is a JSON report
(environment, quartiles, pass counts, gate results); the last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.  An operation is
one ``main`` call; it fails when its output fails the gate.  A failing
record in a check the call names as a known defect is counted in
``fail_share``, not as a failed operation; any other failing record fails
the gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.layers import per_layer_spec, per_layer_values, untraced_problem  # noqa: E402
from perfbench.reference import NOMINAL_S  # noqa: E402
from perfbench.workloads import WORKLOADS, calls_for  # noqa: E402

SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3
CHILD_TIMEOUT_S = 60

# imports e2fock.cli once to compile bytecode (its time is discarded) and
# reports the interpreter's numerical environment
_WARMUP = """
import json, sys
import e2fock.cli
import numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except (AttributeError, KeyError, TypeError) as exc:
    blas = f"unknown ({type(exc).__name__})"
print(json.dumps({"cli_file": e2fock.cli.__file__, "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "blas": blas}))
"""


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("E2FOCK_DIM", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def _run_child(args: list[str], stdin: str | None = None) -> str:
    proc = subprocess.run(
        [sys.executable, *args],
        input=stdin,
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=_child_env(),
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise BenchError(f"child exited {proc.returncode}: {' | '.join(tail)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("child printed nothing")
    return lines[-1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "e2fock").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def warm_up() -> dict:
    """Import ``e2fock.cli`` once, untimed, and return the interpreter's environment."""
    env = json.loads(_run_child(["-c", _WARMUP]))
    if not Path(env["cli_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"e2fock.cli imported from {env['cli_file']}, not from {SRC}")
    return env


def run_pass(calls: list[dict], trace: bool) -> dict:
    """One pass in a fresh interpreter; a crash counts every call as failed."""
    spec = json.dumps({"calls": calls, "trace": trace})
    try:
        return json.loads(_run_child(["-m", "perfbench.child"], stdin=spec))
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        return {"crashed": str(exc), "calls": [{"ok": False, "failed_records": c["records"]} for c in calls]}


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def summarize(calls: list[dict], passes: list[dict]) -> dict:
    """Aggregate untraced passes into the end-to-end metrics and the gate verdict."""
    done = [p for p in passes if "crashed" not in p]
    if not done:
        raise BenchError("every pass crashed: " + passes[0]["crashed"])
    outcomes = [c for p in passes for c in p["calls"]]
    attempted_records = len(passes) * sum(c["records"] for c in calls)
    failed_records = sum(c["failed_records"] for c in outcomes)
    headrooms = [c["headroom_digits"] for c in outcomes if c.get("headroom_digits") is not None]
    walls = [p["wall_s"] for p in done]
    # host speed of each pass: the mean of the reference times around its calls
    refs = [statistics.fmean(p["reference_s"]) for p in done]
    wall_norm = [w / r * NOMINAL_S for w, r in zip(walls, refs)]
    setup_norm = [p["import_s"] / r * NOMINAL_S for p, r in zip(done, refs)]
    problems = sorted(
        {f"{' '.join(c['argv'][:2])}: {msg}" for c in outcomes if not c["ok"] for msg in c.get("problems", [])}
    )
    problems += sorted({p["crashed"] for p in passes if "crashed" in p})
    if len({p["output_sha256"] for p in done}) > 1:
        problems.append("output differs between passes of the same argv")
    if not headrooms:
        problems.append("no record has tolerance > 0 and residual > 0")
    return {
        "operations": len(outcomes),
        "failed_operations": sum(1 for c in outcomes if not c["ok"]),
        "problems": problems,
        "pass_s": walls,
        "pass_s_quartiles": _quartiles(walls),
        "import_s": [p["import_s"] for p in done],
        "reference_s": refs,
        "wall_s": wall_norm,
        "wall_s_quartiles": _quartiles(wall_norm),
        "setup_s": setup_norm,
        "setup_s_quartiles": _quartiles(setup_norm),
        "peak_rss_mb": [p["peak_rss_mb"] for p in done],
        "records_attempted": attempted_records,
        "records_failed": failed_records,
        "fail_share": failed_records / attempted_records,
        "headroom_digits": min(headrooms) if headrooms else 0.0,
        "checks_digest": sorted({p["checks_digest"] for p in done}),
        "output_sha256": sorted({p["output_sha256"] for p in done}),
        # wall_s, setup_s and peak_rss_mb each come from every pass that did not crash
        "passes": len(passes),
        "passes_timed": len(walls),
        "failing_calls": [
            {"argv": c["argv"], "failed_records": c["failed_records"]} for c in done[0]["calls"] if c["failed_records"]
        ],
    }


def environment(interp: dict, args) -> dict:
    return {
        **interp,
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "e2fock" / "cli.py").is_file():
        print(f"error: no e2fock source under {SRC}", file=sys.stderr)
        return 2
    try:
        interp = warm_up()
        calls = calls_for(args.workload, args.seed)
        traced = run_pass(calls, trace=True) if args.trace else None
        passes, durations = [], []
        start = time.perf_counter()
        # stop before a pass that would likely end after the measuring window
        while len(passes) < MIN_PASSES or time.perf_counter() - start + statistics.median(durations) < args.seconds:
            t0 = time.perf_counter()
            passes.append(run_pass(calls, trace=False))
            durations.append(time.perf_counter() - t0)
        summary = summarize(calls, passes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report = {"environment": environment(interp, args), "argv": [c["argv"] for c in calls], **summary}
    if args.trace:
        if "crashed" in traced:
            print(f"error: traced pass: {traced['crashed']}", file=sys.stderr)
            return 1
        if not all(c["ok"] for c in traced["calls"]):
            summary["problems"].append("traced pass failed the gate")
        if traced["output_sha256"] not in summary["output_sha256"]:
            summary["problems"].append("traced output differs from untraced output")
        trace = traced["trace"]
        if trace["bindings_restored"] != trace["bindings_wrapped"]:
            summary["problems"].append("tracer did not restore every binding")
        # the untraced median, rescaled to the host speed the traced pass saw
        untraced_s = statistics.median(summary["wall_s"]) / NOMINAL_S * statistics.fmean(traced["reference_s"])
        values = per_layer_values(trace, traced["wall_s"], untraced_s)
        if untraced_problem(values):
            summary["problems"].append(untraced_problem(values))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in per_layer_spec()}
        report["trace"] = trace
    else:
        metrics = {
            "wall_s": {"value": statistics.median(summary["wall_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(summary["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(summary["peak_rss_mb"]), "unit": "MB"},
            "pass_share": {"value": 1.0 - summary["fail_share"], "unit": "ratio"},
            "headroom_digits": {"value": summary["headroom_digits"], "unit": "digits"},
        }
    report["metrics"] = metrics
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": not summary["problems"],
                "attempted": summary["operations"],
                "failed": summary["failed_operations"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
