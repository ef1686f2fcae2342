"""One benchmark pass, run in a fresh interpreter by ``perfbench/run.py``.

Times ``import e2fock.cli``, reads ``{"calls": [{"argv": [...], "records":
n}, ...], "trace": bool}`` on stdin, hands each argv to ``e2fock.cli.main``,
gates the output, and prints one JSON summary line on stdout.  The pass's
wall time runs from calling ``main`` to the end of gating its output, summed
over the calls.  The host-speed reference (``perfbench/reference.py``) is
timed once before the first call and once after the last.
"""

from __future__ import annotations

import time

# timed before anything else is imported: the set-up every user's run pays
_start = time.perf_counter()
import e2fock.cli as cli  # noqa: E402

IMPORT_S = time.perf_counter() - _start

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from perfbench.gate import check_output  # noqa: E402
from perfbench.reference import reference  # noqa: E402


def _trace_summary(tracer, bindings_wrapped, bindings_restored, gate_s):
    stats = {}
    for name, s in tracer.stats.items():
        if not s.calls:
            continue
        stats[name] = {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s, **s.counts}
        if s.keys:
            stats[name]["distinct"] = len(s.keys)
    return {
        "bindings_wrapped": bindings_wrapped,
        "bindings_restored": bindings_restored,
        "gate_s": gate_s,
        "stats": stats,
    }


def run_pass(spec: dict) -> dict:
    tracer = None
    if spec.get("trace"):
        from perfbench.tracer import Tracer

        tracer = Tracer()
        bindings_wrapped = tracer.install()

    reference_s = [reference()]
    wall_s = gate_s = 0.0
    calls = []
    output_sha = hashlib.sha256()
    checks_sha = hashlib.sha256()
    try:
        for call in spec["calls"]:
            stream = io.StringIO()
            t0 = time.perf_counter()
            exit_code = cli.main(list(call["argv"]), stream=stream)
            text = stream.getvalue()
            t1 = time.perf_counter()
            gate = check_output(text, exit_code, call["records"], call.get("known_defects", ()))
            t2 = time.perf_counter()
            call_s = t2 - t0
            wall_s += call_s
            gate_s += t2 - t1
            output_sha.update(text.encode())
            checks_sha.update(gate.digest.encode())
            calls.append(
                {
                    "argv": call["argv"],
                    "wall_s": call_s,
                    "exit_code": exit_code,
                    "ok": gate.ok,
                    "problems": gate.problems[:5],
                    "expected_records": call["records"],
                    "records": gate.records,
                    "failed_records": gate.failed_records,
                    "headroom_digits": gate.headroom_digits,
                }
            )
    finally:
        bindings_restored = tracer.restore() if tracer is not None else 0
    reference_s.append(reference())

    summary = {
        "cli_file": cli.__file__,
        "import_s": IMPORT_S,
        "wall_s": wall_s,
        "reference_s": reference_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "output_sha256": output_sha.hexdigest(),
        "checks_digest": checks_sha.hexdigest(),
        "calls": calls,
    }
    if tracer is not None:
        summary["trace"] = _trace_summary(tracer, bindings_wrapped, bindings_restored, gate_s)
    return summary


def main() -> int:
    spec = json.loads(sys.stdin.read())
    print(json.dumps(run_pass(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
