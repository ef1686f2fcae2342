import json
import subprocess
import sys
from pathlib import Path

from perfbench.layers import per_layer_spec, per_layer_values, untraced_problem

ROOT = Path(__file__).resolve().parents[2]


def test_per_layer_spec_matches_benchmark_json():
    spec = per_layer_spec()
    names = [m["name"] for m in spec]
    assert len(names) == len(set(names)) <= 128
    assert json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"] == spec


def test_layer_self_times_and_unattributed_add_up_to_the_traced_wall():
    trace = {
        "bindings_wrapped": 10,
        "gate_s": 0.25,
        "stats": {
            "cli.main": {"calls": 1, "total_s": 2.0, "self_s": 0.25},
            "e2group.u_matrix": {"calls": 4, "total_s": 1.5, "self_s": 1.5, "entries": 64, "distinct": 1},
            "specfun.log_factorial": {"calls": 9, "total_s": 0.25, "self_s": 0.25},
        },
    }
    values = per_layer_values(trace, traced_wall_s=2.5, untraced_wall_s=2.0)
    layers = sum(v for k, v in values.items() if k.startswith("layer."))
    assert layers + values["trace.unattributed_s"] == 2.5
    assert values["e2group.u_matrix.repeat_share"] == 0.75
    assert values["trace.overhead_s"] == 0.5
    assert values["trace.gate_s"] == 0.25
    assert values["repk.to_matrix.calls"] == 0
    assert set(values) == {m["name"] for m in per_layer_spec()}


def test_untraced_time_beyond_gating_is_a_gate_problem():
    main = {"calls": 1, "total_s": 2.0, "self_s": 2.0}
    trace = {"bindings_wrapped": 1, "gate_s": 0.4, "stats": {"cli.main": main}}
    assert untraced_problem(per_layer_values(trace, traced_wall_s=2.405, untraced_wall_s=2.0)) is None
    assert untraced_problem(per_layer_values(trace, traced_wall_s=2.45, untraced_wall_s=2.0))


def test_run_fails_without_the_program_source(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-all", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
