import io

import pytest

from perfbench.gate import check_output
from perfbench.workloads import WORKLOADS, calls_for, stratified


@pytest.mark.parametrize("workload", WORKLOADS)
def test_calls_are_deterministic_per_seed_and_differ_across_seeds(workload):
    assert calls_for(workload, 7) == calls_for(workload, 7)
    assert calls_for(workload, 7) != calls_for(workload, 8)


def test_stratified_draws_cover_each_stratum():
    import random

    draws = stratified(random.Random(3), 0.3, 3.9, 12)
    for i, value in enumerate(draws):
        assert 0.3 + 0.3 * i <= value <= 0.3 + 0.3 * (i + 1)


def test_fock_large_dim_never_repeats_a_group_element():
    calls = calls_for("fock-large-dim", 5)
    rs = [r for call in calls for r in call["argv"][call["argv"].index("--r") + 1].split(",")]
    assert len(rs) == 12 and len(set(rs)) == 12


@pytest.mark.parametrize("workload", ["verify-all", "fock-large-dim"])
def test_any_failing_record_fails_the_gate_on_the_default_and_large_dim_workloads(workload):
    assert not any(call.get("known_defects") for call in calls_for(workload, 7))


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        calls_for("no-such-workload", 1)


def test_scalar_special_record_counts_match_the_program():
    import e2fock.cli as cli

    for call in calls_for("scalar-special", 3):
        stream = io.StringIO()
        code = cli.main(call["argv"], stream=stream)
        result = check_output(stream.getvalue(), code, call["records"], call["known_defects"])
        assert result.records == call["records"], call["argv"]
        assert result.ok, result.problems
