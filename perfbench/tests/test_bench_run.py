import statistics

import pytest

from perfbench.reference import NOMINAL_S
from perfbench.run import summarize

CALLS = [{"argv": ["verify", "eigen"], "records": 2}]


def _pass(wall_s, import_s, reference_s):
    call = {"argv": CALLS[0]["argv"], "ok": True, "failed_records": 0, "headroom_digits": 3.0}
    return {
        "wall_s": wall_s,
        "import_s": import_s,
        "reference_s": reference_s,
        "peak_rss_mb": 40.0,
        "output_sha256": "o",
        "checks_digest": "c",
        "calls": [call],
    }


def test_wall_and_setup_are_divided_by_the_host_reference_of_their_pass():
    # the second pass ran on a host twice as slow: the pass, the import and the reference all doubled
    passes = [
        _pass(1.0, 0.1, [NOMINAL_S, NOMINAL_S]),
        _pass(2.0, 0.2, [1.5 * NOMINAL_S, 2.5 * NOMINAL_S]),
        _pass(1.2, 0.1, [NOMINAL_S, NOMINAL_S]),
    ]
    summary = summarize(CALLS, passes)
    assert summary["wall_s"] == pytest.approx([1.0, 1.0, 1.2])
    assert summary["setup_s"] == pytest.approx([0.1, 0.1, 0.1])
    assert statistics.median(summary["wall_s"]) == pytest.approx(1.0)
    assert summary["pass_s"] == [1.0, 2.0, 1.2]
    assert not summary["problems"]


def test_a_crashed_pass_counts_its_records_as_failed_and_is_not_timed():
    crashed = {"crashed": "child exited 1", "calls": [{"ok": False, "failed_records": 2}]}
    summary = summarize(CALLS, [_pass(1.0, 0.1, [NOMINAL_S, NOMINAL_S]), crashed])
    assert summary["records_failed"] == 2
    assert summary["fail_share"] == 0.5
    assert summary["passes_timed"] == 1
    assert summary["problems"] == ["child exited 1"]
