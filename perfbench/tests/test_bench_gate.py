import json

import math

from perfbench.gate import check_output, headroom_digits


def _line(name="c", params=None, residual=1e-12, tolerance=1e-8, passed=True):
    rec = {
        "name": name,
        "equation": "eq",
        "params": params or {"k": 1},
        "residual": residual,
        "tolerance": tolerance,
        "pass": passed,
        "detail": None,
    }
    return json.dumps(rec) + "\n"


def test_valid_output_passes_and_reports_headroom():
    result = check_output(_line() + _line(params={"k": 2}, residual=1e-10), 0, 2)
    assert result.ok and result.records == 2 and result.failed_records == 0
    assert abs(result.headroom_digits - 2.0) < 1e-12


def test_nan_line_is_rejected():
    text = _line() + _line().replace("1e-12", "NaN")
    result = check_output(text, 0, 2)
    assert not result.ok
    assert result.failed_records == 2


def test_infinity_and_overflowing_numbers_are_rejected():
    for token in ("Infinity", "-Infinity", "1e999"):
        assert not check_output(_line().replace("1e-12", token), 0, 1).ok


def test_empty_output_is_rejected():
    result = check_output("", 0, 0)
    assert not result.ok
    assert "no records" in result.problems


def test_wrong_record_count_counts_every_expected_record_as_failed():
    result = check_output(_line() + _line(), 0, 3)
    assert not result.ok
    assert result.failed_records == 3


def test_exit_code_must_agree_with_records():
    known = ["c"]
    assert not check_output(_line(passed=False, residual=1.0), 0, 1, known).ok
    assert not check_output(_line(), 1, 1).ok
    failing = check_output(_line(passed=False, residual=1.0), 1, 1, known)
    assert failing.ok and failing.failed_records == 1


def test_failing_record_fails_the_gate_unless_its_check_is_a_known_defect():
    text = _line() + _line(name="d", passed=False, residual=1.0)
    result = check_output(text, 1, 2)
    assert not result.ok and result.failed_records == 2
    assert "unexpected failing checks: d" in result.problems
    assert not check_output(text, 1, 2, known_defects=["c"]).ok
    allowed = check_output(text, 1, 2, known_defects=["d"])
    assert allowed.ok and allowed.failed_records == 1


def test_digest_ignores_residual_but_not_params():
    base = check_output(_line(), 0, 1).digest
    assert check_output(_line(residual=3e-13), 0, 1).digest == base
    assert check_output(_line(params={"k": 2}), 0, 1).digest != base


def test_error_record_fails_the_gate_even_in_a_known_defect_check():
    result = check_output(_line(passed=False, residual=None), 1, 1, known_defects=["c"])
    assert not result.ok and result.headroom_digits is None and result.failed_records == 1


def test_headroom_skips_zero_tolerance_and_missing_or_non_positive_residuals():
    assert headroom_digits([(0.0, 1e-9), (1e-8, None), (1e-8, 0.0), (1e-8, math.inf)]) is None
    assert headroom_digits([(1e-8, 1e-12), (1e-6, 1e-9), (0.0, 1e-3)]) == 3.0
