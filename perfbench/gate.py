"""Output gate: decides whether one ``e2fock verify`` call produced a valid verdict.

The gate parses every output line as strict JSON (NaN and Infinity are
rejected), requires the record count the workload expects (so an empty grid
cannot pass), and requires the exit code to agree with the records.  A
record whose verdict is fail is a gate problem too, unless its check is one
the call names as a known defect and it carries a residual (an error record
never does).  When a call fails the gate, every record it was expected to
emit counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

RECORD_KEYS = frozenset({"name", "equation", "params", "residual", "tolerance", "pass", "detail"})


@dataclass
class GateResult:
    """What one call's output amounts to."""

    ok: bool
    problems: list[str] = field(default_factory=list)
    records: int = 0
    failed_records: int = 0
    headroom_digits: float | None = None
    digest: str = ""


def _reject_constant(token: str):
    raise ValueError(f"non-strict JSON constant {token}")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"number {token} overflows to {value}")
    return value


def _check_record(rec) -> str | None:
    if not isinstance(rec, dict) or set(rec) != RECORD_KEYS:
        return "record keys differ from the schema"
    if not isinstance(rec["pass"], bool):
        return "pass is not a boolean"
    if not isinstance(rec["tolerance"], (int, float)) or isinstance(rec["tolerance"], bool):
        return "tolerance is not a number"
    if rec["residual"] is not None and (
        not isinstance(rec["residual"], (int, float)) or isinstance(rec["residual"], bool)
    ):
        return "residual is neither a number nor null"
    return None


def headroom_digits(pairs) -> float | None:
    """Min of log10(tolerance/residual) over (tolerance, residual) pairs with tolerance > 0
    and a finite residual > 0; None when no pair qualifies."""
    digits = [
        math.log10(tol / res) for tol, res in pairs if tol > 0 and res is not None and 0 < res < math.inf
    ]
    return min(digits, default=None)


def check_output(text: str, exit_code: int, expected_records: int, known_defects=()) -> GateResult:
    """Gate one call's stdout ``text`` and ``exit_code`` against ``expected_records``.

    A failing record is allowed only if its check is named in ``known_defects``
    and it has a residual.
    """
    problems = []
    records = []
    for lineno, line in enumerate(text.splitlines(), 1):
        try:
            rec = json.loads(line, parse_constant=_reject_constant, parse_float=_finite_float)
        except ValueError as exc:
            problems.append(f"line {lineno}: {exc}")
            continue
        bad = _check_record(rec)
        if bad:
            problems.append(f"line {lineno}: {bad}")
            continue
        records.append(rec)

    if not records:
        problems.append("no records")
    if len(records) != expected_records:
        problems.append(f"{len(records)} records, expected {expected_records}")
    failing = [rec for rec in records if not rec["pass"]]
    failed = len(failing)
    unexpected = sorted(
        {rec["name"] for rec in failing if rec["name"] not in known_defects or rec["residual"] is None}
    )
    if unexpected:
        problems.append(f"unexpected failing checks: {', '.join(unexpected)}")
    if exit_code != (1 if failed else 0):
        problems.append(f"exit code {exit_code} disagrees with {failed} failed records")

    digest = hashlib.sha256()
    for rec in records:
        key = [rec["name"], rec["equation"], rec["params"], rec["pass"]]
        digest.update(json.dumps(key, sort_keys=True).encode() + b"\n")

    ok = not problems
    return GateResult(
        ok=ok,
        problems=problems,
        records=len(records),
        failed_records=failed if ok else expected_records,
        headroom_digits=headroom_digits((rec["tolerance"], rec["residual"]) for rec in records),
        digest=digest.hexdigest(),
    )
