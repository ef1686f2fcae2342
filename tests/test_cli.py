import csv
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from e2fock import cli, e2group, identities, repk
from e2fock.cli import RunConfig, main, suite_intertwining, suite_unitarity
from e2fock.e2group import GroupElement, IrrepLabel, act_on_generator, u_factors, u_matrix
from e2fock.fock import conjugated_block, safe_block
from e2fock.specfun import kummer_phi_seq

from conftest import orthogonality_profile_mp


def run_cli(argv):
    buf = io.StringIO()
    code = main(argv, stream=buf)
    return code, buf.getvalue()


def json_records(out):
    return [json.loads(line) for line in out.splitlines() if line]


def module_env():
    # the environment of a fresh ``python -m e2fock.cli`` that imports this source tree
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))


class TestVerifyExitCodes:
    def test_passing_suite_exits_zero(self):
        code, out = run_cli(["verify", "recurrence", "--k", "0..3", "--x", "1,4"])
        assert code == 0
        assert all(rec["pass"] for rec in json_records(out))

    def test_unknown_suite_usage_error(self, capsys):
        code, _ = run_cli(["verify", "not-a-suite"])
        assert code == 2

    def test_under_truncation_fails(self):
        # dim 8 cannot hold an r = 3 displacement: records fail, exit 1
        code, out = run_cli(["verify", "unitarity", "--dim", "8", "--r", "3"])
        assert code == 1
        recs = [r for r in json_records(out) if r["name"] == "unitarity"]
        assert recs and any(not r["pass"] for r in recs)

    def test_bad_tol_spec_usage_error(self):
        code, _ = run_cli(["verify", "recurrence", "--tol", "nonsense"])
        assert code == 2

    def test_dim_out_of_range_rejected(self):
        code, _ = run_cli(["verify", "unitarity", "--dim", "4"])
        assert code == 2

    def test_one_parser_serves_every_call_in_a_process(self, capsys):
        # main builds its parser once a process; an appended --tol override does not carry into the next call, and
        # an argv the parser refuses between two calls still exits 2
        assert cli.build_parser() is cli.build_parser()
        argv = ["verify", "recurrence", "--k", "0..3", "--x", "1,4"]
        code, out = run_cli([*argv, "--tol", "recurrence=1e-300", "--tol", "recurrence=1e-290"])
        assert code == 1 and {rec["tolerance"] for rec in json_records(out)} == {1e-290}
        assert run_cli([*argv, "--no-such-flag"]) == (2, "")
        assert run_cli(["verify", "recurrence", "--tol"]) == (2, "")
        code, out = run_cli(argv)
        assert code == 0 and {rec["tolerance"] for rec in json_records(out)} == {1e-10}
        assert cli.build_parser().parse_args(["verify", "recurrence"]).tol == []

    def test_precondition_violation_yields_error_record(self):
        # zq = 0.99 is outside the convergence contract: the record reports
        # the error instead of crashing, and the run exits nonzero
        code, out = run_cli(["verify", "hille-hardy", "--k", "0", "--x", "1", "--y", "1", "--zq", "0.99"])
        assert code == 1
        recs = json_records(out)
        assert len(recs) == 1
        assert not recs[0]["pass"]
        assert "error" in recs[0]["detail"]


class TestRecordSchema:
    def test_json_record_fields(self):
        _, out = run_cli(["verify", "identity-a", "--k", "0..1", "--x", "1", "--r", "1"])
        recs = json_records(out)
        assert len(recs) == 2
        for rec in recs:
            assert set(rec) == {"name", "equation", "params", "residual", "tolerance", "pass", "detail"}
            assert rec["pass"] == (rec["residual"] <= rec["tolerance"])
            assert rec["equation"] == "sandwich-identity-a"

    def test_every_record_tagged(self):
        _, out = run_cli(["verify", "eigen", "--lambda", "1", "--k", "0,5"])
        assert all(rec["equation"] for rec in json_records(out))

    def test_csv_format(self):
        _, out = run_cli(["verify", "identity-a", "--k", "0..2", "--x", "1", "--r", "1", "--format", "csv"])
        lines = out.splitlines()
        assert lines[0] == "name,equation,params,residual,tolerance,pass,detail"
        assert len(lines) == 4

    def test_tolerance_override(self):
        _, out = run_cli(["verify", "identity-a", "--k", "0", "--x", "1", "--r", "1", "--tol", "identity-a=1e-30"])
        rec = json_records(out)[0]
        assert rec["tolerance"] == 1e-30

    def test_grid_range_syntax(self):
        _, out = run_cli(["verify", "identity-a", "--k", "0..4", "--x", "0.5,1", "--r", "1"])
        assert len(json_records(out)) == 10


class TestDeterminism:
    def test_verify_byte_identical(self):
        args = ["verify", "lie-algebra", "--seed", "7"]
        _, out1 = run_cli(args)
        _, out2 = run_cli(args)
        assert out1.encode() == out2.encode()

    def test_table_byte_identical(self):
        args = ["table", "u-matrix", "--r", "1.3", "--psi", "0.4", "--phi", "-0.2", "--dim", "12"]
        _, out1 = run_cli(args)
        _, out2 = run_cli(args)
        assert out1.encode() == out2.encode()


class TestTables:
    def test_u_matrix_table_vacuum_entry(self):
        code, out = run_cli(["table", "u-matrix", "--r", "1", "--psi", "0", "--phi", "0", "--dim", "6"])
        assert code == 0
        recs = json_records(out)
        assert len(recs) == 36
        corner = next(r for r in recs if r["m"] == 0 and r["n"] == 0)
        assert corner["re"] == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert corner["im"] == 0.0

    def test_basis_table_ground_value(self):
        _, out = run_cli(["table", "basis", "--lambda", "2", "--k", "0", "--zmax", "10"])
        recs = json_records(out)
        assert recs[0]["re"] == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert len(recs) == 11

    def test_irrep_table_identity_block(self):
        _, out = run_cli(["table", "irrep", "--lambda", "1", "--r", "0", "--k", "-3..3", "--n", "-3..3"])
        recs = json_records(out)
        assert len(recs) == 49
        for rec in recs:
            expect = 1.0 if rec["k"] == rec["n"] else 0.0
            assert rec["re"] == pytest.approx(expect, abs=1e-14)

    def test_profile_table(self):
        _, out = run_cli(["table", "profile", "--k", "0", "--lambda", "2", "--lambda2", "3", "--zmax", "100,400"])
        recs = json_records(out)
        assert [r["zmax"] for r in recs] == [100, 400]

    def test_csv_table_header(self):
        _, out = run_cli(["table", "basis", "--lambda", "1", "--k", "0", "--zmax", "3", "--format", "csv"])
        lines = out.splitlines()
        assert lines[0].startswith("equation,")
        assert len(lines) == 5


class TestSuiteHealth:
    @pytest.mark.parametrize(
        "suite,args",
        [
            ("unitarity", []),
            ("intertwining", []),
            ("eigen", ["--lambda", "1,8", "--k", "-5,0,5"]),
            ("lie-algebra", []),
            ("addition", ["--lambda", "2", "--r", "1", "--k", "-2,0,2"]),
            ("hille-hardy", ["--k", "0,4", "--x", "1", "--y", "2", "--zq", "0.9"]),
            ("orthogonality", ["--lambda", "2"]),
            ("classical-limit", ["--lambda", "2", "--k", "0,5", "--r", "1"]),
            ("kummer-limit", ["--m", "1,3", "--x", "4"]),
            ("identity-b", ["--m", "0..3", "--k", "0,3", "--x", "1", "--r", "1"]),
        ],
    )
    def test_suite_passes(self, suite, args):
        code, out = run_cli(["verify", suite] + args)
        recs = json_records(out)
        assert recs, suite
        assert code == 0, [r for r in recs if not r["pass"]]


class TestStrictInput:
    """Every input either yields records or is refused with exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "identity-a", "--tol", "identty-a=0"],  # a tolerance name no suite reads
            ["verify", "identity-a", "--tol", "identity-a=nan"],
            ["verify", "identity-a", "--k", "5..1"],  # an explicit grid with no values
            ["verify", "identity-a", "--k", "5..1,3", "--x", "1", "--r", "1"],  # a reversed range inside a list
            ["verify", "addition", "--lambda", "4", "--r", "2"],  # lam * r > 6 everywhere: no records
            ["verify", "identity-a", "--k", "1.7", "--x", "1", "--r", "1"],
            ["verify", "kummer-limit", "--n", "100,1000.5"],
            ["verify", "identity-a", "--k", "1", "--x", "nan", "--r", "1"],
            ["verify", "identity-a", "--k", "1", "--x", "1", "--r", "inf"],
            ["table", "basis", "--zmax", "1e400"],
            ["table", "u-matrix", "--dim", "513"],  # above the verify bound: dim^2 entries
            ["table", "u-matrix", "--dim", "1"],
            ["verify", "addition", "--dim", "600"],
            ["verify", "unitarity", "--dim", "32,64"],  # --dim takes one value
            ["verify", "lie-algebra", "--seed", "1..2"],
        ],
    )
    def test_refused(self, argv):
        code, out = run_cli(argv)
        assert code == 2
        assert out == ""

    def test_integral_float_accepted_as_integer(self):
        code, out = run_cli(["verify", "identity-a", "--k", "2.0", "--x", "1", "--r", "1"])
        assert code == 0
        assert json_records(out)[0]["params"]["k"] == 2

    def test_monotone_check_is_guarded(self):
        # r < 0 is not a group element: error records and exit 1, not a crash
        code, out = run_cli(["verify", "unitarity", "--r", "-1"])
        assert code == 1
        recs = json_records(out)
        assert [r["name"] for r in recs] == ["unitarity", "unitarity-monotone"]
        assert all(not r["pass"] and r["detail"].startswith("error:") for r in recs)


def test_verify_all_record_schedule():
    # names, equations, params and tolerances of every record, in order;
    # residuals are left out so the digest holds across numpy/BLAS builds
    code, out = run_cli(["verify", "all"])
    assert code == 0
    lines = [
        json.dumps([r["name"], r["equation"], r["params"], r["tolerance"]], sort_keys=True) + "\n"
        for r in json_records(out)
    ]
    assert len(lines) == 1246
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "bcc9e71c52537500b1df35d213ccad1f7353e97ff0a41bde8a172e32b47bfd9c"


def test_verify_all_csv_schedule():
    # the CSV columns name, equation and params of every record, in order; unlike
    # the JSON digest above, which sorts keys, this one sees the order of the params
    code, out = run_cli(["verify", "all", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    lines = [json.dumps([row["name"], row["equation"], row["params"]]) + "\n" for row in rows]
    assert len(lines) == 1246
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "63f5ad69252102b7c38843edb799e15358ddcce82bd89ff85c53af02da7a8634"


def test_report_decides_each_pass_and_calls_a_detail_only_on_failure():
    # report is the one builder of records: pass iff residual <= tolerance, and a
    # callable detail (the addition diagnostic) runs once for each failing record only
    calls = []

    def diagnose():
        calls.append(None)
        return "diagnosed"

    residuals = [0.0, 1e-3, 2e-3, math.inf, math.nan]
    cfg = RunConfig({"kummer-limit": 1e-3})
    recs = cli._sweep(cfg, ["kummer-limit"], {"x": residuals}, lambda report, x: report(x, diagnose))
    passes = [r["pass"] for r in recs]
    assert passes == [r["residual"] <= r["tolerance"] for r in recs] == [True, True, False, False, False]
    assert [r["detail"] for r in recs] == [None, None, "diagnosed", "diagnosed", "diagnosed"]
    assert len(calls) == 3
    (rec,) = cli.suite_identity_a(RunConfig(grid={"k": [2], "x": [1.0], "r": [1.0]}))
    # a record is its output row: the seven CSV columns, in order
    assert list(rec) == ["name", "equation", "params", "residual", "tolerance", "pass", "detail"]
    assert (rec["name"], rec["equation"], rec["params"], rec["tolerance"]) == (
        "identity-a",
        "sandwich-identity-a",
        {"k": 2, "x": 1.0, "r": 1.0},
        1e-10,
    )
    assert rec["pass"] == (rec["residual"] <= rec["tolerance"])


@pytest.mark.parametrize(
    "argv",
    [["verify", "addition", "--r", "0"], ["verify", "addition", "--r", "0,1e-16", "--lambda", "1", "--k", "0,2"]],
)
def test_addition_holds_at_the_identity_translation(argv):
    # an r below 1e-15 is the identity translation: both checks hold there, and every record reads r = 0.0
    code, out = run_cli(argv)
    recs = json_records(out)
    assert code == 0 and recs and all(r["pass"] for r in recs)
    assert {r["name"] for r in recs} == {"addition", "addition-vacuum"}
    assert {repr(r["params"]["r"]) for r in recs} == {"0.0"}


@pytest.mark.parametrize(
    "argv, records",
    [
        (["verify", "eigen", "--lambda", "80", "--k", "0,3"], 2),
        (["verify", "eigen", "--lambda", "1e8", "--k", "0,3"], 2),
        (["verify", "addition", "--lambda", "80", "--r", "0.05", "--k", "0,2"], 4),
    ],
)
def test_an_underflowed_eigenbasis_fails_its_records(argv, records):
    # e^{-lam^2/8} is 0.0 above lam ~ 77.2, so D_k's prefactor is too: each point is an error record naming lam
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_cli(argv)
    recs = json_records(out)
    assert code == 1 and len(recs) == records
    for r in recs:
        assert not r["pass"] and r["residual"] is None
        assert r["detail"].startswith(f"error: basis_d at lam={r['params']['lam']!r}, k=")
        assert r["detail"].endswith(" e^(-lam^2/8) is 0.0, below the normal float range")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "eigen", "--lambda", "1e-300", "--k", "5"],
        ["verify", "eigen", "--lambda", "1e-30", "--k", "20"],
        ["verify", "addition", "--lambda", "1e-300", "--r", "1", "--k", "2,4"],
    ],
)
def test_a_vanished_eigenbasis_fails_its_records(argv, capfd):
    # (lam/2)^|k|/|k|! underflows, so D_k is identically 0: no record passes on it, and nothing is printed
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_cli(argv)
    recs = json_records(out)
    assert code == 1 and recs and capfd.readouterr().err == ""
    for r in recs:
        k = r["params"]["k"]
        assert not r["pass"] and r["residual"] is None
        assert r["detail"] == (
            f"error: basis_d at lam={r['params']['lam']!r}, k={k}: the prefactor (lam/2)^{k}/{k}! e^(-lam^2/8)"
            " is 0.0, below the normal float range"
        )


def test_addition_skips_by_the_stored_r():
    # r = 1e-16 is stored as 0.0, so lam * r = 0 and the point is checked, not skipped
    code, out = run_cli(["verify", "addition", "--r", "1e-16", "--lambda", "1e20", "--k", "0"])
    recs = json_records(out)
    assert code == 1 and [r["name"] for r in recs] == ["addition", "addition-vacuum"]
    assert all(r["params"]["r"] == 0.0 and "basis_d at lam=1e+20, k=0" in r["detail"] for r in recs)


def test_orthogonality_growth_reads_the_zeta_1000_checkpoint():
    # the third value of each growth detail is the running sum to zeta = 1000
    code, out = run_cli(["verify", "orthogonality"])
    growth = [r for r in json_records(out) if r["name"] == "orthogonality-diagonal-growth"]
    assert code == 0 and len(growth) == 6
    for r in growth:
        k, lam = r["params"]["k"], r["params"]["lam1"]
        want = repr(float(identities.orthogonality_profile_curve(k, lam, lam, 1001)[1000]))
        assert r["detail"].split(", ")[-1] == want


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "orthogonality", "--lambda", "1e-30", "--k", "20"],  # (lam/2)^20/20! underflows to 0
        ["verify", "orthogonality", "--lambda", "1e-300", "--k", "1"],  # each product (lam/2)^2 (zeta+1) underflows
    ],
)
def test_a_vanished_profile_fails_its_growth_record(argv, capfd):
    # the diagonal profile was once read as 0.0, 0.0, 0.0, a growth that passed
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_cli(argv)
    (growth,) = [r for r in json_records(out) if r["name"] == "orthogonality-diagonal-growth"]
    assert code == 1 and capfd.readouterr().err == ""
    assert not growth["pass"] and growth["residual"] is None and growth["detail"].startswith("error: ")


def test_a_tiny_profile_passes_on_its_values():
    # D_100's profile at lam = 1 is about 5.6e-76 at zeta = 1000, far below the product of its two prefactors
    code, out = run_cli(["verify", "orthogonality", "--lambda", "1", "--k", "100"])
    (growth,) = [r for r in json_records(out) if r["name"] == "orthogonality-diagonal-growth"]
    values = [float(v) for v in growth["detail"].removeprefix("diagonal profile ").split(", ")]
    assert code == 0 and growth["pass"] and 0 < values[0] < values[1] < values[2]
    assert values[2] == pytest.approx(float(orthogonality_profile_mp(100, 1.0, 1.0, 1000)), rel=1e-12)


def _counting(monkeypatch, name):
    # the arguments of every call to identities.<name>, which still builds
    built = []
    build = getattr(identities, name)

    def counting(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(identities, name, counting)
    return built


def test_hille_hardy_builds_each_laguerre_sequence_once(monkeypatch):
    # each Laguerre sequence is a Kummer sequence Phi(-n, 1+k; x): 21 distinct (1 + k, x or y) on
    # the default grid, x and y sharing values, all run as lanes of one call to n = 443 (zq = 0.9)
    built = _counting(monkeypatch, "kummer_phi_seq")
    code, out = run_cli(["verify", "hille-hardy"])
    assert code == 0 and len(json_records(out)) == 126
    ((nmax, b, x),) = built
    assert nmax == 443
    lanes = list(zip(b.tolist(), x.tolist()))
    assert len(lanes) == len(set(lanes)) == 21
    assert set(lanes) == {(1 + k, v) for k in range(7) for v in (0.5, 2.0, 4.0)}


@pytest.mark.parametrize(
    "argv,calls,blocks",
    [
        # the arguments 2 sqrt(xy zq)/(1 - zq) past 30 are 37.9, 53.7 and 75.9, at zq = 0.9 and xy = 4, 8 and 16,
        # each read by k = 0..6, below its ceiling: one Miller run each, where one a point made 28
        (["verify", "hille-hardy"], 3, 7),
        # a seeded scalar-special grid: 12 such arguments, where one a point made 84
        (
            ["verify", "hille-hardy", "--k", "0..6", "--x", "1.3685,2.1275,2.3558,3.4161"]
            + ["--y", "1.1313,1.9973,3.0694,3.4943", "--zq", "0.5664,0.6336,0.6843,0.7870,0.8906"],
            12,
            28,
        ),
    ],
    ids=["default", "seeded"],
)
def test_hille_hardy_runs_one_miller_run_per_argument(argv, calls, blocks, monkeypatch):
    # orders sharing an argument above 30 and max(k, ceil(argument)) share a Miller run, as its start index depends
    # on that max alone, over the whole grid call: at a 16 KiB block cap the Kummer lanes run in 7 or 28 blocks, and
    # the runs do not repeat; the records are those of one I_k at a time
    from e2fock import specfun

    want = run_cli(argv)
    runs, miller = [], specfun._miller_seq
    monkeypatch.setattr(specfun, "_miller_seq", lambda *args: runs.append(args) or miller(*args))
    lanes = _lane_calls(monkeypatch, ["kummer_phi_seq"])
    for cap, lane_calls in [(identities._BLOCK_BYTES, 1), (2**14, blocks)]:
        runs.clear(), lanes.clear()
        monkeypatch.setattr(identities, "_BLOCK_BYTES", cap)
        assert run_cli(argv) == want and want[0] == 0 and len(lanes) == lane_calls
        assert [(sign, step) for _, _, sign, step in runs] == [(1, 1)] * calls
        assert len({x for _, x, _, _ in runs}) == calls
    grid = identities.hille_hardy_residual.grid
    monkeypatch.setattr(
        identities.hille_hardy_residual, "grid", lambda points: [grid([point])[0] for point in points]
    )
    assert run_cli(argv) == want


@pytest.mark.parametrize(
    "argv,details",
    [
        # the weights C(n+k, n) zq^n peak near n = 9k and fall slowly past it, so the sum's last term, n = 443, still
        # counts
        (
            ["verify", "hille-hardy", "--k", "28,40,60", "--x", "0.5", "--y", "0.5", "--zq", "0.9"],
            ["1.123e-13 vs scale 8.709e-05", "2.772e-15 vs scale 2.609e-11", "1.324e-27 vs scale 2.142e-25"],
        ),
        # L_n(500) still grows at the sum's last term, n = 109
        (
            ["verify", "hille-hardy", "--k", "0", "--x", "500", "--y", "500", "--zq", "0.5"],
            ["6.263e+174 vs scale 1.650e+178"],
        ),
    ],
    ids=["wide-k", "wide-x"],
)
def test_hille_hardy_names_a_non_convergent_tail(argv, details):
    code, out = run_cli(argv)
    recs = json_records(out)
    assert code == 1 and [rec["pass"] for rec in recs] == [False] * len(details)
    assert [rec["detail"] for rec in recs] == [f"non-convergent tail: last term {d}" for d in details]


def test_hille_hardy_runs_no_lane_for_a_refused_point(monkeypatch):
    built = _counting(monkeypatch, "kummer_phi_seq")
    code, out = run_cli(["verify", "hille-hardy", "--zq", "0.96"])
    assert code == 1 and len(json_records(out)) == 63 and built == []


def test_identity_b_builds_each_hyp2f0_column_once(monkeypatch):
    # the default grid is one block: its 51 2F0 columns, 17 distinct m + k at each of 3 r, are one hyp2f0_seq lane
    # call per r, and its 49 Bessel rows, 7 k by 7 distinct 2xr, one bessel_j_seq lane call to order 80 + k
    columns, rows = _counting(monkeypatch, "hyp2f0_seq"), _counting(monkeypatch, "bessel_j_seq")
    code, out = run_cli(["verify", "identity-b"])
    assert code == 0 and len(json_records(out)) == 693
    assert [(m.tolist(), nmax, x) for m, nmax, x in columns] == [
        (list(range(17)), 80, -1.0 / (r * r)) for r in (0.5, 1.0, 1.5)
    ]
    ((nmax, z),) = rows
    assert len(set(zip(nmax.tolist(), z.tolist()))) == len(z) == 49 and set(nmax.tolist()) == set(range(80, 87))


def _lane_calls(monkeypatch, names):
    # (name, lanes, bytes) of every call to identities.<name> for each name, which still runs: lanes is None for a
    # scalar call
    calls = []
    for name in names:
        build = getattr(identities, name)

        def counting(*args, build=build, name=name):
            value = build(*args)
            lanes = next((len(arg) for arg in args[:2] if isinstance(arg, np.ndarray)), None)
            calls.append((name, lanes, value.nbytes))
            return value

        monkeypatch.setattr(identities, name, counting)
    return calls


def test_a_grid_keeps_its_shared_arrays_under_the_block_cap(monkeypatch):
    # identity-b's kernel builds its factor rows as one lane table a kind a block: by default three hyp2f0_seq lane
    # calls and one bessel_j_seq lane call; at a 64 KiB block cap the 693 points' Kummer lanes are still one call,
    # and their tables fill 5 blocks, each a Bessel lane call and a 2F0 lane call for each of its 3 r, with the same
    # output, and no lane array past the cap
    calls = _lane_calls(monkeypatch, ["kummer_phi_seq", "bessel_j_seq", "hyp2f0_seq"])
    want = run_cli(["verify", "identity-b"])
    assert [(name, lanes) for name, lanes, _ in calls] == [
        ("kummer_phi_seq", 21), ("bessel_j_seq", 49), ("hyp2f0_seq", 17), ("hyp2f0_seq", 17), ("hyp2f0_seq", 17)
    ]
    calls.clear()
    monkeypatch.setattr(identities, "_BLOCK_BYTES", 2**16)
    assert run_cli(["verify", "identity-b"]) == want
    block = ["bessel_j_seq", "hyp2f0_seq", "hyp2f0_seq", "hyp2f0_seq"]
    assert [name for name, _, _ in calls] == ["kummer_phi_seq", *block * 5]
    bessel_lanes = [lanes for name, lanes, _ in calls if name == "bessel_j_seq"]
    assert bessel_lanes == [49, 49, 49, 49, 7]
    assert None not in [lanes for _, lanes, _ in calls] and max(nbytes for *_, nbytes in calls) <= 2**16


def test_identity_b_at_a_wide_k_keeps_its_lane_arrays_under_the_block_cap(monkeypatch):
    # at k = 400 a Bessel lane holds 481 floats and a 2F0 table 81 x 91: a 64 KiB block of tables holds one point,
    # its rows scalar calls, while the 3 Kummer lanes are one lane call; the default cap holds the 99 points in one
    # block of lane calls; the bytes never change
    want = run_cli(["verify", "identity-b", "--k", "400"])
    calls = _lane_calls(monkeypatch, ["kummer_phi_seq", "bessel_j_seq", "hyp2f0_seq"])
    monkeypatch.setattr(identities, "_BLOCK_BYTES", 2**16)
    assert run_cli(["verify", "identity-b", "--k", "400"]) == want
    assert [(name, lanes) for name, lanes, _ in calls] == [
        ("kummer_phi_seq", 3), *[("bessel_j_seq", None), ("hyp2f0_seq", None)] * 99
    ]
    assert max(nbytes for *_, nbytes in calls) <= 2**16
    calls.clear()
    monkeypatch.setattr(identities, "_BLOCK_BYTES", 2**20)
    assert run_cli(["verify", "identity-b", "--k", "400"]) == want
    assert [(name, lanes) for name, lanes, _ in calls] == [
        ("kummer_phi_seq", 3), ("bessel_j_seq", 7), ("hyp2f0_seq", 11), ("hyp2f0_seq", 11), ("hyp2f0_seq", 11)
    ]


def test_identity_b_at_a_wide_m_charges_one_2f0_table_a_block(monkeypatch):
    # the 2F0 lane calls run one at a time, so a block is charged one 2F0 table, not one a row key: at m = 1000 the
    # default cap holds the 63 points' Kummer lanes in one lane call and their tables in 2 blocks of lane calls (63
    # one-point blocks when each key was charged a table), no lane array past the cap, and the bytes are those of one
    # point at a time
    argv = ["verify", "identity-b", "--m", "1000"]
    calls = _lane_calls(monkeypatch, ["kummer_phi_seq", "bessel_j_seq", "hyp2f0_seq"])
    want = run_cli(argv)
    assert [lanes for name, lanes, _ in calls if name == "kummer_phi_seq"] == [21]
    assert [lanes for name, lanes, _ in calls if name == "bessel_j_seq"] == [27, 22]
    assert None not in [lanes for _, lanes, _ in calls]
    assert max(nbytes for *_, nbytes in calls) <= identities._BLOCK_BYTES
    grid = identities.identity_b.grid
    monkeypatch.setattr(identities.identity_b, "grid", lambda points: [grid([point])[0] for point in points])
    assert run_cli(argv) == want


def test_hille_hardy_builds_each_log_factorial_vector_once(monkeypatch):
    # nmax is 109 at zq = 0.5 and 443 at zq = 0.9 and k runs 0..6: the 14 passes, one a (k, zq), slice one vector of
    # log n! to n = 443 + 6
    built = _counting(monkeypatch, "_log_factorials")
    code, out = run_cli(["verify", "hille-hardy"])
    assert code == 0 and len(json_records(out)) == 126
    assert built == [(449,)]


_GRID_CHECKS = ["kummer_recurrence_residual", "identity_a", "identity_b", "hille_hardy_residual"]

# 16 x values over perfbench's recurrence span [0.25, 16]
_RECURRENCE_XS = ",".join(f"{0.25 + 0.9843 * i:.4f}" for i in range(16))


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["verify", "identity-b"], id="identity-b"),
        pytest.param(["verify", "hille-hardy"], id="hille-hardy"),
        pytest.param(["verify", "identity-a"], id="identity-a"),
        pytest.param(["verify", "recurrence"], id="recurrence"),
        # every 2F0 column overflows: error records
        pytest.param(["verify", "identity-b", "--r", "1e-200"], id="identity-b-r-1e-200"),
        # the weights overflow and the sum is NaN
        pytest.param(["verify", "identity-b", "--x", "1", "--r", "3e5", "--m", "4", "--k", "2"], id="identity-b-nan"),
        pytest.param(["verify", "hille-hardy", "--zq", "0.96"], id="hille-hardy-refused"),
        pytest.param(["verify", "recurrence", "--zmax", "1"], id="recurrence-zmax-1"),
        # 21 b by 16 x: 336 lanes in one block
        pytest.param(["verify", "recurrence", "--k", "0..20", "--x", _RECURRENCE_XS], id="recurrence-336-lanes"),
        # every D_n of a lam, every U(g) and every Bessel row is built once for both addition checks
        pytest.param(["verify", "addition", "--lambda", "1e-300"], id="addition-lambda-1e-300"),
        pytest.param(["verify", "addition"], id="addition"),
        # three failing records, whose diagnostics build their left sides again
        pytest.param(["verify", "addition", "--dim", "32"], id="addition-dim-32"),
    ],
)
def test_grid_forms_one_point_at_a_time_change_no_byte(argv, monkeypatch):
    # each grid form run one point at a time, its kernel's 2-D passes one row each: nothing shared between points,
    # every value computed afresh for its point
    want = run_cli(argv)
    for name in _GRID_CHECKS:
        check = getattr(identities, name)
        monkeypatch.setattr(check, "grid", lambda points, grid=check.grid: [grid([point])[0] for point in points])
    grid = identities.addition_grid
    monkeypatch.setattr(
        identities,
        "addition_grid",
        lambda theorem, vacuum: ([grid([p], [])[0][0] for p in theorem], [grid([], [p])[1][0] for p in vacuum]),
    )
    assert run_cli(argv) == want


def _lane_blocks(built):
    # (top degree, lanes) of each kummer_phi_seq call that _counting saw run lanes
    return [(nmax, len(b)) for nmax, b, _ in built if isinstance(b, np.ndarray)]


def test_a_recurrence_grid_splits_into_a_block_and_a_rest(monkeypatch):
    # the 336 lanes of the recurrence-336-lanes case above fit one 2^20-byte block at 202 values a lane; at 402
    # values, 326 fill a block and 10 are the rest
    built = _counting(monkeypatch, "kummer_phi_seq")
    assert run_cli(["verify", "recurrence", "--k", "0..20", "--x", _RECURRENCE_XS])[0] == 0
    assert run_cli(["verify", "recurrence", "--k", "0..20", "--x", _RECURRENCE_XS, "--zmax", "400"])[0] == 0
    assert _lane_blocks(built) == [(201, 336), (401, 326), (401, 10)] and len(built) == 3


def _counting_grid(monkeypatch, name):
    # the number of points of every call to identities.<name>.grid, which still runs
    calls, grid = [], getattr(identities, name).grid

    def counting(points):
        calls.append(len(points))
        return grid(points)

    monkeypatch.setattr(getattr(identities, name), "grid", counting)
    return calls


def test_each_scalar_suite_runs_its_grid_form_once(monkeypatch):
    called = {name: _counting_grid(monkeypatch, name) for name in _GRID_CHECKS}
    for suite in ("recurrence", "identity-a", "identity-b", "hille-hardy"):
        assert run_cli(["verify", suite])[0] == 0
    assert called == {
        "kummer_recurrence_residual": [84],
        "identity_a": [132],
        "identity_b": [693],
        "hille_hardy_residual": [126],
    }


@pytest.mark.parametrize(
    "suite,cap",
    # caps that split each suite's default lanes into several blocks
    [("recurrence", 40000), ("identity-a", 5000), ("hille-hardy", 71040)],
)
def test_blocks_under_small_caps_change_no_byte(suite, cap, monkeypatch):
    # a grid's lanes run in blocks of at most _BLOCK_BYTES each; more, smaller blocks give the same bytes
    built = _counting(monkeypatch, "kummer_phi_seq")
    want = run_cli(["verify", suite])
    default_blocks = _lane_blocks(built)
    built.clear()
    monkeypatch.setattr(identities, "_BLOCK_BYTES", cap)
    assert run_cli(["verify", suite]) == want
    blocks = _lane_blocks(built)
    assert len(blocks) == len(built)  # every run is a lane of a block
    assert len(blocks) > len(default_blocks) == 1
    assert all(8 * (nmax + 1) * lanes <= cap for nmax, lanes in blocks)


def test_a_grid_past_the_block_cap_runs_in_blocks(monkeypatch):
    # the 84 lanes to degree 2001 hold 1.3 MB: 2^20 bytes hold 65 of them and 2^19 bytes 32; under a cap below
    # one lane, each point is a block of its own, run as its scalar run
    built = _counting(monkeypatch, "kummer_phi_seq")
    for argv, caps in (
        (["verify", "recurrence", "--zmax", "2000"], {2**20: [65, 19], 2**19: [32, 32, 20]}),
        (["verify", "recurrence", "--k", "0..2"], {2**20: [12], 1: ["scalar"] * 12}),
    ):
        outputs = []
        for cap, lanes in caps.items():
            built.clear()
            monkeypatch.setattr(identities, "_BLOCK_BYTES", cap)
            outputs.append(run_cli(argv))
            assert [len(b) if isinstance(b, np.ndarray) else "scalar" for _, b, _ in built] == lanes
        assert outputs[0] == outputs[1]


def _grid_peak(check, points):
    # the outcomes of check.grid(points), and the peak bytes the call traced
    tracemalloc.start()
    try:
        return check.grid(points), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "name,points,multiple",
    [
        # the points of verify recurrence --k 0..40 --x <16 values> --zmax 2000: 656 lanes of 2002 floats, 10.0 MiB,
        # and 2-D passes of eight arrays of 2001 floats a point, 80 MiB, if each were one array; measured 2.3
        pytest.param(
            "kummer_recurrence_residual",
            [(1 + k, 0.25 + 0.9843 * i, 2000) for k in range(41) for i in range(16)],
            3,
            id="recurrence",
        ),
        # 3360 points of eight arrays of 81 floats each, 16.6 MiB in one pass; the rest of the peak is the points'
        # requests and outcomes, about 1 KiB a point; measured 4.5
        pytest.param(
            "identity_b",
            list(itertools.product(range(21), range(10), [0.5, 0.9, 1.3, 1.7], [0.6, 0.9, 1.2, 1.5])),
            6,
            id="identity-b",
        ),
        # 640 points at k = 400..439, whose factor rows of 481 to 520 floats, not their Kummer runs, fill the blocks:
        # 6 blocks of tables of about 115 Bessel rows and 58 2F0 columns each, the Kummer lanes one call; measured 1.5
        pytest.param(
            "identity_b",
            list(itertools.product(range(4), range(400, 440), [0.5, 1.3], [0.6, 1.5])),
            3,
            id="identity-b-wide-k",
        ),
    ],
)
def test_a_grid_holds_a_bounded_multiple_of_the_block_cap(name, points, multiple, monkeypatch):
    check = getattr(identities, name)
    want, peak = _grid_peak(check, points)
    assert peak < multiple * identities._BLOCK_BYTES
    monkeypatch.setattr(identities, "_BLOCK_BYTES", 2**19)
    assert [repr(outcome) for outcome in check.grid(points)] == [repr(outcome) for outcome in want]


def test_a_grid_runs_no_lane_its_checks_refuse(monkeypatch):
    # x^2 = inf at all 21 points; identity_a refuses each point before it asks for a run
    built = _counting(monkeypatch, "kummer_phi_seq")
    code, out = run_cli(["verify", "identity-a", "--k", "0..20", "--x", "1e200", "--r", "1e-200"])
    recs = json_records(out)
    assert code == 1 and len(recs) == 21 and built == []
    assert all(rec["detail"].endswith(": x^2 is outside the float range") for rec in recs)


def test_identity_b_sums_under_small_caps_change_no_byte(monkeypatch):
    # the 693 n-sums come in 2-D passes of at most _BLOCK_BYTES at 8 x 81 x 8 bytes a point, split where the
    # points' factor tables fill a block: the default 2^20 bytes hold 202 points, 2^16 bytes 12
    passes = _counting(monkeypatch, "_identity_b_sums")
    want = run_cli(["verify", "identity-b"])
    assert [len(xrs) for *_, xrs in passes] == [202, 202, 202, 87]
    passes.clear()
    monkeypatch.setattr(identities, "_BLOCK_BYTES", 2**16)
    assert run_cli(["verify", "identity-b"]) == want
    # the 5 blocks of tables hold 306, 189, 126, 63 and 9 points
    assert [len(xrs) for *_, xrs in passes] == [
        size for points in [306, 189, 126, 63, 9] for size in [12] * (points // 12) + [points % 12]
    ]


@pytest.mark.parametrize(
    "name,failing",
    [
        # the 18 addition-vacuum residuals under this scaling all read 1e-9, their tolerance, to six digits,
        # so which of them fail is a matter of ulps
        ("kummer_phi_seq", {"identity-b": 185, "identity-a": 131, "addition-vacuum": 8}),
        ("bessel_j_seq", {"identity-b": 168}),
    ],
)
def test_a_scaled_primitive_reaches_every_check_that_reads_it(name, failing, monkeypatch):
    # a lane run that bypassed identities' binding of the primitive would keep its true values, and
    # the records that read them would pass
    scaled = getattr(identities, name)
    monkeypatch.setattr(identities, name, lambda *args: scaled(*args) * (1 + 1e-9))
    code, out = run_cli(["verify", "all"])
    names = [rec["name"] for rec in json_records(out) if not rec["pass"]]
    assert code == 1 and {n: names.count(n) for n in set(names)} == failing


def test_addition_diagnostic_skips_diagonals_outside_the_block():
    # at dim 32 the r = 2 safe block misses the outer D_n diagonals; the
    # per-n diagnostic skips those rather than dividing by a zero norm
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(["verify", "addition", "--dim", "32"])
    assert [str(w.message) for w in caught] == []
    recs = json_records(out)
    assert code == 1 and len(recs) == 54
    failing = [(r["params"]["lam"], r["params"]["k"], r["params"]["r"]) for r in recs if not r["pass"]]
    assert failing == [(1.0, -4, 2.0), (1.0, 3, 2.0), (1.0, 4, 2.0)]
    for r in recs:
        assert "nan" not in (r["detail"] or "")
        assert r["pass"] or r["detail"].startswith("per-n coefficient mismatch: n=")


@pytest.mark.parametrize(
    "argv, worst",
    [
        (["--lambda", "0.001", "--k", "5", "--r", "0.5"], 1e-10),  # failed at 1.8e-6: 9.6e-12 now
        (["--lambda", "0.01", "--k", "6", "--r", "0.5"], 1e-10),  # failed at 1.2e-7: 4.0e-11 now
        (["--lambda", "3e-16", "--k", "1"], 1e-12),  # failed at 0.083 (r = 0.5): 2.3e-14 now
    ],
)
def test_an_addition_term_below_1e_16_counts_where_d_n_outweighs_d_k(argv, worst):
    # at small lam, D_n with |n| < |k| outweighs D_k by far, so t_kn below 1e-16 still moves the sum: each term
    # with |t_kn| ||D_n|| >= 1e-16 ||D_k|| on the block is kept, where dropping it failed with a per-n coefficient
    # mismatch
    code, out = run_cli(["verify", "addition", *argv])
    recs = json_records(out)
    assert code == 0 and all(r["pass"] for r in recs)
    assert max(r["residual"] for r in recs if r["name"] == "addition") < worst


def full_unitarity_defect(U, dim, block):
    # the whole dim x dim product, then its leading block
    return np.linalg.norm((U.conj().T @ U - np.eye(dim))[:block, :block])


def long_double_intertwining_residual(g, dim, b):
    # U a U* - (e^{i phi} a + r e^{i psi}) on the leading b x b block, from U's factors in long double: two
    # real products through the complex middle D_col a D_col*, whatever the column phases are
    row, col, M = (f.astype(np.clongdouble if np.iscomplexobj(f) else np.longdouble) for f in u_factors(g, dim, b))
    roots = np.sqrt(np.arange(1, dim, dtype=np.longdouble))
    mid = col[:-1] * roots * col[1:].conj()
    re, im = (np.dot(M[:, :-1] * part, M[:, 1:].T) for part in (mid.real, mid.imag))  # dot: matmul is slower
    block = row[:b, None] * (re + 1j * im) * row[:b].conj()
    alpha, beta = act_on_generator(g)
    block[np.diag_indices(b)] -= beta
    block[np.arange(b - 1), np.arange(1, b)] -= alpha * roots[: b - 1]
    return float(np.max(np.abs(block)))


def complex_intertwining_residual(g, dim):
    # the complex form on the checked block: U a U* from conjugated_block, then the two subtractions and abs
    b = max(safe_block(dim, g.r), min(dim, 4))
    block = conjugated_block(identities.u_factors(g, dim, b), np.sqrt(np.arange(1.0, dim)), 1, b)
    alpha, beta = act_on_generator(g)
    np.einsum("ii->i", block)[...] -= beta
    np.einsum("ii->i", block[:-1, 1:])[...] -= alpha * np.sqrt(np.arange(1.0, b))
    return np.max(np.abs(block))


class TestBlockProducts:
    """The suites multiply only the checked block of flushed operands."""

    # 0.9 at dim 512 is where float64 products move intertwining most, by about 1.3e-14;
    # the last r is the one the monotone record uses
    RS = [1e-13, 0.3, 6.0, 3.9, 0.9, 1.7]

    @pytest.mark.parametrize("dim", [8, 64, 512])
    def test_unitarity_matches_full_product(self, dim):
        cfg = RunConfig(grid={"dim": [dim], "r": self.RS})
        recs = suite_unitarity(cfg)
        assert [r["name"] for r in recs] == ["unitarity"] * len(self.RS) + ["unitarity-monotone"]
        for rec, r in zip(recs, self.RS):
            g = GroupElement(r, 0.7, 0.3)
            old = full_unitarity_defect(u_matrix(g, dim), dim, max(safe_block(dim, r), min(dim, 4)))
            assert abs(rec["residual"] - old) <= 1e-14, (dim, r, rec["residual"], old)
            assert rec["pass"] == (old <= rec["tolerance"])
        block = safe_block(32, 1.7)
        g = GroupElement(1.7, 0.7, 0.3)
        defects = [full_unitarity_defect(u_matrix(g, d), d, block) for d in (32, 64, 128)]
        old = max(d2 - max(d1, 1e-13) for d1, d2 in zip(defects, defects[1:]))
        assert abs(recs[-1]["residual"] - old) <= 1e-14
        assert recs[-1]["pass"] == (old <= 0.0)

    @pytest.mark.parametrize("dim", [8, 64, 512])
    def test_intertwining_matches_full_product(self, dim):
        # against the block in long double: a dense complex float64 product is itself 1.1e-14 off at r = 0.9,
        # dim 512.  Entries of U a U* have size up to sqrt(b), so float64 rounding moves them by about
        # 8 eps sqrt(b), 3.7e-14 at b = 433; the record stays within that at 1 and 2 BLAS threads
        recs = suite_intertwining(RunConfig(grid={"dim": [dim], "r": self.RS}))
        assert len(recs) == len(self.RS)
        for rec, r in zip(recs, self.RS):
            g = GroupElement(r, 0.7, 0.3)
            b = max(safe_block(dim, r), min(dim, 4))
            exact = long_double_intertwining_residual(g, dim, b)
            assert abs(rec["residual"] - exact) <= 8 * np.finfo(float).eps * math.sqrt(b), (dim, r, rec, exact)
            assert rec["pass"] == (exact <= rec["tolerance"])

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 64, 97, 130, 300, 512])
    def test_intertwining_is_the_complex_blocks_float(self, dim):
        # the real core's residual against the complex block's, float for float: rotations (r below 1e-12), tiny
        # r whose cores flush most entries, and r up to 13, with angles in every quadrant
        rng = np.random.default_rng(dim)
        rs = [*self.RS, 0.0, 1e-12 * rng.random(), *10.0 ** rng.uniform(-11, -3, 2), *rng.uniform(0, 13, 5)]
        for r in rs:
            g = GroupElement(r, *rng.uniform(-4, 4, 2))
            assert identities.intertwining_residual(g, dim).residual == complex_intertwining_residual(g, dim), (r, g)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 1e300])
    def test_intertwining_of_a_core_out_of_range_is_the_complex_blocks_float(self, monkeypatch, value):
        # an inf or nan in the core, reaching C on a band or off them, has every entry of C formed; 1e300 keeps
        # C finite and large
        factors = identities.u_factors

        def spoiled(g, dim, rows, at, **buffers):
            row, col, M = factors(g, dim, rows, **buffers)
            M[at] = value
            return row, col, M

        for at in [(0, 0), (1, 5), (3, 2), (0, 1)]:
            monkeypatch.setattr(identities, "u_factors", lambda g, dim, rows, **kw: spoiled(g, dim, rows, at, **kw))
            for g in (GroupElement(0.3, 0.7, 0.3), GroupElement(0.0, 0.0, 0.0), GroupElement(2.0, 0.0, 0.0)):
                with np.errstate(all="ignore"):
                    got = identities.intertwining_residual(g, 16).residual
                    want = complex_intertwining_residual(g, 16)
                assert got == want or (math.isnan(got) and math.isnan(want)), (at, g, got, want)

    def test_intertwining_forms_no_complex_block(self):
        # at dim 512, r = 0.3 (b = 481): U(g)'s core, its scaled copy and the real product hold 2 b dim + b^2
        # floats; the complex form holds the core, the real product and two complex b x b blocks at once, 11.4 MB
        # traced where the real core takes 5.8 MB
        g, dim = GroupElement(0.3, 0.7, 0.3), 512
        b = safe_block(dim, g.r)
        identities.intertwining_residual(g, dim)
        tracemalloc.start()
        try:
            identities.intertwining_residual(g, dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert b == 481 and peak < 8 * (2 * b * dim + 2 * b * b), peak

    # every r in [1e-11, 13] at 1e-11, 1e-7, 1e-3 and a draw in each unit, a rotation, 40 (a fully flushed core at
    # dim 512) and -1, no group element
    GRID_RS = [0.0, 1e-13, *10.0 ** np.arange(-11.0, 0.0, 4.0), *(np.arange(13) + 0.5), 13.0, 40.0, -1.0]

    @pytest.mark.parametrize("suite", ["unitarity", "intertwining"])
    def test_a_grid_is_its_one_point_calls(self, suite):
        # a shuffled grid over every dim, so that small and large blocks follow each other in one workspace, gives
        # each point the float, detail and refusal of a call on that point alone
        check = getattr(identities, f"{suite}_residual")
        rng = np.random.default_rng(7)
        points = [(dim, r, *rng.uniform(-4, 4, 2)) for dim in (2, 8, 64, 97, 300, 512) for r in self.GRID_RS]
        points = [points[i] for i in rng.permutation(len(points))]
        # the points as one axis, each mapped to (g, dim) as the U(g) suites map theirs
        axes, to_check = {"point": points}, lambda point: (GroupElement(*point[1:]), point[0])
        for point, got in zip(points, cli._sweep(RunConfig(), [suite], axes, check, point=to_check)):
            dim, r, psi, phi = point
            try:
                want = check(GroupElement(r, psi, phi), dim)
            except (ValueError, ArithmeticError) as exc:
                assert (got.residual, got.detail) == (math.inf, f"error: {exc}"), point
                continue
            assert np.float64(got.residual).tobytes() == np.float64(want.residual).tobytes(), point
            if not got.residual <= 1e-8:
                assert got.detail == want.detail(), point

    @pytest.mark.parametrize("suite", ["unitarity", "intertwining"])
    def test_a_grid_builds_every_core_into_one_buffer(self, monkeypatch, suite):
        # the cores of a 6-point dim-512 grid are all written into the same memory, not one new array each
        cores, factors = [], identities.u_factors

        def recording(g, dim, rows, **buffers):
            row, col, M = factors(g, dim, rows, **buffers)
            if dim == 512:
                cores.append(M)
            return row, col, M

        monkeypatch.setattr(identities, "u_factors", recording)
        code, out = run_cli(["verify", suite, "--dim", "512", "--r", "0.3,0.9,1.7,3.9,6,13"])
        assert code == 0 and len(cores) == 6
        assert all(np.shares_memory(M, cores[0]) for M in cores[1:])

    def test_an_intertwining_grid_forms_no_complex_block(self):
        # the bound of test_intertwining_forms_no_complex_block, for a whole 6-point grid at dim 512 whose largest
        # block is r = 0.3's: one workspace of core, scaled copy and product
        dim, rs = 512, [0.3, 0.9, 1.7, 3.9, 6.0, 13.0]
        points = [(GroupElement(r, 0.7, 0.3), dim) for r in rs]
        b = safe_block(dim, 0.3)
        identities.intertwining_residual.grid(points)
        tracemalloc.start()
        try:
            got = identities.intertwining_residual.grid(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(residual <= 1e-8 for residual, _ in got)
        assert b == 481 and peak < 8 * (2 * b * dim + 2 * b * b), peak

    @pytest.mark.parametrize(
        "suite, details",
        [
            (
                "unitarity",
                [
                    "largest |(U*U - 1)_ij| is 1.437e-01 at (i, j) = (49, 49) of the 50 x 50 block;"
                    " at (0, 0) 4.230e-14",
                    "largest |(U*U - 1)_ij| is 3.876e-01 at (i, j) = (33, 33) of the 34 x 34 block;"
                    " at (0, 0) 4.395e-08",
                    "largest |(U*U - 1)_ij| is 1.000e+00 at (i, j) = (0, 0) of the 23 x 23 block;"
                    " at (0, 0) 1.000e+00",
                ],
            ),
            (
                "intertwining",
                [
                    "largest |(U a U* - e^(i phi) a - r e^(i psi))_ij| is 3.319e+00 at (i, j) = (49, 49)"
                    " of the 50 x 50 block; at (0, 0) 6.782e-13",
                    "largest |(U a U* - e^(i phi) a - r e^(i psi))_ij| is 9.509e+00 at (i, j) = (33, 33)"
                    " of the 34 x 34 block; at (0, 0) 1.132e-06",
                    "largest |(U a U* - e^(i phi) a - r e^(i psi))_ij| is 2.500e+01 at (i, j) = (0, 0)"
                    " of the 23 x 23 block; at (0, 0) 2.500e+01",
                ],
            ),
        ],
    )
    def test_a_failing_record_names_its_worst_entry(self, suite, details):
        # past r = 13 at dim 512 the safe block's margin leaves out the r^2 shift of the classical edge, and the
        # defect sits in the block's last level; at r = 25 even level 0 reaches past dim
        code, out = run_cli(["verify", suite, "--dim", "512", "--r", "16,20,25"])
        recs = [r for r in json_records(out) if r["name"] == suite]
        assert code == 1 and [r["detail"] for r in recs] == details
        code, out = run_cli(["verify", suite, "--dim", "512", "--r", "0.5,13"])
        assert code == 0 and all(r["detail"] is None for r in json_records(out) if r["name"] == suite)


def test_verify_all_raises_no_runtime_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_cli(["verify", "all"])
    assert code == 0 and len(json_records(out)) == 1246


@pytest.mark.parametrize("suite", ["unitarity", "intertwining"])
def test_products_at_dim_512_raise_no_runtime_warning(suite):
    # the products read strided column slices of the core
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_cli(["verify", suite, "--dim", "512", "--r", "0.3,3.9"])
    assert code == 0 and len(json_records(out)) == (3 if suite == "unitarity" else 2)


class TestRecurrenceOverflow:
    def test_overflowing_kummer_values_fail(self):
        # at x = 1e300 the degree-2 value overflows, at x = 1e20 the degree-17
        # value; each such record fails and names the first unchecked zeta
        code, out = run_cli(["verify", "recurrence", "--k", "0,3", "--x", "1e300,-5,1e20"])
        assert code == 1
        recs = {(r["params"]["k"], r["params"]["c"]): r for r in json_records(out)}
        for k in (0, 3):
            assert recs[k, -5]["pass"]
            for x, zeta in ((1e300, 1), (1e20, 16)):
                rec = recs[k, x]
                assert not rec["pass"] and rec["residual"] is None
                assert rec["detail"] == f"non-finite Kummer value or ratio at zeta={zeta}"

    def test_a_negative_k_is_an_error_record_of_its_own(self):
        # b = 1 + k < 1 at k = -1: those four points are refused, and the other twelve still run as one block
        code, out = run_cli(["verify", "recurrence", "--k=-1..2"])
        recs = json_records(out)
        assert code == 1 and len(recs) == 16
        for rec in recs:
            if rec["params"]["k"] == -1:
                assert not rec["pass"] and rec["detail"] == "error: recurrence requires b >= 1, got 0"
            else:
                assert rec["pass"]

    @pytest.mark.parametrize("zmax", ["0", "-1"])
    def test_empty_zeta_range_is_an_error(self, zmax):
        code, out = run_cli(["verify", "recurrence", "--k", "0", "--x", "1", "--zmax", zmax])
        assert code == 1
        (rec,) = json_records(out)
        assert not rec["pass"] and rec["detail"].startswith("error:")


class TestLadderLabels:
    def test_kummer_limit_writes_its_rungs_as_floats(self):
        # I_9(2 sqrt(600)) is an entry of Miller's recurrence array; a numpy scalar would print as np.float64(...)
        _, out = run_cli(["verify", "kummer-limit", "--m", "10", "--x", "600"])
        rec = json_records(out)[0]
        assert rec["detail"] == (
            "evaluated as Phi(-n, b; -c/n); residuals 0.848995483692207, 0.17975587022749295, 0.019711765828015038"
        )

    def test_kummer_limit_labels_its_n_ladder(self):
        _, out = run_cli(["verify", "kummer-limit", "--m", "1", "--x", "4", "--n", "10,100"])
        mono = [r for r in json_records(out) if r["name"] == "kummer-limit-monotone"]
        assert [r["params"]["n"] for r in mono] == ["10,100"]

    def test_classical_limit_labels_its_sigma_ladder(self):
        argv = ["verify", "classical-limit", "--lambda", "1", "--k", "0", "--r", "1"]
        _, out = run_cli(argv + ["--sigma", "0.1,0.01"])
        mono = [r for r in json_records(out) if r["name"] == "classical-limit-monotone"]
        assert [r["params"]["sigmas"] for r in mono] == ["0.1,0.01"]
        _, out = run_cli(argv)
        mono = [r for r in json_records(out) if r["name"] == "classical-limit-monotone"]
        assert [r["params"]["sigmas"] for r in mono] == ["1e-1..1e-4"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "kummer-limit", "--m", "1", "--x", "4", "--n", "100"],
        ["verify", "classical-limit", "--lambda", "1", "--k", "0", "--r", "1", "--sigma", "0.01"],
    ],
)
def test_one_rung_ladder_is_an_error_record(argv):
    # a monotone check compares rungs, so a single rung has nothing to check
    code, out = run_cli(argv)
    assert code == 1
    (rec,) = json_records(out)
    assert not rec["pass"] and rec["residual"] is None
    assert rec["detail"] == "error: the monotone check needs at least two rungs, got 1"


@pytest.mark.parametrize(
    "argv",
    [
        # lam r = 80: the alternating series would lose ~33 digits, so it is refused
        ["verify", "classical-limit", "--lambda", "40", "--k", "0", "--r", "2", "--sigma", "0.1,1e-9"],
        # c = 1e5: the series needs more than its 200 terms at n = 1e9
        ["verify", "kummer-limit", "--m", "1", "--x", "100000", "--n", "100,1000000000"],
    ],
)
def test_kummer_step_cap(argv):
    # where the series is refused, these points would run billions of recurrence steps
    code, out = run_cli(argv)
    assert code == 1
    (rec,) = json_records(out)
    assert not rec["pass"] and rec["detail"].startswith("error:") and "cap" in rec["detail"]


class TestLargeDegreesFromTheSeries:
    """Degrees far above the recurrence's step cap are cheap, valid records from the series."""

    def test_classical_limit_at_sigma_1e_9(self):
        argv = ["verify", "classical-limit", "--lambda", "1", "--k", "0", "--r", "2", "--sigma", "0.1,1e-9"]
        code, out = run_cli(argv)
        rec, mono = json_records(out)
        assert code == 0 and rec["pass"] and mono["pass"]
        with mpmath.workdps(40):
            want = [
                abs(mpmath.exp(-s / 8) * mpmath.hyp1f1(-round(4 / s), 1, mpmath.mpf(s) / 4) - mpmath.besselj(0, 2))
                for s in (0.1, 1e-9)
            ]
        got = [float(v) for v in rec["detail"].removeprefix("errors ").split(", ")]
        assert got[-1] == rec["residual"] and 0 < got[-1] < 1e-9
        assert all(abs(g - float(w)) <= 1e-14 for g, w in zip(got, want)), (got, want)

    def test_kummer_limit_at_n_1e9(self):
        code, out = run_cli(["verify", "kummer-limit", "--m", "1", "--x", "4", "--n", "100,1000000000"])
        rec, mono = json_records(out)
        assert code == 0 and rec["pass"] and mono["pass"]
        with mpmath.workdps(40):
            want = [abs(mpmath.hyp1f1(-n, 1, mpmath.mpf(-4) / n) / mpmath.besseli(0, 4) - 1) for n in (100, 10**9)]
        got = [float(v) for v in rec["detail"].split("residuals ")[1].split(", ")]
        assert got[-1] == rec["residual"] and 0 < got[-1] < 1e-8
        assert all(abs(g - float(w)) <= 1e-14 for g, w in zip(got, want)), (got, want)

    @pytest.mark.parametrize("b,c", [(180, "100"), (200, "1e4")])
    def test_kummer_limit_past_a_float_factorial(self, b, c):
        # from b = 172, (b-1)! is no float, so the right side is composed in log space
        _, out = run_cli(["verify", "kummer-limit", "--m", str(b), "--x", c])
        rec, mono = json_records(out)
        with mpmath.workdps(40):
            cm = mpmath.mpf(c)
            bessel = mpmath.besseli(b - 1, 2 * mpmath.sqrt(cm))
            rhs = mpmath.factorial(b - 1) * cm ** (mpmath.mpf(1 - b) / 2) * bessel
            want = [abs(mpmath.hyp1f1(-n, b, -cm / n) / rhs - 1) for n in (100, 1000, 10000)]
        got = [float(v) for v in rec["detail"].split("residuals ")[1].split(", ")]
        assert got[-1] == rec["residual"] and mono["pass"]
        assert all(abs(g - float(w)) <= 1e-12 for g, w in zip(got, want)), (got, want)

    def test_records_are_each_points_own_errors(self):
        # an unsorted r axis with 0 and a point whose series is refused and whose
        # degree is above the step cap: each record is what classical_limit_error gives along the ladder
        lams, ks, rs, sigmas = (1.0, 3.0), (-2, 5), (2.0, 0.0, 1e4, 0.8, 1.0), (0.1, 1e-3)
        argv = ["verify", "classical-limit", "--lambda", "1.0,3.0", "--k", "-2,5", "--r", "2.0,0.0,1e4,0.8,1.0"]
        code, out = run_cli(argv + ["--sigma", "0.1,1e-3"])
        expected = []
        for lam, k, r in itertools.product(lams, ks, rs):
            try:
                errs = [identities.classical_limit_error(IrrepLabel(lam, k), r, s) for s in sigmas]
            except ValueError as exc:
                expected.append(f"error: {exc}")
            else:
                expected += ["errors " + ", ".join(map(repr, errs)), None]
        capped = "error: r^2/sigma needs 1000000000 Kummer steps, above the cap of 1000000"
        assert code == 1 and expected.count(capped) == 4
        assert [r["detail"] for r in json_records(out)] == expected

    def test_overflowing_kummer_value_is_an_error_record(self):
        # Phi(-100, 1; 1e8) ~ 1e484: an error record naming the value, not a NaN residual
        argv = ["verify", "classical-limit", "--lambda", "2e5", "--k", "0", "--r", "1", "--sigma", "0.01,0.001"]
        code, out = run_cli(argv)
        (rec,) = json_records(out)
        assert code == 1 and not rec["pass"] and rec["residual"] is None
        assert rec["detail"] == "error: Phi(-100, 1; 100000000.0) is not finite"


def test_addition_diagnostic_shows_full_precision():
    _, out = run_cli(["verify", "addition", "--dim", "32"])
    details = [r["detail"] for r in json_records(out) if not r["pass"]]
    assert len(details) == 3
    for detail in details:
        rows = detail.removeprefix("per-n coefficient mismatch: ").split("; ")
        assert len(rows) == 3
        for row in rows:
            fitted, expected = row.split(": ", 1)[1].removeprefix("fitted ").split(", expected ")
            assert fitted != expected
            assert complex(fitted) != complex(expected)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "identity-b", "--r", "1e-200"],  # -1 / r^2 divides by zero
    ],
)
def test_division_by_zero_is_an_error_record(argv):
    code, out = run_cli(argv)
    assert code == 1
    errors = [r for r in json_records(out) if r["residual"] is None]
    assert all(r["detail"].startswith("error: ") and not r["pass"] for r in errors)
    assert "error: float division by zero" in {r["detail"] for r in errors}


def test_a_vacuum_scale_below_the_normal_range_is_an_error_record():
    # D_20's prefactor is normal, but t_k0(g) f_0(0), about (lam r/2)^20/20! e^(-lam^2/8), is subnormal at these
    # r and (U D_k U*)_00 is no larger: a zero against it would read as agreement, while addition passes
    for lam, r, s3 in (("1", "5e-15", "3.2990488500326e-311"), ("2", "1e-15", "2.49306e-319")):
        code, out = run_cli(["verify", "addition", "--lambda", lam, "--r", r, "--k", "20"])
        addition, vacuum = json_records(out)
        assert code == 1 and addition["pass"] and not vacuum["pass"] and vacuum["residual"] is None
        assert vacuum["detail"] == (
            f"error: addition-vacuum at lam={lam}, k=20, r={r}: the scale max(|(U D_k U*)_00|, |t_k0(g) f_0(0)|)"
            f" is {s3}, below the normal float range"
        )


def test_a_vacuum_element_flushed_to_zero_is_an_error_record():
    # t_k0(g) f_0(0) is normal, but (U D_k U*)_00 sums M[0, i + 20] D_20[i] M[0, i], and M[0, d] = e^(-r^2/2)
    # r^d/sqrt(d!) falls below 2^-511 before d = 20 at these r, so U(g)'s core holds 0 there and the sum reads 0
    for lam, r, s3 in (("2", "1e-14", "2.4930336596959905e-299"), ("1", "1e-10", "3.459303446971762e-225")):
        code, out = run_cli(["verify", "addition", "--lambda", lam, "--r", r, "--k", "20"])
        addition, vacuum = json_records(out)
        assert code == 1 and addition["pass"] and not vacuum["pass"] and vacuum["residual"] is None
        assert vacuum["detail"] == (
            f"error: addition-vacuum at lam={lam}, k=20, r={r}: (U D_k U*)_00 reads 0 where t_k0(g) f_0(0) is {s3}:"
            " U(g)'s core flushes entries below 2^-511 to 0"
        )


@pytest.mark.parametrize("k,scale", [(176, "5.0864671309e-313"), (178, "1.993125e-317"), (185, "0.0")])
def test_a_hille_hardy_scale_below_the_normal_range_is_an_error_record(k, scale, capfd):
    # both sides subnormal: at k = 178 they once agreed to residual 0.0 on about 22 bits, and at k = 185 every term
    # is 0 and the record read "float division by zero"
    code, out = run_cli(["verify", "hille-hardy", "--k", str(k), "--x", "1", "--y", "1", "--zq", "0.1"])
    (rec,) = json_records(out)
    assert code == 1 and capfd.readouterr().err == "" and not rec["pass"] and rec["residual"] is None
    assert rec["detail"] == (
        f"error: hille-hardy at k={k}, x=1, y=1, zq=0.1: the scale max(|lhs|, |rhs|, largest term) is {scale},"
        " below the normal float range"
    )


def _prefactor_refusal(lam, k, value):
    return (
        f"error: basis_d at lam={lam}, k={k}: the prefactor (lam/2)^{k}/{k}! e^(-lam^2/8) is {value},"
        " below the normal float range"
    )


def _identity_b_refusal(m, x, value):
    return (
        f"error: identity-b at m={m}, k=2, x={x}, r=1: the scale max(|lhs|, |rhs|, largest term) is {value},"
        " below the normal float range"
    )


@pytest.mark.parametrize(
    "argv,details",
    [
        # values near 1e-310 once agreed at residual 0.0
        (
            ["identity-b", "--x", "1e-155", "--k", "2", "--m", "0", "--r", "1"],
            [_identity_b_refusal(0, "1e-155", "1e-310")],
        ),
        # once passed at 0.0 and 2.5e-10
        (
            ["identity-b", "--x", "1e-157", "--k", "2", "--m", "0,3", "--r", "1"],
            [_identity_b_refusal(0, "1e-157", "1e-314"), _identity_b_refusal(3, "1e-157", "1.00000000026e-313")],
        ),
        # a prefactor of 1.25e-321 once passed; at k = 200 the eigen records once failed at 2.3e-7 and 0.1998 unnamed
        (["eigen", "--lambda", "1e-160", "--k", "2"], [_prefactor_refusal("1e-160", 2, "1.25e-321")]),
        (["eigen", "--lambda", "4", "--k", "200"], [_prefactor_refusal(4, 200, "2.7575381e-316")]),
        (["eigen", "--lambda", "3.72", "--k", "200"], [_prefactor_refusal(3.72, 200, "1.8e-322")]),
        # each D_200 is refused where it is built, and both addition checks file its refusal
        (
            ["addition", "--dim", "512", "--lambda", "3.72,4.0", "--r", "1", "--k", "200"],
            [_prefactor_refusal(3.72, 200, "1.8e-322")] * 2 + [_prefactor_refusal(4.0, 200, "2.7575381e-316")] * 2,
        ),
    ],
    ids=["identity-b-1e-155", "identity-b-1e-157", "eigen-1e-160", "eigen-4-200", "eigen-3.72-200", "addition-200"],
)
def test_a_scale_below_the_normal_range_is_an_error_record_naming_it(argv, details, capfd):
    code, out = run_cli(["verify", *argv])
    recs = json_records(out)
    assert code == 1 and capfd.readouterr().err == ""
    assert [(rec["pass"], rec["residual"], rec["detail"]) for rec in recs] == [(False, None, d) for d in details]


@pytest.mark.parametrize(
    "passing,refused",
    [
        (["identity-a", "--k", "0", "--x", "0.5", "--r", "9"], ["identity-a", "--k", "0", "--x", "0.5", "--r", "20"]),
        (["addition", "--lambda", "0.5", "--r", "9", "--dim", "512"], ["addition", "--lambda", "0.25", "--r", "20"]),
    ],
)
def test_the_vacuum_sum_runs_past_the_peak_of_its_weights(passing, refused):
    # from r ~ 8.29 the vacuum sum stopped at n = 10, before its weights peak near r^2, and failed at residual 1.0
    # with no detail; it now passes there, and at r = 20 it needs more than 400 terms and is refused by name
    code, out = run_cli(["verify", *passing])
    assert code == 0 and all(rec["pass"] for rec in json_records(out))
    code, out = run_cli(["verify", *refused])
    recs = [rec for rec in json_records(out) if rec["name"] in ("identity-a", "addition-vacuum")]
    assert code == 1 and recs and all(
        rec["detail"] == "error: r=20: the vacuum sum's weights r^(2n)/n! fall below 1e-18 of e^(r^2) past n = 400"
        for rec in recs
    )


def test_an_underflowed_block_norm_is_an_error_record(capfd):
    # D_1's entries, about 5e-301, are in range, but the squares in the norm of its block are not;
    # the run once divided by that norm of 0
    code, out = run_cli(["verify", "addition", "--lambda", "1e-300", "--r", "1", "--k", "1"])
    recs = {r["name"]: r for r in json_records(out)}
    assert code == 1 and capfd.readouterr().err == ""
    addition = recs["addition"]
    assert not addition["pass"] and addition["residual"] is None
    assert addition["detail"] == (
        "error: addition at lam=1e-300, k=1: the norm of D_k's block is 0.0, below the normal float range"
    )
    code, out = run_cli(["verify", "addition", "--lambda", "1e-300"])
    assert code == 1 and not any("division by zero" in (r["detail"] or "") for r in json_records(out))


def test_overflowing_2f0_is_an_error_record():
    # at r = 1e-100 the 2F0 values, about (1/r^2)^p, are out of the float range
    code, out = run_cli(["verify", "identity-b", "--r", "1e-100", "--m", "3", "--k", "2", "--x", "1"])
    (rec,) = json_records(out)
    assert code == 1 and not rec["pass"] and rec["residual"] is None
    assert rec["detail"] == "error: 2F0(-5, -n; -1/r^2) is not finite at r=1e-100"


class TestOrthogonalityZmax:
    def test_default_and_larger_zmax_are_recorded(self):
        for extra, zmax in (([], 1001), (["--zmax", "1200"], 1200)):
            code, out = run_cli(["verify", "orthogonality", *extra])
            assert code == 0
            assert {r["params"].get("zmax") for r in json_records(out)} == {None, zmax}

    def test_zmax_short_of_the_last_checkpoint_is_an_error(self):
        code, out = run_cli(["verify", "orthogonality", "--zmax", "5"])
        assert code == 1
        recs = json_records(out)
        profile = [r for r in recs if r["name"] != "orthogonality-grading"]
        assert len(profile) == 10 and all(r["params"]["zmax"] == 5 and not r["pass"] for r in profile)
        assert all("zeta = 1000 checkpoint" in r["detail"] for r in profile)
        assert all(r["pass"] for r in recs if r["name"] == "orthogonality-grading")


class TestComputedOnce:
    """One verify all builds each U(g) of addition, each lam's D_n table and each lam r's Bessel row once."""

    @pytest.fixture(scope="class")
    def built(self):
        # the arguments of every call to the builders the addition grid reads, through the bindings it reads
        calls = {"u_factors": [], "basis_diagonals": [], "kummer_phi_seq": [], "bessel_j_seq": []}
        modules = {"u_factors": identities, "basis_diagonals": identities, "kummer_phi_seq": repk}
        modules["bessel_j_seq"] = e2group
        with pytest.MonkeyPatch.context() as patch:
            for name, module in modules.items():

                def counting(*args, build=getattr(module, name), name=name, **buffers):
                    calls[name].append(args)
                    return build(*args, **buffers)

                patch.setattr(module, name, counting)
            code, out = run_cli(["verify", "all"])
        assert code == 0 and len(json_records(out)) == 1246
        return calls

    def test_each_u_of_addition_is_built_once(self, built):
        # the 6 (lam, g) of the default grid hold 3 group elements, each built to its safe block at dim 96;
        # unitarity and intertwining build theirs at dim 64
        cores = sorted((g.r, rows) for g, dim, rows in built["u_factors"] if dim == 96)
        assert cores == [(0.5, safe_block(96, 0.5)), (1.0, safe_block(96, 1.0)), (2.0, safe_block(96, 2.0))]

    def test_each_lam_builds_its_d_n_table_once(self, built):
        # one table call for the run's dim, one Kummer lane call for each lam, a lane for each |n| read
        ((windings, dim),) = built["basis_diagonals"]
        assert dim == 96 and list(windings) == [1.0, 2.0]
        lanes = [(nmax, x) for nmax, b, x in built["kummer_phi_seq"] if isinstance(b, np.ndarray)]
        assert lanes == [(94, 0.25), (94, 1.0)]

    def test_each_lam_r_builds_its_bessel_row_once(self, built):
        # lam r is 0.5, 1, 2, 1, 2, 4 over the 6 (lam, g); addition-vacuum keeps its own order-k runs
        assert [x for nmax, x in built["bessel_j_seq"] if nmax == 60] == [0.5, 1.0, 2.0, 4.0]


def test_addition_builds_each_core_to_the_rows_it_reads(monkeypatch):
    # r = 0.5 is a theorem point's, read to its safe block; at lam r = 8 > 6 the vacuum alone reads r = 4's row 0,
    # as it reads r = 2's at dim 8, where the theorem's safe block is empty
    built, factors = [], identities.u_factors

    def recording(g, dim, rows, **buffers):
        built.append((g.r, dim, rows))
        return factors(g, dim, rows, **buffers)

    monkeypatch.setattr(identities, "u_factors", recording)
    assert run_cli(["verify", "addition", "--lambda", "2", "--r", "0.5,4", "--k", "0", "--dim", "64"])[0] == 0
    assert sorted(built) == [(0.5, 64, safe_block(64, 0.5)), (4, 64, 1)] and safe_block(64, 0.5) == 46
    built.clear()
    assert run_cli(["verify", "addition", "--lambda", "1", "--r", "2", "--k", "0", "--dim", "8"])[0] == 1
    assert built == [(2, 8, 1)] and safe_block(8, 2) == 0


@pytest.mark.parametrize(
    "argv, check, grid, details",
    [
        (
            ["verify", "unitarity", "--r", "-1,0.5,-2,1"],
            "unitarity_residual",
            [(GroupElement(0.5, 0.7, 0.3), 64), (GroupElement(1, 0.7, 0.3), 64)],
            ["error: translation modulus r must be >= 0", None] * 2,
        ),
        (
            # the map refuses no k; the grid's own request refuses b = 1 + k < 1
            ["verify", "recurrence", "--k", "-2,0,-1,3"],
            "kummer_recurrence_residual",
            [(1 + k, x, 200) for k in (-2, 0, -1, 3) for x in (0.25, 1.0, 4.0, 16.0)],
            [f"error: recurrence requires b >= 1, got {b}" if b < 1 else None for b in (-1, 1, 0, 4) for _ in range(4)],
        ),
    ],
    ids=["unitarity", "recurrence"],
)
def test_refusals_land_in_place_and_the_grid_runs_once_on_the_rest(monkeypatch, argv, check, grid, details):
    check, calls = getattr(identities, check), []
    monkeypatch.setattr(check, "grid", lambda points, grid=check.grid: calls.append(points) or grid(points))
    code, out = run_cli(argv)
    records = [rec for rec in json_records(out) if rec["name"] != "unitarity-monotone"]
    assert code == 1 and calls == [grid]
    assert [rec["detail"] for rec in records] == details
    assert [rec["residual"] is None for rec in records] == [detail is not None for detail in details]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "recurrence", "--lambda", "2"],  # a flag the run does not read
        ["verify", "recurrence", "--tol", "eigen=1"],
        ["verify", "classical-limit", "--lambda", "1", "--k", "0", "--r", "1", "--psi", "0.5"],
        ["table", "basis", "--tol", "eigen=1"],
        ["verify", "recurrence", "--zmax", "10,20"],  # a list for a single-valued flag
        ["table", "u-matrix", "--r", "1,2"],
        ["table", "basis", "--lambda", "1e200", "--k", "3", "--zmax", "2"],  # an overflow in a table
        ["table", "profile", "--lambda", "1e200", "--lambda2", "1e200"],
        ["table", "irrep", "--lambda", "1e308", "--r", "1e10"],
        ["table", "profile", "--k", "200", "--lambda", "60", "--lambda2", "1"],  # (1/2)^200/200! underflows
        ["table", "profile", "--k", "0", "--lambda", "70", "--lambda2", "70"],  # products below the float range
    ],
)
def test_refused_with_an_error_message(argv, capsys):
    code, out = run_cli(argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


class TestRecordTable:
    @pytest.fixture(scope="class")
    def filed(self):
        # per suite of a default run: the record names it files and the --tol names it reads
        runs = {}
        for suite, run in cli.SUITES.items():
            cfg = RunConfig()
            names = {rec["name"] for rec in run(cfg)}
            runs[suite] = names, {name for name in cfg.read if name in cli._TOLERANCES}
        return runs

    def test_every_record_names_a_row_and_every_row_is_filed(self, filed):
        names = set().union(*(names for names, _ in filed.values()))
        assert names == set(cli._RECORDS)

    def test_readme_lists_each_suites_tolerances_and_defaults(self, filed):
        text = (pathlib.Path(cli.__file__).resolve().parents[2] / "README.md").read_text()
        rows = text.split("| suite | `--tol` names |\n|---|---|\n", 1)[1].split("\n\n", 1)[0].splitlines()
        listed = {}
        for row in rows:
            _, suite, cell, _ = row.split("|")
            common = re.search(r"\(all (\S+)\)", cell)
            names = re.findall(r"`([a-z-]+)`(?: \((\S+)\))?", cell)
            listed[suite.strip(" `")] = {name: float(default or common[1]) for name, default in names}
        assert list(listed) == list(cli.SUITES)
        for suite, (_, tols) in filed.items():
            assert listed[suite] == {name: cli._TOLERANCES[name] for name in tols}, suite

    def test_each_suite_is_a_public_module_level_function(self):
        # perfbench's tracer wraps a suite through its module-level binding
        for suite, run in cli.SUITES.items():
            assert run.__name__ == "suite_" + suite.replace("-", "_") and getattr(cli, run.__name__) is run


class TestEveryInputIsRead:
    def test_every_flag_is_read_by_some_suite_or_table(self):
        cfg = RunConfig()
        cli.run_verify("all", cfg, io.StringIO())
        assert set(cli._TOLERANCES) <= cfg.read
        for kind in cli.TABLE_KINDS:
            list(cli._table_rows(kind, cfg))
        assert {cli._FLAG_DEST.get(flag, flag) for flag in cli._PARAM_FLAGS} <= cfg.read

    def test_addition_sweeps_psi_and_phi(self):
        argv = ["verify", "addition", "--lambda", "1", "--r", "0.5", "--k", "0", "--psi", "0.1,0.2", "--phi", "0.3,0.4"]
        code, out = run_cli(argv)
        got = [(r["name"], r["params"]["psi"], r["params"]["phi"]) for r in json_records(out)]
        points = itertools.product((0.1, 0.2), (0.3, 0.4))
        assert code == 0
        assert got == [(name, psi, phi) for psi, phi in points for name in ("addition", "addition-vacuum")]

    def test_dim_reaches_every_suite_that_reads_it(self):
        # --dim replaces each reader's default, 96 for addition and 64 for the others
        code, out = run_cli(["verify", "all", "--dim", "32"])
        dims = {r["name"]: r["params"]["dim"] for r in json_records(out) if "dim" in r["params"]}
        assert code == 1 and dims == dict.fromkeys(["unitarity", "intertwining", "addition", "addition-vacuum"], 32)
        code, out = run_cli(["verify", "addition"])
        assert code == 0 and {r["params"]["dim"] for r in json_records(out)} == {96}

    def test_eigen_zmax_below_two_is_an_error_naming_the_minimum(self):
        code, out = run_cli(["verify", "eigen", "--lambda", "1", "--k", "0,5", "--zmax", "1"])
        recs = json_records(out)
        assert code == 1 and len(recs) == 2
        assert all(r["detail"] == "error: eigen_residuals requires zmax >= 2, got 1" for r in recs)

    def test_unitarity_monotone_takes_the_last_group_element(self, monkeypatch):
        built, factors = [], identities.u_factors

        def recording(g, dim, rows, **buffers):
            built.append((g.r, g.psi, g.phi, dim))
            return factors(g, dim, rows, **buffers)

        monkeypatch.setattr(identities, "u_factors", recording)
        code, out = run_cli(["verify", "unitarity", "--r", "0.5,1", "--psi", "0.1,0.2", "--phi", "0.3,0.4"])
        assert code == 0 and len(json_records(out)) == 9
        assert built[-3:] == [(1.0, 0.2, 0.4, dim) for dim in (32, 64, 128)]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["table", "profile", "--lambda", "1e200", "--lambda2", "1e200"],
            "table profile: ArithmeticError: basis_d at lam=1e+200, k=0: the prefactor (lam/2)^0/0! e^(-lam^2/8)"
            " is 0.0, below the normal float range",
        ),
        (
            ["table", "basis", "--lambda", "1e200", "--k", "3", "--zmax", "2"],
            "table basis: ValueError: basis_d at lam=1e+200, k=3: (lam/2)^3 overflows",
        ),
        (
            ["table", "profile", "--k", "200", "--lambda", "60", "--lambda2", "1"],
            "table profile: ArithmeticError: basis_d at lam=1, k=200: the prefactor (lam/2)^200/200! e^(-lam^2/8)"
            " is 0.0, below the normal float range",
        ),
        (["verify", "recurrence", "--lambda", "2"], "verify recurrence: ValueError: the run does not read --lambda"),
        (["verify", "recurrence", "--dim", "64"], "verify recurrence: ValueError: the run does not read --dim"),
        (["verify", "addition", "--seed", "7"], "verify addition: ValueError: the run does not read --seed"),
        (["table", "basis", "--dim", "10"], "table basis: ValueError: the run does not read --dim"),
        (["verify", "unitarity", "--dim", "4"], "verify unitarity: ValueError: --dim must be in [8, 512], got 4"),
        (
            ["verify", "unitarity", "--dim", "abc"],
            "verify unitarity: ValueError: --dim 'abc': could not convert string to float: 'abc'",
        ),
        (
            ["verify", "lie-algebra", "--seed", "1.5"],
            "verify lie-algebra: ValueError: --seed '1.5': values must be integers",
        ),
        (
            ["verify", "identity-a", "--x", "abc"],
            "verify identity-a: ValueError: --x 'abc': could not convert string to float: 'abc'",
        ),
        (
            ["verify", "identity-a", "--k", "1..2..3"],
            "verify identity-a: ValueError: --k '1..2..3': invalid literal for int() with base 10: '2..3'",
        ),
        (["table", "profile", "--zmax", "10,-5"], "table profile: ValueError: --zmax must be >= 0 here, got -5"),
        (["verify", "lie-algebra", "--seed", "-3"], "verify lie-algebra: ValueError: --seed must be >= 0, got -3"),
        (["table", "basis", "--zmax", "0"], "table basis: ValueError: --zmax must be >= 1 here, got 0"),
        (["table", "basis", "--zmax", "-4"], "table basis: ValueError: --zmax must be >= 1 here, got -4"),
        (
            ["table", "basis", "--lambda", "80", "--k", "3"],
            "table basis: ArithmeticError: basis_d at lam=80, k=3: the prefactor (lam/2)^3/3! e^(-lam^2/8) is 0.0,"
            " below the normal float range",
        ),
        (
            ["table", "profile", "--k", "200", "--lambda", "3.72", "--lambda2", "3.72"],
            "table profile: ArithmeticError: basis_d at lam=3.72, k=200: the prefactor (lam/2)^200/200! e^(-lam^2/8)"
            " is 1.8e-322, below the normal float range",
        ),
        (
            ["table", "u-matrix", "--dim", "8", "--r", "1e200"],
            "table u-matrix: OverflowError: U(g) at r=1e+200, dim 8: row 0's undamped r^d/sqrt(d!) overflows at d = 2",
        ),
    ],
    ids=[
        "profile-gaussian-underflow",
        "basis-overflow",
        "profile-factorial-underflow",
        "unread-flag",
        "unread-dim",
        "unread-seed",
        "unread-dim-in-a-table",
        "dim-out-of-range",
        "malformed-dim",
        "non-integer-seed",
        "malformed-real",
        "malformed-range",
        "negative-profile-zmax",
        "negative-seed",
        "zero-basis-zmax",
        "negative-basis-zmax",
        "basis-underflow",
        "profile-subnormal-prefactor",
        "u-matrix-row-0-overflow",
    ],
)
def test_error_message_names_the_run_and_the_exception(argv, message, capsys):
    code, out = run_cli(argv)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, what",
    [
        # D_150's radial part falls below the float range before zeta = 20000
        (["table", "profile", "--k", "150", "--lambda", "2", "--lambda2", "2", "--zmax", "20000"], "underflow"),
        (["table", "u-matrix", "--r", "40", "--dim", "512"], "overflow"),
    ],
    ids=["profile", "u-matrix"],
)
def test_overflow_prints_only_the_error_line(argv, what, capfd):
    # a fresh interpreter, so numpy's floating-point warnings would reach stderr as they do for users
    code = subprocess.run([sys.executable, "-m", "e2fock.cli", *argv], env=module_env(), timeout=120).returncode
    out, err = capfd.readouterr()
    assert (code, out) == (2, "")
    assert err == f"error: {argv[0]} {argv[1]}: FloatingPointError: {what} encountered in multiply\n"


# Miller's recurrence starts above its argument, 2xr = 1e200 and lam r = 1e200 here
_MILLER_CAP = "Bessel argument 1e+200 at order {} needs 1e+200 recurrence steps, above the cap of 1000000"


def test_miller_step_cap_gives_an_error_record():
    argv = ["verify", "identity-b", "--x", "0.5", "--r", "1e200", "--m", "0", "--k", "0"]
    proc = subprocess.run(
        [sys.executable, "-m", "e2fock.cli", *argv], env=module_env(), capture_output=True, text=True, timeout=60
    )
    (rec,) = json_records(proc.stdout)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert not rec["pass"] and rec["detail"] == "error: " + _MILLER_CAP.format(80)


def test_miller_step_cap_refuses_a_table():
    argv = ["table", "irrep", "--r", "1e200"]
    proc = subprocess.run(
        [sys.executable, "-m", "e2fock.cli", *argv], env=module_env(), capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    # the first row, k = -3, runs to the largest |n - k| = 6 of the default n grid
    assert proc.stderr == "error: table irrep: ValueError: " + _MILLER_CAP.format(6) + "\n"


# kummer-limit's right side, which overflows to inf, or is 0 where I_{b-1}, at 2 sqrt(c) = 40, underflows
_BESSEL_SIDE = "(b-1)! c^((1-b)/2) I_(b-1)(2 sqrt(c))"


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["verify", "kummer-limit", "--m", "1", "--x", "2e5"], _BESSEL_SIDE + " is inf at b=1, c=200000.0"),
        (["verify", "kummer-limit", "--m", "3000", "--x", "400"], _BESSEL_SIDE + " is 0.0 at b=3000, c=400"),
        (
            ["verify", "identity-b", "--x", "1e-200", "--r", "1", "--m", "0", "--k", "2"],
            "identity-b at m=0, k=2, x=1e-200, r=1: the scale max(|lhs|, |rhs|, largest term) is 0.0,"
            " below the normal float range",
        ),
        # r^2 and x y zq overflow to inf, and so would the weights and terms of the two sums
        (
            ["verify", "identity-a", "--k", "0", "--x", "1", "--r", "1e200"],
            "identity-a at k=0, x=1, r=1e+200: r^2 is outside the float range",
        ),
        (
            ["verify", "hille-hardy", "--k", "0", "--x", "1e300", "--y", "1e300", "--zq", "0.5"],
            "hille-hardy at k=0, x=1e+300, y=1e+300, zq=0.5: x y zq is outside the float range",
        ),
        # x^2 overflows where r^2 does not, and a term of the sum overflows where x y zq does not
        (
            ["verify", "identity-a", "--k", "0", "--x", "1e200", "--r", "1e-200"],
            "identity-a at k=0, x=1e+200, r=1e-200: x^2 is outside the float range",
        ),
        (
            ["verify", "hille-hardy", "--k", "0", "--x", "1e5", "--y", "800", "--zq", "0.5"],
            "hille-hardy at k=0, x=100000.0, y=800, zq=0.5: term n=65 is not finite",
        ),
        (
            # row 0 of U(g), r^d/sqrt(d!) before the damping e^(-r^2/2), once ended the record as "math range error"
            ["verify", "unitarity", "--dim", "512", "--r", "60"],
            "U(g) at r=60, dim 512: row 0's undamped r^d/sqrt(d!) overflows at d = 469",
        ),
    ],
    ids=[
        "kummer-limit-inf",
        "kummer-limit-zero",
        "identity-b-zero",
        "identity-a-r-squared",
        "hille-hardy-xyzq",
        "identity-a-x-squared",
        "hille-hardy-term",
        "u-row-0",
    ],
)
def test_a_side_out_of_the_float_range_is_one_error_record(argv, detail):
    # a fresh interpreter, so a numpy warning on the way would reach stderr
    proc = subprocess.run(
        [sys.executable, "-m", "e2fock.cli", *argv], env=module_env(), capture_output=True, text=True, timeout=60
    )
    (rec,) = json_records(proc.stdout)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert not rec["pass"] and rec["detail"] == "error: " + detail


def test_python_m_e2fock_is_the_command():
    argv = ["verify", "recurrence", "--k", "0", "--x", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "e2fock", *argv], env=module_env(), capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (*run_cli(argv), "")


def test_closed_pipe_ends_quietly():
    # the reader is gone before the first write, as it is once ``| head -1`` has its line
    argv = [sys.executable, "-m", "e2fock.cli", "verify", "lie-algebra", "--seed", "0"]
    proc = subprocess.Popen(argv, env=module_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (1, b"")


def _odd_lower_flipped(row, col, M):
    m, n = np.ogrid[: len(M), : M.shape[1]]
    return row, col, np.where((m > n) & ((m - n) % 2 == 1), -M, M)


def _patch_factors(monkeypatch, factors):
    # every check that reads U(g) is in identities, through its one binding
    monkeypatch.setattr(identities, "u_factors", factors)


class TestFaultInjection:
    """A mutated factor of U(g) = D_row M D_col fails the default grid of the checks that read it."""

    @pytest.mark.parametrize(
        "mutate, unitarity_fails",
        [
            (lambda row, col, M: (row.conj(), col, M), False),  # the phases cancel in U* U
            (lambda row, col, M: (row, col.conj(), M), False),
            (_odd_lower_flipped, True),
        ],
        ids=["conjugated-row-phases", "conjugated-column-phases", "odd-lower-sign-flipped"],
    )
    def test_mutated_factor(self, monkeypatch, mutate, unitarity_fails):
        factors = identities.u_factors
        _patch_factors(monkeypatch, lambda g, dim, rows, **kw: mutate(*factors(g, dim, rows, **kw)))
        code, out = run_cli(["verify", "intertwining"])
        recs = json_records(out)
        assert code == 1 and len(recs) == 4
        assert not any(r["pass"] for r in recs) and all(r["residual"] > 1e-3 for r in recs)
        assert run_cli(["verify", "unitarity"])[0] == (1 if unitarity_fails else 0)

    @pytest.mark.parametrize(
        "mutate, ks_passing, vacuum_failing",
        [
            (lambda row, col, M: (row.conj(), col, M), [], 0),
            (lambda row, col, M: (row, col.conj(), M), [0], 12),
            (_odd_lower_flipped, [], 0),
        ],
        ids=["conjugated-row-phases", "conjugated-column-phases", "odd-lower-sign-flipped"],
    )
    def test_mutated_factor_in_addition(self, monkeypatch, mutate, ks_passing, vacuum_failing):
        # addition fails every record but those of k = 0 under conjugated column
        # phases, which cancel on D_0's main diagonal.  addition-vacuum reads only
        # the (0, 0) entry: row phase 0 is 1 and row 0 of M has no lower entries, so
        # it is blind to the row and sign mutations and fails only for k != 0
        factors = identities.u_factors
        _patch_factors(monkeypatch, lambda g, dim, rows, **kw: mutate(*factors(g, dim, rows, **kw)))
        code, out = run_cli(["verify", "addition"])
        recs = json_records(out)
        addition = [r for r in recs if r["name"] == "addition"]
        vacuum = [r for r in recs if r["name"] == "addition-vacuum"]
        assert code == 1 and len(addition) == 36 and len(vacuum) == 18
        assert sorted({r["params"]["k"] for r in addition if r["pass"]}) == ks_passing
        assert all(r["residual"] > 0.1 for r in addition if r["params"]["k"] not in ks_passing)
        failing = [r for r in vacuum if not r["pass"]]
        assert len(failing) == vacuum_failing and all(r["params"]["k"] != 0 for r in failing)

    @pytest.mark.parametrize("suite", ["unitarity", "intertwining"])
    def test_core_one_row_short_fails(self, monkeypatch, suite):
        # the products read exactly the block's rows, so a core one row short
        # raises at every r rather than reading past its end
        factors = identities.u_factors
        _patch_factors(monkeypatch, lambda g, dim, rows, **kw: factors(g, dim, rows - 1, **kw))
        code, out = run_cli(["verify", suite])
        failed = [r for r in json_records(out) if not r["pass"]]
        assert code == 1
        assert [r["params"]["r"] for r in failed if r["name"] == suite] == [0.5, 1.0, 1.5, 2.0]
        assert all(r["detail"].startswith("error: operands could not be broadcast") for r in failed)


def test_verify_all_json_and_csv_agree_record_by_record():
    _, json_out = run_cli(["verify", "all"])
    _, csv_out = run_cli(["verify", "all", "--format", "csv"])
    recs, rows = json_records(json_out), list(csv.DictReader(io.StringIO(csv_out)))
    assert len(recs) == len(rows) == 1246
    for rec, row in zip(recs, rows):
        assert (row["name"], row["equation"]) == (rec["name"], rec["equation"])
        params = dict(item.split("=", 1) for item in row["params"].split(";"))
        assert params == {k: repr(v) if isinstance(v, float) else str(v) for k, v in rec["params"].items()}
        if rec["residual"] is None:
            assert row["residual"] in ("inf", "nan")
        else:
            assert row["residual"] == repr(rec["residual"])
        assert row["tolerance"] == repr(rec["tolerance"])
        assert row["pass"] == ("true" if rec["pass"] else "false")
        assert row["detail"] == (rec["detail"] if rec["detail"] is not None else "")


class TestStrictJsonRows:
    """Rows are encoded strictly in one pass; only a row with a non-finite float is rewritten with nulls."""

    ROWS = [
        {"name": "finite", "params": {"x": 0.5, "k": 2}, "residual": 1e-17, "pass": True, "detail": None},
        {"name": "error", "params": {"x": 1e-200}, "residual": math.inf, "pass": False, "detail": "error: 0/0"},
        {"name": "param", "params": {"x": math.nan, "y": -math.inf}, "residual": 0.0, "pass": True, "detail": None},
        {"name": "numpy", "params": {"x": np.float64(math.inf), "n": np.int64(3)}, "residual": np.float64(2.5)},
    ]

    def test_json_prints_null_for_every_non_finite_float(self):
        buf = io.StringIO()
        cli._write_rows(self.ROWS, "json", buf)
        lines = buf.getvalue().splitlines()
        # what one lenient json.dumps per row printed, after nulling non-finite floats
        assert lines == [json.dumps(cli._json_value(row), sort_keys=True, default=repr) for row in self.ROWS]
        recs = [json.loads(line, parse_constant=pytest.fail) for line in lines]
        assert recs[1]["residual"] is None and recs[2]["params"] == {"x": None, "y": None}
        assert recs[3]["params"] == {"n": "np.int64(3)", "x": None} and recs[3]["residual"] == 2.5

    def test_csv_prints_the_float_repr(self):
        buf = io.StringIO()
        cli._write_rows(self.ROWS[:3], "csv", buf)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert [row["residual"] for row in rows] == ["1e-17", "inf", "0.0"]
        assert rows[2]["params"] == "x=nan;y=-inf"

    def test_an_error_record_is_null_in_json_and_inf_in_csv(self):
        argv = ["verify", "identity-b", "--m", "3", "--k", "2", "--x", "1e-200", "--r", "1"]
        (code, out), (csv_code, csv_out) = run_cli(argv), run_cli([*argv, "--format", "csv"])
        (rec,), (row,) = json_records(out), list(csv.DictReader(io.StringIO(csv_out)))
        assert code == csv_code == 1
        assert rec["residual"] is None and row["residual"] == "inf"
        detail = (
            "error: identity-b at m=3, k=2, x=1e-200, r=1: the scale max(|lhs|, |rhs|, largest term) is 0.0,"
            " below the normal float range"
        )
        assert rec["detail"] == row["detail"] == detail
