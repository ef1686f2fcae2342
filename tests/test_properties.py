"""Property tests of layer invariants: the grid parser, strict record output, group laws,
the Kummer recurrence, the Kummer series, array lanes of the Kummer and Miller recurrences,
the scalar vectors a grid shares, the D_n tables and Bessel rows of the addition checks, the
vacuum sum's term count, and the normal float range of each passing record's scale.

Every test runs a fixed, derandomized set of examples, so the suite stays
deterministic.
"""

import io
import json
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import group_matrix3, hyp2f0_per_entry
from e2fock import identities, specfun
from e2fock.cli import _parse_grid, main
from e2fock.e2group import GroupElement, IrrepLabel, compose, identity, inverse
from e2fock.fock import safe_block
from e2fock.specfun import bessel_j_seq, hyp2f0_seq, kummer_phi_seq, kummer_phi_series, log_factorial

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=40)
CLI = settings(PROPERTY, max_examples=12)

ints = st.integers(-50, 50)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


class TestGridParser:
    @PROPERTY
    @given(st.lists(ints, min_size=1, max_size=6))
    def test_integer_lists_round_trip(self, values):
        assert _parse_grid("k", ",".join(map(str, values))) == values

    @PROPERTY
    @given(ints, st.integers(0, 20))
    def test_ranges_are_inclusive(self, lo, width):
        assert _parse_grid("k", f"{lo}..{lo + width}") == list(range(lo, lo + width + 1))

    @PROPERTY
    @given(ints, st.integers(1, 20))
    def test_reversed_ranges_raise(self, lo, width):
        with pytest.raises(ValueError, match="gives no values"):
            _parse_grid("k", f"{lo + width}..{lo}")

    @PROPERTY
    @given(st.lists(finite_floats, min_size=1, max_size=6))
    def test_finite_floats_round_trip_by_repr(self, values):
        assert _parse_grid("x", ",".join(map(repr, values))) == values

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1,nan", "0.5,inf"])
    @pytest.mark.parametrize("flag", ["x", "k"])
    def test_non_finite_values_raise(self, flag, text):
        with pytest.raises(ValueError, match="finite"):
            _parse_grid(flag, text)

    @CLI
    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=4), st.integers(-30, 0))
    def test_negative_values_reach_main(self, ks, n):
        # argparse takes "-3,4" or "-5" for an option; main folds it into its flag
        buf = io.StringIO()
        argv = ["table", "irrep", "--lambda", "1", "--r", "0", "--k", ",".join(map(str, ks)), "--n", str(n)]
        assert main(argv, stream=buf) == 0
        rows = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert [(row["k"], row["n"]) for row in rows] == [(k, n) for k in ks]


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _strict_records(argv):
    buf = io.StringIO()
    code = main([*argv, "--format", "json"], stream=buf)
    records = [json.loads(line, parse_constant=_reject_constant) for line in buf.getvalue().splitlines()]
    for rec in records:
        assert isinstance(rec["residual"], float) or (rec["residual"] is None and not rec["pass"])
    assert code == (0 if all(rec["pass"] for rec in records) else 1)
    return records


def _grid(values):
    return ",".join(map(repr, values))


radii = st.lists(st.sampled_from([-1.0, 0.25, 0.5, 1.0, 2.0, 3.0]), min_size=1, max_size=3)


class TestStrictRecords:
    @CLI
    @given(
        st.lists(st.integers(0, 10), min_size=1, max_size=3),
        st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0]), min_size=1, max_size=2),
        radii,
    )
    def test_identity_a(self, ks, xs, rs):
        records = _strict_records(["verify", "identity-a", "--k", _grid(ks), "--x", _grid(xs), "--r", _grid(rs)])
        assert len(records) == len(ks) * len(xs) * len(rs)
        errors = [rec for rec in records if rec["residual"] is None]
        assert len(errors) == len(ks) * len(xs) * rs.count(-1.0)

    @CLI
    @given(st.sampled_from([8, 16, 32]), radii, st.lists(st.sampled_from([0.0, 0.7, -2.0]), min_size=1, max_size=2))
    def test_unitarity(self, dim, rs, psis):
        argv = ["verify", "unitarity", "--dim", str(dim), "--r", _grid(rs), "--psi", _grid(psis)]
        records = _strict_records(argv)
        # one record per (r, psi), and the dim-doubling record unless r's safe block is too small
        monotone = 1 if safe_block(32, rs[-1]) >= 2 else 0
        assert len(records) == len(rs) * len(psis) + monotone
        assert sum(rec["name"] == "unitarity-monotone" for rec in records) == monotone


elements = st.builds(
    GroupElement,
    st.floats(0.0, 5.0),
    st.floats(-10.0, 10.0),
    st.floats(-10.0, 10.0),
)

# absolute tolerance on the 3x3 matrices: their translation entries, sums of
# at most three terms of modulus <= 5, carry a few roundings of 15 * 2**-53
GROUP_ATOL = 1e-13


class TestGroupLaws:
    @PROPERTY
    @given(elements)
    def test_inverse(self, g):
        for h in (compose(g, inverse(g)), compose(inverse(g), g)):
            assert np.allclose(group_matrix3(h), group_matrix3(identity()), rtol=0, atol=GROUP_ATOL)

    @PROPERTY
    @given(elements, elements, elements)
    def test_associative(self, a, b, c):
        left, right = compose(compose(a, b), c), compose(a, compose(b, c))
        assert np.allclose(group_matrix3(left), group_matrix3(right), rtol=0, atol=GROUP_ATOL)


class TestKummerSequence:
    @settings(PROPERTY, max_examples=200)
    @given(st.integers(0, 120), st.integers(1, 30), st.floats(-40.0, 40.0))
    def test_matches_mpmath(self, nmax, b, x):
        # each Phi(-n, b; x) against mpmath at 60 digits, relative to the larger
        # of |Phi| and the largest term of the terminating series, which
        # cancels to a small value near the polynomial's nodes
        # (an exact zero at a node needs zeroprec: mpmath cannot reach a
        # relative accuracy there)
        phis = kummer_phi_seq(nmax, b, x)
        with mpmath.workdps(60):
            for n, got in enumerate(phis):
                j = np.arange(n)
                largest = np.max(np.cumprod((n - j) * abs(x) / ((j + 1) * (b + j))), initial=1.0)
                want = mpmath.hyp1f1(-n, b, x, zeroprec=400)
                assert float(abs(got - want)) <= 1e-12 * max(abs(float(want)), largest), (n, b, x)


class TestLanes:
    # an array call runs every lane at once; each row must be the scalar call's floats, bit for bit,
    # and a lane must be as silent as Python floats where its values leave the float range

    @PROPERTY
    @given(
        st.integers(0, 400),
        st.lists(
            st.tuples(st.integers(1, 60), st.one_of(st.floats(-60.0, 400.0), st.floats(-1e6, -1e3))),
            min_size=1,
            max_size=12,
        ),
    )
    def test_kummer_lanes_are_scalar_runs(self, nmax, lanes):
        # x far below 0 makes Phi grow past 1e308 before n = 400: those lanes turn inf, then NaN
        b, x = (np.array(v) for v in zip(*lanes))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = kummer_phi_seq(nmax, b, x)
        assert rows.shape == (len(lanes), nmax + 1)
        for row, (bi, xi) in zip(rows, lanes):
            assert row.tobytes() == kummer_phi_seq(nmax, bi, xi).tobytes()

    def test_kummer_lanes_overflow_silently(self):
        b, x = np.array([1, 3, 2]), np.array([-5e3, 2.5, -1e6])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = kummer_phi_seq(300, b, x)
        assert np.isinf(rows[0]).any() and np.isnan(rows[2]).any() and np.isfinite(rows[1]).all()
        for row, bi, xi in zip(rows, b.tolist(), x.tolist()):
            assert row.tobytes() == kummer_phi_seq(300, bi, xi).tobytes()

    def test_lanes_refuse_what_the_scalar_call_refuses(self):
        with pytest.raises(ValueError, match="b >= 1"):
            kummer_phi_seq(5, np.array([2, 0]), 1.0)
        with pytest.raises(ValueError, match="x >= 0"):
            bessel_j_seq(5, -1.0)
        with pytest.raises(ValueError, match="above the cap"):
            bessel_j_seq(3, 2e6)

    @PROPERTY
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 410),
                # x from 1e-29 to 1e3, above and below nmax; below 1e-30 the series; 2e6 past the step cap; inf
                st.one_of(st.floats(-29.0, 3.0).map(lambda e: 10.0**e), st.sampled_from([0.0, 5e-324, 3e-31, 2e6])),
            ),
            min_size=2,
            max_size=10,
        ),
        st.booleans(),
    )
    @example([(80, 1e6), (5, 2.0), (410, 1e3), (9, 3e-31), (0, 0.0)], True)
    def test_bessel_lanes_are_scalar_runs(self, lanes, infinite):
        # each lane starts its own recurrence, at max(nmax, x) well above, and rescales on its own; a lane the
        # scalar call refuses is NaN, and the others are untouched by it
        nmax, x = (np.array(v) for v in zip(*lanes))
        if infinite:
            x[-1] = math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = bessel_j_seq(nmax, x)
        assert rows.shape == (len(lanes), nmax.max() + 1)
        for row, n, v in zip(rows, nmax.tolist(), x.tolist()):
            try:
                want = bessel_j_seq(n, v)
            except (ValueError, OverflowError):
                assert np.isnan(row).all() and v > 9e5, (n, v)
                continue
            assert row[: n + 1].tobytes() == want.tobytes(), (n, v)

    def test_the_step_cap_refuses_its_own_lane_alone(self):
        # the scalar call's refusal, its message unchanged, reaches identity-b at its point, the block's other
        # points read their own rows
        rows = bessel_j_seq(np.array([5, 80, 9]), np.array([2.0, 1e6, 1e-31]))
        assert np.isnan(rows[1]).all() and np.isfinite(rows[[0, 2]]).all()
        for i, (n, v) in enumerate([(5, 2.0), (9, 1e-31)]):
            assert rows[2 * i, : n + 1].tobytes() == bessel_j_seq(n, v).tobytes()
        with pytest.raises(ValueError) as refusal:
            bessel_j_seq(80, 1e6)
        assert str(refusal.value) == (
            "Bessel argument 1000000.0 at order 80 needs 1e+06 recurrence steps, above the cap of 1000000"
        )
        records = _strict_records(["verify", "identity-b", "--m", "0,1", "--k", "0", "--x", "0.5,5e5", "--r", "1"])
        assert [rec["detail"] for rec in records if rec["residual"] is None] == [f"error: {refusal.value}"] * 2
        assert sum(rec["pass"] for rec in records) == 2

    def test_modified_bessel_lanes_are_scalar_runs(self):
        # the lanes of e^{-x} I_k(x), the recurrence with sign +1 that bessel_i_scaled runs above x = 30
        nmax, x = np.array([0, 40, 7, 300]), np.array([31.0, 250.0, 600.0, 45.5])
        rows = specfun._miller_seq(nmax, x, 1, 1)
        for row, n, v in zip(rows, nmax.tolist(), x.tolist()):
            assert row[: n + 1].tobytes() == specfun._miller_seq(n, v, 1, 1).tobytes()

    @PROPERTY
    @given(
        # m = 0, m on both sides of the 80 entries, and 7200, whose q!/(q-p)! leaves the float range at n = 80
        st.lists(st.one_of(st.integers(0, 300), st.sampled_from([0, 80, 81, 7200])), min_size=1, max_size=6),
        st.integers(0, 120),
        st.one_of(st.floats(-30.0, 30.0), st.sampled_from([0.0, -1e200, 1e200, -1e-300, 1e160])),
    )
    @example([0, 7200, 81, 5], 90, -1.5)
    @example([3, 40, 0], 80, 1e200)
    def test_hyp2f0_lanes_are_scalar_columns(self, ms, nmax, x):
        # one Kummer run serves every m at this x; a column past the float range is inf or NaN as the scalar
        # call's is, and a lane whose q!/(q-p)! the scalar call refuses is NaN from there on
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = hyp2f0_seq(np.array(ms), nmax, x)
        assert rows.shape == (len(ms), nmax + 1)
        for row, m in zip(rows, ms):
            try:
                want = hyp2f0_seq(m, nmax, x)
            except OverflowError:
                assert m == 7200 and nmax >= 80 and np.isnan(row[80:]).all() and x != 0.0
                continue
            assert row.tobytes() == want.tobytes(), (m, nmax, x)


class TestKummerSeries:
    @settings(PROPERTY, max_examples=200)
    @given(st.floats(0.0, 7.0), st.integers(1, 12), st.floats(0.0, 20.0), st.booleans())
    def test_matches_mpmath(self, log_n, b, nx, positive):
        # degrees up to 1e7 at n |x| <= 20, the limit suites' regime, against
        # mpmath at 40 digits.  For x < 0 every term is positive; for x > 0 they
        # alternate, and the error is measured against the larger of |Phi| and
        # the largest term, as for the recurrence
        n = round(10**log_n)
        x = nx / n if positive else -nx / n
        got = kummer_phi_series(n, b, x)
        assert got is not None, (n, b, x)
        with mpmath.workdps(40):
            want = float(mpmath.hyp1f1(-n, b, x, zeroprec=400))
        if x < 0:
            assert abs(got - want) <= 1e-14 * abs(want), (n, b, x)
        else:
            j = np.arange(min(n, 60))
            largest = np.max(np.cumprod((n - j) * x / ((j + 1) * (b + j))), initial=1.0)
            assert abs(got - want) <= 1e-13 * max(abs(want), largest), (n, b, x)

    @pytest.mark.parametrize(
        "n, b, x",
        [
            (40, 1, 40.0),  # n x = 1600: the terms reach 2.9e25 and cancel to 3.0e7
            (10**6, 3, 1600 / 10**6),  # lam r = 80: terms up to 2.7e29 cancel to 8.6e-5
            (10**9, 1, -1e5 / 10**9),  # all terms positive, but more than 200 of them
        ],
    )
    def test_refused(self, n, b, x):
        assert kummer_phi_series(n, b, x) is None

    def test_exact_at_degree_0_and_at_its_last_term(self):
        assert kummer_phi_series(0, 4, 123.0) == 1.0
        assert kummer_phi_series(1, 2, 3.0) == 1.0 - 3.0 / 2.0
        assert kummer_phi_series(2, 1, 1.0) == 1.0 - 2.0 + 0.5

    def test_limit_suites_take_the_series_path(self, monkeypatch):
        # the default grids, and a grid over perfbench's scalar-special spans
        # (lam in [1, 4], r in [0.8, 2], c in [0.5, 9]), never reach the recurrence
        def recurrence(n, b, x):
            raise AssertionError(f"Phi(-{n}, {b}; {x!r}) fell back to the recurrence")

        monkeypatch.setattr(identities, "kummer_phi", recurrence)
        lams, rs, cs = (np.linspace(*span).tolist() for span in ((1.0, 4.0, 13), (0.8, 2.0, 13), (0.5, 9.0, 18)))
        for argv in (
            ["verify", "classical-limit"],
            ["verify", "kummer-limit"],
            ["verify", "classical-limit", "--lambda", _grid(lams), "--r", _grid(rs)],
            ["verify", "kummer-limit", "--x", _grid(cs)],
        ):
            records = _strict_records(argv)
            assert all(rec["residual"] is not None for rec in records), argv


class TestMemoizedVectors:
    # the identity checks read these vectors in place of per-term calls, so
    # each entry must be the scalar function's float, signed zeros included
    @PROPERTY
    @given(st.integers(0, 40), st.integers(1, 40), st.floats(0.05, 20.0), st.booleans())
    def test_hyp2f0_column_is_the_per_entry_recurrence(self, m, beyond, magnitude, negative):
        # the column runs past n = m, so it holds entries with m above and below n; its
        # lanes that run on past their own step may overflow, and must do so silently
        nmax, x = m + beyond, -magnitude if negative else magnitude
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            column = hyp2f0_seq(m, nmax, x)
        assert [repr(v) for v in column.tolist()] == [repr(hyp2f0_per_entry(m, n, x)) for n in range(nmax + 1)]

    @PROPERTY
    @given(st.lists(st.integers(0, 300), min_size=1, max_size=6), st.integers(1, 12), st.floats(-30.0, 30.0))
    def test_a_shared_kummer_run_is_kummer_phi_seq(self, requests, b, x):
        # a grid runs one lane per (b, x) to its largest nmax, and each point reads the floats of a run to its own
        # nmax: here 16 b by the requested degrees, one block of 16 lanes
        built = []

        def lanes(nmax, bs, xs):
            built.append(len(bs))
            return kummer_phi_seq(nmax, bs, xs)

        def request(bi, nmax):
            return [(nmax, bi, x)]

        def kernel(blocks):
            for block, _, runs, values in blocks:
                for j, ((nmax, lane),) in enumerate(runs):
                    yield block[j], values[lane, : nmax + 1]

        points = [(bi, nmax) for bi in range(b, b + 16) for nmax in requests]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(identities, "kummer_phi_seq", lanes)
            got = identities._grid_outcomes(request, kernel, points)
        assert built == [16]
        for (bi, nmax), phis in zip(points, got):
            assert phis.tobytes() == kummer_phi_seq(nmax, bi, x).tobytes()

    @PROPERTY
    @given(st.integers(171, 600))
    def test_log_factorials_are_log_factorial(self, nmax):
        # every vector runs past n = 170, where log_factorial leaves its exact table for lgamma
        logf = identities._log_factorials(nmax)
        assert [repr(v) for v in logf.tolist()] == [repr(log_factorial(n)) for n in range(nmax + 1)]


# each coordinate's values hold ones a check refuses (negative k or m, x <= 0, zq > 0.95), ones whose square
# overflows or underflows, and ordinary ones; points drawn from so few values repeat
_KERNEL_POINTS = {
    "kummer_recurrence_residual": ([-1, 0, 1, 3, 12], [0.25, 3.0, 16.0, -2.0, 1e-200, 1e200], [0, 1, 7, 60]),
    # r = 0.5 and 0.55 share a term count, 14, so one 2-D pass holds both
    "identity_a": ([-1, 0, 3, 12], [0.25, 1.0, 2.0, 0.0, 1e-200, 1e200], [0.5, 0.55, 2.0, -1.0, 1e-200, 1e200]),
    # 2xr = 2e200 is past the Bessel recurrence's cap, and xr = 60 makes a non-convergent tail.  At k = 1400 a
    # point's factor rows, 1481 or more floats each, outweigh its Kummer run: the default block holds the 2F0 table
    # and about 7 rows, so a grid of a few such points runs in several blocks of tables over one of Kummer lanes
    "identity_b": ([-1, 0, 2, 7], [-1, 0, 3, 1400], [0.5, 1.0, 2.0, 0.0, 1e-200, 1e200], [0.5, 1.5, 1e-200, 60.0]),
    # x = y = 4 at zq = 0.8 is the argument 35.78 of I_k, past the series: k = 4 reads the Miller run to
    # ceil(35.78) = 36 that every k <= 36 shares, and k = 40 its own run
    "hille_hardy_residual": (
        [-1, 0, 4, 40],
        [0.5, 4.0, 0.0, 1e-200, 1e5, 1e200],
        [0.5, 4.0, 800.0, 1e200],
        [0.3, 0.8, 0.95, 0.96],
    ),
}


def _described(outcome):
    # a Residual as its residual's repr and its detail, an error as its type and message
    if isinstance(outcome, Exception):
        return type(outcome).__name__, str(outcome)
    return repr(outcome.residual), outcome.detail


def _one_point(check, point):
    try:
        return _described(check(*point))
    except (ValueError, ArithmeticError) as exc:
        return _described(exc)


class TestGridKernels:
    # a grid gives each point what the one-point call gives it, whatever else the grid holds: 2**10 bytes hold
    # about one point's lanes, rows or 2-D pass, so there a grid runs in several blocks and passes
    @pytest.mark.parametrize("cap", [None, 2**10], ids=["default-cap", "small-cap"])
    @pytest.mark.parametrize("name", list(_KERNEL_POINTS))
    @PROPERTY
    @given(data=st.data())
    def test_a_grid_gives_each_point_its_one_point_outcome(self, name, cap, data):
        check = getattr(identities, name)
        points = data.draw(st.lists(st.tuples(*map(st.sampled_from, _KERNEL_POINTS[name])), min_size=1, max_size=10))
        points += points[:2]
        with pytest.MonkeyPatch.context() as patch:
            if cap is not None:
                patch.setattr(identities, "_BLOCK_BYTES", cap)
            got = check.grid(points)
        assert [_described(outcome) for outcome in got] == [_one_point(check, point) for point in points]


def test_orders_sharing_a_miller_run_give_their_one_point_outcomes(monkeypatch):
    # at x = y = 4, zq = 0.8 the argument of I_k is 35.78: k = 0, 4 and 36 read one Miller run to 36, k = 37 and 40
    # runs of their own, and a point with non-finite terms (x = 1e5, y = 800) runs none
    from e2fock import specfun

    points = [(k, 4.0, 4.0, 0.8) for k in (4, 40, 0, 36, 37, 4)] + [(0, 1e5, 800.0, 0.5)]
    want = [_one_point(identities.hille_hardy_residual, point) for point in points]
    runs, miller = [], specfun._miller_seq
    monkeypatch.setattr(specfun, "_miller_seq", lambda *args: runs.append(args[:2]) or miller(*args))
    assert [_described(outcome) for outcome in identities.hille_hardy_residual.grid(points)] == want
    arg = 2.0 * math.sqrt(4.0 * 4.0 * 0.8) / (1.0 - 0.8)
    assert math.ceil(arg) == 36 and sorted(runs) == [(36, arg), (37, arg), (40, arg)]


class TestVacuumSums:
    # over r <= 26, where e^(r^2) still fits a float, k <= 10 and x <= 2 (lam = 2x), each check passes or is refused
    # by name, never failing at residual ~1 with no reason as it did from r ~ 8.29
    @PROPERTY
    @given(st.integers(0, 10), st.floats(0.01, 2.0), st.floats(0.05, 26.0))
    def test_identity_a_passes_or_is_refused(self, k, x, r):
        try:
            assert identities.identity_a(k, x, r).residual <= 1e-10
        except ArithmeticError as exc:
            assert "past n = 400" in str(exc) or str(exc) == "math range error"

    @settings(PROPERTY, max_examples=12)
    @given(st.integers(0, 10), st.floats(0.01, 2.0), st.floats(0.05, 26.0))
    def test_addition_vacuum_passes_or_is_refused(self, k, x, r):
        try:
            rep = identities.addition_vacuum_crosscheck(GroupElement(r, 0.7, 0.3), IrrepLabel(2 * x, k), dim=512)
        except (ValueError, ArithmeticError) as exc:
            assert "past n = 400" in str(exc) or "below the normal float range" in str(exc), str(exc)
        else:
            assert rep.residual <= 1e-9


def _records(*argv):
    buf = io.StringIO()
    main(["verify", *argv], stream=buf)
    return [json.loads(line) for line in buf.getvalue().splitlines()]


def _log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: min(10.0**e, high))


def _identity_b_scale(m, k, x, r):
    # max(|lhs|, |rhs|, largest term) of identity-b at 30 digits, every term to n = 40 past which they fall
    # factorially; the two sides agree, so |lhs| stands for both.  Phi(-m, 1+k; z) and 2F0(-p, -n; z) are their
    # terminating sums, which mpmath's hyp1f1 and hyp2f0 do not always converge to (Phi(-1, 1; 1) = 0)
    with mpmath.workdps(30):
        x, r, p = mpmath.mpf(x), mpmath.mpf(r), m + k
        phi = mpmath.fsum((-x * x) ** j * mpmath.binomial(m, j) / mpmath.rf(1 + k, j) for j in range(m + 1))
        lhs = mpmath.binomial(m + k, k) * (x / r) ** k * phi

        def term(n):
            hyp = mpmath.fsum(
                mpmath.binomial(p, j) * mpmath.binomial(n, j) * mpmath.factorial(j) * (-1 / (r * r)) ** j
                for j in range(min(p, n) + 1)
            )
            return (-x * r) ** n / mpmath.factorial(n) * hyp * mpmath.besselj(k - n, 2 * x * r)

        return max([abs(lhs)] + [abs(term(n)) for n in range(41)])


class TestScalesBelowTheNormalRange:
    # a record passes only on a scale in the normal float range, computed here independently; any other record
    # fails with a detail, and a scale below the range is refused by name
    @settings(PROPERTY, max_examples=80)
    @given(
        _log_uniform(1e-200, 77.0),
        st.integers(-250, 250),
        _log_uniform(1e-200, 2.0),
        st.integers(0, 6),
        st.integers(0, 10),
        st.floats(0.5, 1.5),
    )
    def test_a_pass_has_a_normal_scale(self, lam, k, x, kb, m, r):
        a = abs(k)
        log_prefactor = a * math.log(lam / 2) - math.lgamma(a + 1) - lam * lam / 8
        checks = [
            (_records("eigen", "--lambda", repr(lam), "--k", str(k)), log_prefactor),
            (
                _records("identity-b", "--m", str(m), "--k", str(kb), "--x", repr(x), "--r", repr(r)),
                float(mpmath.log(_identity_b_scale(m, kb, x, r))),
            ),
        ]
        edge = math.log(sys.float_info.min)  # 1e-9 either side of it is left to rounding
        for recs, log_scale in checks:
            for rec in recs:
                assert rec["pass"] or rec["detail"], rec
                refused = not rec["pass"] and rec["detail"].endswith(", below the normal float range")
                assert refused if log_scale < edge - 1e-9 else not refused or log_scale < edge + 1e-9, rec


def test_kummer_limit_residual_is_mpmaths():
    # the degree recurrence printed 2.56e-9 here; the limit is approached as 1.127e-8
    buf = io.StringIO()
    main(["verify", "kummer-limit", "--n", "10000,100000", "--m", "10", "--x", "0.5"], stream=buf)
    rec = json.loads(buf.getvalue().splitlines()[0])
    n, b, c = 100000, 10, mpmath.mpf(0.5)
    with mpmath.workdps(40):
        bessel = mpmath.factorial(b - 1) * c ** ((1 - b) / mpmath.mpf(2)) * mpmath.besseli(b - 1, 2 * mpmath.sqrt(c))
        want = float(abs(mpmath.hyp1f1(-n, b, -c / n) / bessel - 1))
    assert abs(rec["residual"] - want) <= 0.01 * want, (rec["residual"], want)


def test_a_kummer_limit_past_the_normal_range_is_mpmaths():
    # (b-1)! c^((1-b)/2) I_(b-1)(2 sqrt(c)) is 1.18 at b = 300, c = 50, but I_299(14.1), about 1e-358, once
    # underflowed to 0 and the record was an error
    buf = io.StringIO()
    assert main(["verify", "kummer-limit", "--m", "300", "--x", "50"], stream=buf) == 0
    rec = json.loads(buf.getvalue().splitlines()[0])
    n, b, c = 10000, 300, mpmath.mpf(50)
    with mpmath.workdps(40):
        bessel = mpmath.factorial(b - 1) * c ** ((1 - b) / mpmath.mpf(2)) * mpmath.besseli(b - 1, 2 * mpmath.sqrt(c))
        want = float(abs(mpmath.hyp1f1(-n, b, -c / n) / bessel - 1))
    assert abs(rec["residual"] - want) <= 0.01 * want, (rec["residual"], want)


@pytest.mark.parametrize("m, x", [(171, 0.5), (170, 0.5), (150, 0.01)])
def test_a_kummer_limit_with_a_log_scaled_bessel_value_is_mpmaths(m, x):
    # I_(b-1)(2 sqrt(c)) is below the normal range here, and (b-1)! c^((1-b)/2) times it was once inf * 0, an
    # error record; each rung |lhs/rhs - 1| is now mpmath's to 1e-14, so both sides are, relative to their value
    buf = io.StringIO()
    assert main(["verify", "kummer-limit", "--m", str(m), "--x", str(x)], stream=buf) == 0
    rec = json.loads(buf.getvalue().splitlines()[0])
    rungs = [float(v) for v in rec["detail"].split("residuals ")[1].split(", ")]
    b, c = m, mpmath.mpf(x)
    with mpmath.workdps(40):
        bessel = mpmath.factorial(b - 1) * c ** ((1 - b) / mpmath.mpf(2)) * mpmath.besseli(b - 1, 2 * mpmath.sqrt(c))
        want = [float(abs(mpmath.hyp1f1(-n, b, -c / n) / bessel - 1)) for n in (100, 1000, 10000)]
    assert rec["pass"] and max(abs(got - w) for got, w in zip(rungs, want)) <= 1e-14, (rungs, want)
