"""Property tests of layer invariants: the grid parser, strict record output, group laws,
the Kummer recurrence and the Kummer series.

Every test runs a fixed, derandomized set of examples, so the suite stays
deterministic.
"""

import io
import json

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import group_matrix3
from e2fock import identities
from e2fock.cli import _parse_grid, main
from e2fock.e2group import GroupElement, compose, identity, inverse
from e2fock.fock import safe_block
from e2fock.specfun import kummer_phi_seq, kummer_phi_series

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
