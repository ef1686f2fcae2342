"""Property tests of layer invariants: the grid parser, strict record output, group laws,
the Kummer recurrence.

Every test runs a fixed, derandomized set of examples, so the suite stays
deterministic.
"""

import io
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import group_matrix3
from e2fock.cli import _parse_grid, main
from e2fock.e2group import GroupElement, IrrepLabel, compose, identity, inverse
from e2fock.fock import safe_block
from e2fock.identities import classical_limit_ladder
from e2fock.specfun import kummer_phi, kummer_phi_seq

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

    @PROPERTY
    @given(st.lists(st.integers(0, 400), max_size=8), st.integers(-29, 29), st.floats(1e-3, 60.0))
    def test_ladder_is_kummer_phi_bit_for_bit(self, degrees, k, lam):
        # one shared ladder gives each degree's own float, for unsorted and
        # repeated degrees, 0 among them; at sigma = 1, r = sqrt(n) has degree n
        degrees = [*degrees, 0, *degrees[:2]]
        got = classical_limit_ladder(IrrepLabel(lam, k), 1.0, [math.sqrt(n) for n in degrees])
        assert sorted(got) == sorted(set(degrees))
        for n in degrees:
            assert repr(got[n]) == repr(kummer_phi(n, 1 + abs(k), lam * lam / 4.0)), (n, k, lam)
