"""Machine-checkable verification of the global identities of the theory.

Every check of ``e2fock verify`` computes here (:mod:`repk` has the Lie
brackets and eigen-equations) and returns a :class:`Residual`: a scale-free
residual and, where the check found more than that number says, a detail.
The verifier only holds the tolerances, decides each pass and files records.
Residuals are measured against max(|lhs|, |rhs|, largest term magnitude):
both sandwich identities have parameter points where the two sides vanish
identically, so a plain relative error would be 0/0 there, and a scale below
the normal float range is refused where it is formed (:func:`repk.normal_scale`).

The four scalar checks (:func:`kummer_recurrence_residual`, :func:`identity_a`,
:func:`identity_b`, :func:`hille_hardy_residual`) take one point, and their grid
forms ``check.grid(points)`` give one Residual, or the ValueError or
ArithmeticError refusing it, per point.  Each is an array kernel: it refuses
points in Python, runs a block's Kummer runs as the lanes of one recurrence,
forms the terms of points that share a term count as the rows of one 2-D array,
and closes each point's residual in Python floats.  The two U(g) checks,
:func:`unitarity_residual` and :func:`intertwining_residual`, have grid forms
too, which build every point's core and products into one workspace.

The two addition checks share one grid form, :func:`addition_grid`, which
builds what their points share once for the call: each U(g)'s factors to the
rows they read, one table of D_n diagonals per dim (a Kummer lane call per
lam) and the Bessel rows of t_{kn}(g), one run per distinct lam r.  No check
keeps anything between calls.

The orthogonality relation and the two limit statements are distributional /
asymptotic and cannot be a single numeric equality at finite truncation; they
are exposed as profile and error-ladder computations whose qualitative
behavior (growth, boundedness, monotone decay) is asserted instead.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from .e2group import GroupElement, IrrepLabel, act_on_generator, irrep_row, irrep_rows, u_factors
from .fock import conjugated_block, safe_block
from .repk import basis_d, basis_diagonals, inner_product, normal_scale
from .specfun import (
    bessel_i_scaled,
    bessel_j,
    bessel_j_seq,
    hyp2f0_seq,
    kummer_phi,
    kummer_phi_seq,
    kummer_phi_series,
    log_factorial,
)

__all__ = [
    "Residual",
    "unitarity_residual",
    "unitarity_decay_residual",
    "intertwining_residual",
    "kummer_recurrence_residual",
    "identity_a",
    "identity_b",
    "addition_residual",
    "addition_vacuum_crosscheck",
    "hille_hardy_residual",
    "orthogonality_grading_residual",
    "orthogonality_growth_residual",
    "orthogonality_bounded_residual",
    "orthogonality_profile_curve",
    "classical_limit_error",
    "kummer_bessel_limit_residual",
    "worst_rise",
    "addition_grid",
]

_TERM_EPS = 1e-18

_ADDITION_NMAX = 60  # the addition theorem's n-sum runs over |n - k| <= this

_IDENTITY_B_TERMS = 80  # identity-b's n-sum runs over n <= this

# float rounding, which the unitarity defect's decay under dim doubling reaches by dim ~ 64
_DEFECT_FLOOR = 1e-13

# most scalar Kummer recurrence steps one limit-check value may run where its
# series is refused, a fraction of a second
_MAX_KUMMER_STEPS = 10**6

# most bytes a block of a grid check holds, 8 a float: Kummer lanes x (top degree + 1), (row lanes + min(e, T) + 1)
# x (T + 1 + e), T = _IDENTITY_B_TERMS and e the top first argument, over identity-b's Bessel rows and the one 2F0
# table a lane call builds at a time; a 2-D pass too
_BLOCK_BYTES = 2**20


class Residual(NamedTuple):
    """A check's scale-free residual, and what it found beyond that number.

    ``detail`` is None, a note, or a zero-argument callable that builds the
    note (:func:`addition_residual`'s diagnostic and the U(g) checks' worst
    entry, too costly to build for a record that passes).
    """

    residual: float
    detail: str | Callable[[], str] | None = None


def _caught(build, *args):
    # build(*args), or the ValueError or ArithmeticError refusing it
    try:
        return build(*args)
    except (ValueError, ArithmeticError) as exc:
        return exc


def _value(built):
    # a shared object a point reads, or the refusal met when it was built
    if isinstance(built, Exception):
        raise built
    return built


def _grid_outcomes(request, kernel, points) -> list:
    """One Residual, or the ValueError or ArithmeticError refusing it, per point of a grid check.

    ``request(*point)`` refuses its point or gives the Kummer runs (nmax, b, x) it reads, each with nmax >= 0 and
    b >= 1 as kummer_phi_seq requires, and the keys (build, *lane) of its rows, each point's i-th of one build.  The
    points go in blocks: one point, or as many as fit in _BLOCK_BYTES with one lane per distinct (b, x), run to the
    block's top degree, and one per distinct key.  A block runs its Kummer lanes as one kummer_phi_seq call, each
    the scalar run's floats bit for bit (a block of one point runs scalar runs, without a numpy step per degree),
    and a build's lanes as one table build(lanes), a row per lane, where build([lane]), a scalar call, refuses a
    lane whose row among several is not finite.  ``kernel(points, runs, values, (tables, rows))`` yields (j,
    outcome) for each point j: ``runs[j]`` lists (nmax, lane) for its runs, ``values[lane]`` holding Phi(-n, b; x)
    to the top degree, and ``rows[j]`` its keys' rows in ``tables``, a table a build, or the errors refusing them.
    """
    outcomes = [_caught(request, *point) for point in points]
    waiting = [i for i, outcome in enumerate(outcomes) if not isinstance(outcome, Exception)]
    while waiting:
        block, lanes, keys, top, widest = [], {}, {}, 0, 0
        for i in waiting:
            runs, rows = outcomes[i]
            degree, wanted = top, {}
            for nmax, b, x in runs:
                degree = max(degree, nmax)
                if (b, x) not in lanes:
                    wanted[b, x] = None
            built = {key: None for key in rows if key not in keys}
            extent = max([widest, *(key[1] for key in built)]) if built else widest
            rows_held = min(extent, _IDENTITY_B_TERMS) + 1 if rows else 0
            held = (len(keys) + len(built) + rows_held) * (_IDENTITY_B_TERMS + 1 + extent)
            floats = (len(lanes) + len(wanted)) * (degree + 1) + held
            if block and 8 * floats > _BLOCK_BYTES:
                break
            block.append(i)
            lanes |= wanted
            keys |= built
            top, widest = degree, extent
        waiting = waiting[len(block) :]
        if len(block) == 1:
            values = np.array([kummer_phi_seq(top, b, x) for b, x in lanes])
        else:
            values = kummer_phi_seq(top, *(np.array(column, dtype=float) for column in zip(*lanes)))
        lanes, kinds, tables = {lane: row for row, lane in enumerate(lanes)}, {}, {}
        runs = [[(nmax, lanes[b, x]) for nmax, b, x in outcomes[i][0]] for i in block]
        for build, *lane in keys:
            kinds.setdefault(build, []).append(tuple(lane))
        for build, group in kinds.items():
            tables[build] = table = _caught(build, group)
            refused = isinstance(table, Exception)
            finite = [True] * len(group) if refused or len(group) == 1 else np.isfinite(table).all(1)
            for i, (lane, kept) in enumerate(zip(group, finite)):
                keys[(build, *lane)] = table if refused else i if kept else _caught(build, [lane])
        rows = [[keys[key] for key in outcomes[i][1]] for i in block]
        tables = [tables[build] for build, *_ in outcomes[block[0]][1]]
        for j, outcome in kernel([points[i] for i in block], runs, values, (tables, rows)):
            outcomes[block[j]] = outcome
    return outcomes


def _passes(keys, arrays):
    # (key, positions) for the positions of each key in keys, in order of first appearance, split so that the
    # arrays 2-D temporaries of a pass, key[0] floats a position each, hold at most _BLOCK_BYTES
    groups = {}
    for j, key in enumerate(keys):
        groups.setdefault(key, []).append(j)
    for key, js in groups.items():
        step = max(1, _BLOCK_BYTES // (8 * arrays * key[0]))
        yield from ((key, js[start : start + step]) for start in range(0, len(js), step))


def _grid_check(kernel):
    # the check whose request is the decorated function: a function of one point, which returns its Residual or
    # raises its refusal, and whose .grid(points) runs it over a grid
    def decorate(request):
        @functools.wraps(request)
        def one(*point):
            return _value(_grid_outcomes(request, kernel, [point])[0])

        one.grid = functools.partial(_grid_outcomes, request, kernel)
        return one

    return decorate


def worst_rise(values, floor: float) -> float:
    """Largest step b - max(a, floor) from a rung a to the next b of a ladder that should fall; needs two rungs."""
    if len(values) < 2:
        raise ValueError(f"the monotone check needs at least two rungs, got {len(values)}")
    return max(b - max(a, floor) for a, b in zip(values, values[1:]))


def _checked_block(dim: int, r: float) -> int:
    # the block the U(g) checks read: the safe block, at least min(dim, 4) rows
    return max(safe_block(dim, r), min(dim, 4))


def _workspace(sizes, scaled: bool) -> tuple:
    # flat buffers for the largest (b, dim) of ``sizes``: the core, its copy and the product, u_factors' scratch
    core = np.empty(max(b * dim for b, dim in sizes))
    return core, np.empty(len(core) if scaled else 0), np.empty(max(max(b * b, 64 * (b + dim)) for b, dim in sizes))


def _u_grid(points, check, scaled: bool) -> list:
    # check(g, dim, b, *workspace) per point (g, dim), or the error refusing it, all built into one workspace sized
    # for the grid's largest checked block b, so that each point reuses the pages the one before it faulted in
    blocks = [_caught(_checked_block, dim, g.r) for g, dim in points]
    sizes = [(b, dim) for b, (_, dim) in zip(blocks, points) if not isinstance(b, Exception)] or [(0, 0)]
    work = _workspace(sizes, scaled)
    return [b if isinstance(b, Exception) else _caught(check, *point, b, *work) for b, point in zip(blocks, points)]


def _worst_entry(defect: np.ndarray, what: str) -> str:
    # where the largest |entry| of a check's b x b defect block sits, and the entry at level 0
    i, j = np.unravel_index(np.argmax(defect), defect.shape)
    b, worst, first = len(defect), float(defect[i, j]), float(defect[0, 0])
    return f"largest |{what}| is {worst:.3e} at (i, j) = ({i}, {j}) of the {b} x {b} block; at (0, 0) {first:.3e}"


def _unitarity(g: GroupElement, dim: int, b: int, core, _, product) -> Residual:
    # U* U = D_col* M^T M D_col and (M^T M)[i, j] = (-1)^(i+j) (M M^T)[i, j]: M's leading rows give the block
    M = u_factors(g, dim, b, out=core, scratch=product)[2]
    gram = np.matmul(M, M.T, out=product[: len(M) ** 2].reshape(len(M), -1))  # syrk, as M @ M.T
    np.einsum("ii->i", gram)[...] -= np.ones(b)  # in place on the diagonal; a core short of b rows raises

    def detail():  # built again, as the workspace holds a later point by the time a record fails
        M = u_factors(g, dim, b)[2]
        return _worst_entry(abs(M @ M.T - np.eye(b)), "(U*U - 1)_ij")

    return Residual(np.linalg.norm(gram), detail)


def unitarity_residual(g: GroupElement, dim: int) -> Residual:
    """||U* U - 1|| (Frobenius) on the safe block, at least min(dim, 4) rows, of the dim-truncated U(g).

    A one-point grid: ``unitarity_residual.grid(points)`` builds each point (g, dim) into one workspace.  A failing
    residual's detail names the largest entry of U* U - 1 and where it sits.
    """
    return _value(_u_grid([(g, dim)], _unitarity, False)[0])


unitarity_residual.grid = functools.partial(_u_grid, check=_unitarity, scaled=False)


def unitarity_decay_residual(g: GroupElement, block: int) -> Residual:
    """Worst rise of the unitarity defect on a fixed block at dims 32, 64, 128, each from max(last, 1e-13)."""
    work = _workspace([(block, 128)], False)
    defects = [float(_unitarity(g, dim, block, *work).residual) for dim in (32, 64, 128)]
    detail = "defects " + ", ".join(repr(d) for d in defects) + f" (floor {_DEFECT_FLOOR})"
    return Residual(worst_rise(defects, _DEFECT_FLOOR), detail)


def _intertwining(g: GroupElement, dim: int, b: int, core, copy, product) -> Residual:
    row, col, M = u_factors(g, dim, b, out=core, scratch=product)
    roots, n = np.sqrt(np.arange(1.0, dim)), len(M)  # a's entries, sqrt(n) at (n - 1, n)
    scaled = np.multiply(M[:, :-1], roots, out=copy[: n * (dim - 1)].reshape(n, -1))
    C = np.matmul(scaled, M[:, 1:].T, out=product[: n * n].reshape(n, n))
    alpha, beta = act_on_generator(g)
    p, q = row[:b] * (col[0] * col[1].conj()), row[:b].conj()
    diagonal, upper = np.einsum("ii->i", C), np.einsum("ii->i", C[:-1, 1:])
    bands = [(p * diagonal) * q - beta, (p[:-1] * upper) * q[1:] - alpha * roots[: b - 1]]
    diagonal[...], upper[...] = 0.0, 0.0
    # |p c q| is even in c, as rounding to nearest is, so C's magnitudes serve.  Every nonzero entry is formed
    # below 2^-970, where rounding is not relative, and every entry where C is not finite, as the cut is nan.  The
    # mask is made in the scaled copy, idle by now
    top, low = np.abs(C, out=C).max(), copy.view(bool)[: n * n].reshape(n, n)
    np.less_equal(C, top - top * 2**-40 if not top <= 2**-970 else 0.0, out=low)
    i, j = np.divmod(ij := np.flatnonzero(np.logical_not(low, out=low)), b)

    def detail():  # the complex block of fock.conjugated_block, less the action
        block = conjugated_block(u_factors(g, dim, b), roots, 1, b)
        block -= beta * np.eye(b) + alpha * np.diag(roots[: b - 1], 1)
        return _worst_entry(abs(block), "(U a U* - e^(i phi) a - r e^(i psi))_ij")

    return Residual(np.max(np.abs(np.concatenate([*bands, (p[i] * C.reshape(-1)[ij]) * q[j]]))), detail)


def intertwining_residual(g: GroupElement, dim: int) -> Residual:
    """Largest entry of U a U* - (e^{i phi} a + r e^{i psi}) on the block of :func:`unitarity_residual`.

    The pair (e^{i phi}, r e^{i psi}) is g's action on a, from :func:`e2group.act_on_generator`.  U a U* is
    p_i C_ij q_j with the real core product C = (M * sqrt(n)) @ M^T of :func:`fock.conjugated_block` and unit
    phases p, q, so no complex block is formed.  The two bands the identity subtracts are evaluated as
    :func:`fock.conjugated_block` and the subtraction would, entry by entry.  Off them a unit phase moves |C_ij|
    only by rounding, a few eps relative (Higham, Accuracy and Stability, sec. 3.6), so |p_i C_ij q_j| is formed
    only where |C_ij| is within 2^-40 of the off-band maximum: the residual is the complex block's float.  It has
    a grid form and a detail as :func:`unitarity_residual` has.
    """
    return _value(_u_grid([(g, dim)], _intertwining, True)[0])


intertwining_residual.grid = functools.partial(_u_grid, check=_intertwining, scaled=True)


def _recurrence_kernel(points, runs, values, _):
    # each point's worst row ratio, one 2-D pass per zmax
    for (steps,), js in _passes([(nmax,) for ((nmax, _),) in runs], 8):
        phis = values[[runs[j][0][1] for j in js], : steps + 1]
        b, x = (np.array([[float(points[j][axis])] for j in js]) for axis in (0, 1))
        a = -np.arange(1.0, steps)
        # an overflowing value or term makes its ratios NaN or inf, reported below
        with np.errstate(over="ignore", invalid="ignore"):
            t1, t2, t3 = a * phis[:, :-2], (a - b) * phis[:, 2:], (b - 2 * a - x) * phis[:, 1:-1]
            ratios = abs(t1 + t2 + t3) / np.maximum(np.maximum(abs(t1), abs(t2)), abs(t3))
        unchecked = ~np.isfinite(ratios)
        for j, worst, bad, first in zip(js, ratios.max(axis=1), unchecked.any(axis=1), unchecked.argmax(axis=1)):
            detail = f"non-finite Kummer value or ratio at zeta={first + 1}"
            yield j, Residual(math.inf, detail) if bad else Residual(worst)


@_grid_check(_recurrence_kernel)
def kummer_recurrence_residual(b: int, x: float, zmax: int) -> Residual:
    """Worst row of a Phi(a+1) + (a - b) Phi(a-1) + (b - 2a - x) Phi(a) = 0 at a = -1..-zmax, Phi = Phi(., b; x).

    Rows are relative to their largest term; b = 1 + |k|, x = lam^2/4 gives D_k's radial
    recurrence.  A non-finite value or ratio gives residual inf, its first zeta = -a in the detail.
    """
    if zmax < 1:
        raise ValueError(f"recurrence requires zmax >= 1, got {zmax}")
    if b < 1:
        raise ValueError(f"recurrence requires b >= 1, got {b}")
    return [(zmax + 1, b, float(x))], ()


def _log_factorials(nmax: int) -> np.ndarray:
    # log_factorial(n) for n = 0..nmax
    return np.array([log_factorial(n) for n in range(nmax + 1)])


def _log_power(n, r: float):
    # n log r for an integer or integer array n, with the limit of r^n at r = 0 (0^0 = 1)
    return n * math.log(r) if r > 0 else np.where(n == 0, 0.0, -math.inf)


def _vacuum_degree(r: float) -> int:
    # the last n of identity-a's left sum: the first n >= 10 past the weights' peak near r^2 whose weight r^{2n}/n!
    # is below 1e-18 of their sum e^{r^2}, refused past 400
    r2 = r * r
    nmax, t = 10, r2**10 / math.factorial(10) if r2 <= 400 else math.inf
    while nmax < r2 or t > _TERM_EPS * math.exp(r2):
        if nmax == 400:
            why = "the vacuum sum's weights r^(2n)/n! fall below 1e-18 of e^(r^2) past n = 400"
            raise ArithmeticError(f"r={r!r}: {why}")
        nmax += 1
        t *= r2 / nmax
    return nmax


def _vacuum_terms(r: float, phis: np.ndarray, logf: np.ndarray) -> np.ndarray:
    # terms (r^{2n}/n!) Phi(-n, 1+k; x^2) of identity-a's left side, truncated at _vacuum_degree(r), from
    # phis = Phi(-n, 1+k; x^2) and logf = log n! for n up to there
    return np.exp(_log_power(2 * np.arange(phis.shape[-1]), r) - logf) * phis


def _identity_a_kernel(points, runs, values, _):
    # each point's left sum and largest term, one 2-D pass per r
    for (steps, r), js in _passes([(nmax + 1, r) for ((nmax, _),), (_, _, r) in zip(runs, points)], 4):
        terms = _vacuum_terms(r, values[[runs[j][0][1] for j in js], :steps], _log_factorials(steps - 1))
        for j, lhs, largest in zip(js, terms.sum(axis=1).tolist(), abs(terms).max(axis=1).tolist()):
            yield j, _caught(_identity_a_residual, *points[j], lhs, largest)


def _identity_a_residual(k: int, x: float, r: float, lhs: float, largest: float) -> Residual:
    rhs = math.exp(log_factorial(k) - k * math.log(x * r) + r * r) * bessel_j(k, 2 * x * r)
    return Residual(abs(lhs - rhs) / max(abs(lhs), abs(rhs), largest))


@_grid_check(_identity_a_kernel)
def identity_a(k: int, x: float, r: float) -> Residual:
    """Vacuum sandwich of the addition theorem:

        sum_{n>=0} (r^{2n}/n!) Phi(-n, 1+k; x^2) = k! (xr)^{-k} e^{r^2} J_k(2xr).

    The sum is truncated once the term weight r^{2n}/n! drops below 1e-18
    relative to e^{r^2}; the right side is composed in log space.
    """
    if k < 0 or not (0 < x) or not (0 < r):
        raise ValueError("identity_a requires k >= 0, x > 0, r > 0")
    for name, value in (("x", x), ("r", r)):
        if math.isinf(value * value):
            raise OverflowError(f"identity-a at k={k}, x={x!r}, r={r!r}: {name}^2 is outside the float range")
    return [(_vacuum_degree(r), 1 + k, x * x)], ()


def _hyp2f0_rows(lanes) -> np.ndarray:
    # 2F0(-q, -n; -1/r^2), n = 0..80, a row per lane (q, r), a lane call per r; a lone lane refuses a non-finite one
    qs, rs = (np.array(axis) for axis in zip(*lanes))
    out = np.empty((len(lanes), _IDENTITY_B_TERMS + 1))
    for r in dict.fromkeys(rs.tolist()):
        q = qs[rs == r] if len(lanes) > 1 else lanes[0][0]
        out[rs == r] = hyp2f0_seq(q, _IDENTITY_B_TERMS, -1.0 / (r * r)) if r * r or len(lanes) == 1 else math.nan
    if len(lanes) == 1 and not np.isfinite(out).all():
        raise OverflowError(f"2F0(-{lanes[0][0]}, -n; -1/r^2) is not finite at r={lanes[0][1]!r}")
    return out


def _bessel_rows(lanes) -> np.ndarray:
    # J_{k-n}(z) for n = 0..80, a row per lane (k, z), with J_{-j} = (-1)^j J_j; a lone lane is a scalar call
    k, z = lanes[0] if len(lanes) == 1 else (np.array(axis) for axis in zip(*lanes))
    js = np.atleast_2d(bessel_j_seq(_IDENTITY_B_TERMS + k, z))
    orders = np.reshape(k, (-1, 1)) - np.arange(_IDENTITY_B_TERMS + 1)
    return np.where((orders < 0) & (orders % 2 == 1), -1.0, 1.0) * np.take_along_axis(js, abs(orders), axis=1)


def _identity_b_sums(js, columns, xrs) -> np.ndarray:
    # (right side, largest term, last term) of identity-b's n-sum, one row per point's factor rows and weights
    # (-xr)^n/n!, the running products of the factors -xr/n, silent where a weight or term overflows or inf - inf
    # is NaN.  Accumulates run in order along each row, so each value is the float of a loop that takes one term
    # at a time; term 0 is J_k(2xr), finite, and fmax skips a NaN term as max(term_max, |term|) does
    with np.errstate(over="ignore", invalid="ignore"):
        factors = -np.array(xrs)[:, None] / np.arange(1.0, _IDENTITY_B_TERMS + 1)
        terms = np.cumprod(np.column_stack((np.ones(len(xrs)), factors)), axis=1) * columns * js
        sizes = abs(terms)
        term_maxes = np.fmax.accumulate(sizes, axis=1)
        # each sum stops at the first n > 10 whose term is below 1e-18 of the largest so far, or at n = 80
        small = sizes[:, 11:] < _TERM_EPS * term_maxes[:, 11:]
        points, first = np.arange(len(terms)), small.argmax(axis=1)
        n = np.where(small[points, first], 11 + first, _IDENTITY_B_TERMS)
        sums = np.add.accumulate(terms, axis=1)
    return np.column_stack((sums[points, n], term_maxes[points, n], sizes[points, n]))


def _identity_b_kernel(points, runs, values, rows):
    # the n-sums of the points whose factor rows were built, in 2-D passes of 8 x 81 floats a point
    tables, rows = rows
    summed = [j for j, factors in enumerate(rows) if not any(isinstance(row, Exception) for row in factors)]
    sums = {}
    for _, js in _passes([(_IDENTITY_B_TERMS + 1,)] * len(summed), 8):
        js = [summed[j] for j in js]
        factors = [table[list(picked)] for table, picked in zip(tables, zip(*(rows[j] for j in js)))]
        sums.update(zip(js, _identity_b_sums(*factors, [points[j][2] * points[j][3] for j in js]).tolist()))
    phis = values[[lane for ((_, lane),) in runs], [m for m, *_ in points]].tolist()
    for j, (point, phi, factors) in enumerate(zip(points, phis, rows)):
        yield j, _caught(_identity_b_residual, *point, phi, factors, sums.get(j))


def _identity_b_residual(m: int, k: int, x: float, r: float, phi: float, factors, sums) -> Residual:
    lhs = math.exp(log_factorial(m + k) - log_factorial(m) - log_factorial(k) + k * math.log(x / r)) * phi
    if sums is None:  # the first factor row refused
        raise next(row for row in factors if isinstance(row, Exception))
    rhs, term_max, tail = sums
    what = f"identity-b at m={m}, k={k}, x={x!r}, r={r!r}: the scale max(|lhs|, |rhs|, largest term)"
    scale = normal_scale(max(abs(lhs), abs(rhs), term_max), what)
    detail = None
    residual = abs(lhs - rhs) / scale
    if tail > 1e-12 * scale:
        detail = f"non-convergent tail: last term {tail:.3e} vs scale {scale:.3e}"
        residual = max(residual, tail / scale)
    elif not math.isfinite(rhs):
        detail = f"the n-sum overflows: its weights (-xr)^n/n! or terms leave the float range, and it reads {rhs}"
    elif tail >= term_max:
        detail = f"the n-sum still rises at n = {_IDENTITY_B_TERMS}: its last term {tail:.3e} is its largest"
    return Residual(residual, detail)


@_grid_check(_identity_b_kernel)
def identity_b(m: int, k: int, x: float, r: float) -> Residual:
    """Shifted sandwich of the addition theorem:

        ((m+k)!/(m! k!)) (x/r)^k Phi(-m, 1+k; x^2)
            = sum_{n>=0} ((-xr)^n/n!) 2F0(-m-k, -n; -1/r^2) J_{k-n}(2xr).

    The sum runs to n = 80 at most; a last term above 1e-12 of the scale is
    a non-convergent tail, named in the detail and counted in the residual.
    A sum that overflows, or whose last term is its largest, says so too.
    """
    if m < 0 or k < 0 or not (0 < x) or not (0 < r):
        raise ValueError("identity_b requires m, k >= 0, x > 0, r > 0")
    # the n-sum's factors J_{k-n}(2xr) and 2F0(-m-k, -n; -1/r^2); the kernel forms the weights (-xr)^n/n!
    rows = (_bessel_rows, k, 2 * x * r), (_hyp2f0_rows, m + k, r)
    return [(m, 1 + k, float(x * x))], rows


def addition_grid(theorem, vacuum) -> tuple[list, list]:
    """One Residual, or the ValueError or ArithmeticError refusing it, per point (g, label, dim) of each check.

    ``theorem`` holds points of :func:`addition_residual`, ``vacuum`` of :func:`addition_vacuum_crosscheck`.  What
    they share is built once: U(g)'s factors per (g, dim) to the rows its points read (the safe block, or row 0),
    every t_{kn}(g) of the theorem from one Bessel run per distinct lam r (:func:`e2group.irrep_rows`), and per dim
    one table of the D_n diagonals the points read (:func:`repk.basis_diagonals`).  A point reads them in the order
    its check once built them, so it meets the refusal it met then.
    """
    far = ValueError("addition_residual requires lam * r <= 6")
    negative = ValueError("vacuum cross-check uses k >= 0")
    theorem = [(far if label.lam * g.r > 6.0 else None, (g, label, dim)) for g, label, dim in theorem]
    vacuum = [(negative if label.k < 0 else None, (g, label, dim)) for g, label, dim in vacuum]
    kept, sums, windings = [point for got, point in theorem if got is None], {}, {}
    depth = {(g, dim): safe_block(dim, g.r) for g, _, dim in kept}  # the rows of U(g)'s core the theorem reads
    for (g, label, dim), row in zip(kept, irrep_rows([(label, g) for g, label, _ in kept], _ADDITION_NMAX)):
        # the n-sum's candidate n and t_kn(g): n = k - 60..k + 60 where D_n meets the safe block b and |t_kn| sqrt(b)
        # >= 1e-16 |D_k[0]|, as D_n's entries are at most 1 (D_n is an angular Fourier mode of U(lam/2, psi, 0))
        b, a, ns = depth[g, dim], abs(label.k), np.arange(label.k - _ADDITION_NMAX, label.k + _ADDITION_NMAX + 1)
        d0 = math.exp(_log_power(a, label.lam / 2) - label.lam**2 / 8 - 0.5 * log_factorial(a))  # |D_k[0]|
        near = (abs(ns) < b) & ~(abs(row) * math.sqrt(b) < 1e-16 * d0)
        sums[g, label, dim] = b, ns[near].tolist(), row[near].tolist()
        windings.setdefault(dim, {}).setdefault(label.lam, set()).update(ns[near].tolist())
    kept += [point for got, point in vacuum if got is None]
    for g, label, dim in kept:
        windings.setdefault(dim, {}).setdefault(label.lam, set()).add(label.k)
    factors = {key: _caught(u_factors, *key, max(depth.get(key, 1), 1)) for key in {(g, dim) for g, _, dim in kept}}
    diagonals = {dim: basis_diagonals(lams, dim) for dim, lams in windings.items()}
    return tuple(
        [got or _caught(check, *p, diagonals[p[2]], factors[p[0], p[2]], sums) for got, p in points]
        for points, check in ((theorem, _addition_residual), (vacuum, _vacuum_residual))
    )


def addition_residual(g: GroupElement, label: IrrepLabel, dim: int) -> Residual:
    """Operator addition theorem U(g) D_k U(g)* = sum_n t_{kn}(g) D_n, k = label.k.

    Both sides are compared as truncated Fock matrices on the safe block; the n-sum runs over |n - k| <= 60
    where |t_{kn}(g)| >= 1e-16 or, on the block, |t_{kn}(g)| ||D_n|| >= 1e-16 ||D_k||, every t_{kn} from one Bessel
    run (:func:`e2group.irrep_rows`).  The residual is
    the Frobenius norm of the difference relative to that of D_k's block.  Each D_n occupies the single diagonal
    -n, so the right side is written diagonal by diagonal into the block, through a strided view of it.  The
    detail is a callable that fits each D_n's coefficient to the left side and names the worst mismatches against
    t_{kn}(g).  :func:`addition_grid` checks many points at once.
    """
    return _value(addition_grid([(g, label, dim)], [])[0][0])


def _addition_residual(g, label, dim, diagonals, factors, sums) -> Residual:
    lam, k = label.lam, label.k
    b, ns, ts = sums[g, label, dim]
    dk, factors = _value(diagonals[lam, k]), _value(factors)
    lhs = conjugated_block(factors, dk, -k, b)
    den = float(np.linalg.norm(dk[: max(b - abs(k), 0)]))

    rhs = np.zeros((b, b), dtype=complex)
    flat, kept = rhs.reshape(-1), set()
    for n, t in zip(ns, ts):
        dn, size = diagonals[lam, n], abs(t)
        # a term below 1e-16 counts where D_n outweighs D_k: |t_kn| ||D_n|| >= 1e-16 ||D_k||, on the block
        if size < 1e-16 and (isinstance(dn, Exception) or size * np.linalg.norm(dn[: b - abs(n)]) < 1e-16 * den):
            continue
        kept.add(n)
        dn = _value(dn)[: b - abs(n)]
        flat[n * b if n >= 0 else -n :: b + 1][: len(dn)] = t * dn  # diagonal -n: (i + n, i) or (i, i - n)

    num = float(np.linalg.norm(lhs - rhs))
    normal_scale(den, f"addition at lam={lam!r}, k={k}: the norm of D_k's block")

    def diagnostic():
        # built again from the shared objects, so that a grid holds no block for each record until it is filed
        terms = {n: (t, diagonals[lam, n][: b - abs(n)]) for n, t in zip(ns, ts) if n in kept}  # n -> (t_kn, D_n)
        return _addition_phase_diagnostic(conjugated_block(factors, dk, -k, b), terms)

    return Residual(num / den, diagnostic)


def _addition_phase_diagnostic(block, terms) -> str:
    # Project the transformed operator's safe block onto each D_n's diagonal
    # -n and report the worst per-n coefficient mismatches against t_{kn}(g).
    rows = []
    for n, (ref, dn) in terms.items():
        est = np.vdot(dn, np.diagonal(block, -n)) / np.vdot(dn, dn).real
        rows.append((abs(est - ref), n, est, ref))
    rows.sort(reverse=True)
    worst = "; ".join(f"n={n}: fitted {complex(est)!r}, expected {complex(ref)!r}" for _, n, est, ref in rows[:3])
    return "per-n coefficient mismatch: " + worst


def addition_vacuum_crosscheck(g: GroupElement, label: IrrepLabel, dim: int) -> Residual:
    """The <0|.|0> element of the addition theorem collapses to identity-a, k = label.k.

    Checks that (U D_k U*)_{00} equals both t_{k0}(g) f_0(0) and the
    e^{-ik psi} e^{-r^2} r^k (i lam/2)^k/k! e^{-lam^2/8}-weighted left sum of
    identity-a, tying the operator statement to the scalar identity.
    :func:`addition_grid` checks many points at once.
    """
    return _value(addition_grid([], [(g, label, dim)])[1][0])


def _vacuum_residual(g, label, dim, diagonals, factors, _) -> Residual:
    lam, k, r = label.lam, label.k, g.r
    dk = _value(diagonals[lam, k])
    s1 = complex(conjugated_block(_value(factors), dk, -k, 1)[0, 0])
    s3 = irrep_row(label, g, k)[0] * math.exp(-lam * lam / 8.0)  # t_k0(g) f_0(0)

    nmax, x = _vacuum_degree(r), lam / 2.0
    lhs_sum = float(np.sum(_vacuum_terms(r, kummer_phi_seq(nmax, 1 + k, x * x), _log_factorials(nmax))))
    s2 = (
        np.exp(-1j * k * g.psi)
        * math.exp(-r * r + _log_power(k, r) - log_factorial(k) - lam * lam / 8.0)
        * (1j * lam / 2.0) ** k
        * lhs_sum
    )
    difference = max(abs(s1 - s2), abs(s1 - s3))
    if r == 0.0 and k != 0:  # U(g) is diagonal and t_k0(g) = 0: each side is exactly 0, so any difference is a fault
        return Residual(difference)
    where = f"addition-vacuum at lam={lam!r}, k={k}, r={r!r}"
    scale = normal_scale(max(abs(s1), abs(s3)), f"{where}: the scale max(|(U D_k U*)_00|, |t_k0(g) f_0(0)|)")
    if s1 == 0:  # s1 sums M[0, i + k] D_k[i] M[0, i] over the core's row 0, M[0, d] = e^(-r^2/2) r^d/sqrt(d!)
        raise ArithmeticError(
            f"{where}: (U D_k U*)_00 reads 0 where t_k0(g) f_0(0) is {float(abs(s3))!r}: U(g)'s core flushes entries"
            " below 2^-511 to 0"
        )
    return Residual(difference / scale)


def _hille_hardy_kernel(points, runs, values, _):
    # each point's sum and largest term, one 2-D pass per (k, zq); L^k_n = C(n+k, n) Phi(-n, 1+k; .), so the
    # weight (n!/(n+k)!) C(n+k, n)^2 is C(n+k, n)/k!
    for (steps, k, zq), js in _passes([(run[0] + 1, k, zq) for (run, _), (k, *_, zq) in zip(runs, points)], 4):
        logf = _log_factorials(steps - 1 + k)
        logw = logf[k:] - logf[:steps] - 2 * logf[k]
        px, py = (values[[runs[j][axis][1] for j in js], :steps] for axis in (0, 1))
        # a term past the float range is refused, unwarned
        with np.errstate(over="ignore", invalid="ignore"):
            terms = np.exp(logw + np.arange(steps) * math.log(zq)) * px * py
            sums, largest = terms.sum(axis=1).tolist(), abs(terms).max(axis=1).tolist()
        outside = ~np.isfinite(terms)
        for j, *found in zip(js, sums, largest, outside.any(axis=1), outside.argmax(axis=1)):
            yield j, _caught(_hille_hardy_residual, *points[j], *found)


def _hille_hardy_residual(k: int, x: float, y: float, zq: float, lhs: float, largest: float, bad, first) -> Residual:
    if bad:
        raise OverflowError(f"hille-hardy at k={k}, x={x!r}, y={y!r}, zq={zq!r}: term n={first} is not finite")
    arg = 2.0 * math.sqrt(x * y * zq) / (1.0 - zq)
    ik, ik_log_scale = bessel_i_scaled(k, arg)
    log_rhs_mag = (
        -0.5 * k * math.log(x * y * zq)
        - math.log(1.0 - zq)
        - zq * (x + y) / (1.0 - zq)
        + math.log(abs(ik))
        + ik_log_scale
    )
    rhs = math.copysign(math.exp(log_rhs_mag), ik)
    what = f"hille-hardy at k={k}, x={x!r}, y={y!r}, zq={zq!r}: the scale max(|lhs|, |rhs|, largest term)"
    return Residual(abs(lhs - rhs) / normal_scale(max(abs(lhs), abs(rhs), largest), what))


@_grid_check(_hille_hardy_kernel)
def hille_hardy_residual(k: int, x: float, y: float, zq: float) -> Residual:
    """Bilinear Laguerre generating function:

        sum_n (n!/(n+k)!) L^k_n(x) L^k_n(y) z^n
            = (xyz)^{-k/2} (1-z)^{-1} e^{-z(x+y)/(1-z)} I_k(2 sqrt(xyz)/(1-z)).
    """
    if k < 0 or not (0 < x) or not (0 < y) or not (0 < zq < 1):
        raise ValueError("hille_hardy_residual requires k >= 0, x, y > 0, 0 < zq < 1")
    # the last n of the sum, where z^n falls below 1e-18, with 50 more terms; refused past zq = 0.95
    if zq > 0.95:
        raise ValueError("hille_hardy_residual requires zq <= 0.95")
    nmax = int(math.log(_TERM_EPS) / math.log(zq)) + 50
    if math.isinf(x * y * zq):
        raise OverflowError(f"hille-hardy at k={k}, x={x!r}, y={y!r}, zq={zq!r}: x y zq is outside the float range")
    return [(nmax, 1 + k, x), (nmax, 1 + k, y)], ()


def orthogonality_profile_curve(k: int, lambda1: float, lambda2: float, zmax: int) -> np.ndarray:
    """Running values of the truncated inner product (D^l1_k, D^l2_k).

    Entry z is the sum over zeta <= z of the products of the two Fock
    diagonals of :func:`repk.basis_d`.  Different windings are exactly
    orthogonal (the trace grading), so only equal k is of interest; the
    diagonal l1 = l2 grows without bound (delta normalization) while
    off-diagonal values oscillate boundedly.  Raises FloatingPointError
    where a diagonal entry, a product or a sum overflows, underflows or
    turns NaN, so a value below the float range is refused, not read as 0.
    """
    with np.errstate(over="raise", under="raise", invalid="raise"):
        d1 = basis_d(IrrepLabel(lambda1, k), zmax).diagonal
        d2 = d1 if lambda2 == lambda1 else basis_d(IrrepLabel(lambda2, k), zmax).diagonal
        return np.cumsum((d1.conj() * d2).real)


def _profile_to_1000(k: int, lambda1: float, lambda2: float, zmax: int) -> np.ndarray:
    if zmax < 1001:
        raise ValueError(f"zmax {zmax} is below 1001, so the profile does not reach its zeta = 1000 checkpoint")
    return orthogonality_profile_curve(k, lambda1, lambda2, zmax)


def orthogonality_grading_residual(label1: IrrepLabel, label2: IrrepLabel) -> Residual:
    """|(D^l1_k1, D^l2_k2)| over zeta <= 60, exactly 0 for k1 != k2 (the trace grading)."""
    return Residual(abs(inner_product(basis_d(label1, 60).coefficients, basis_d(label2, 60).coefficients)))


def orthogonality_growth_residual(k: int, lam: float, zmax: int) -> Residual:
    """Worst fall of the diagonal profile (D^lam_k, D^lam_k), unbounded in zeta, across zeta = 100, 400, 1000."""
    values = _profile_to_1000(k, lam, lam, zmax)
    checkpoints = [values[100], values[400], values[1000]]
    detail = "diagonal profile " + ", ".join(repr(float(c)) for c in checkpoints)
    return Residual(worst_rise([-c for c in checkpoints], -math.inf), detail)


def orthogonality_bounded_residual(k: int, lambda1: float, lambda2: float, zmax: int) -> Residual:
    """Relative excess of an off-diagonal profile's largest |value| beyond zeta = 100 over its largest up to 100."""
    values = _profile_to_1000(k, lambda1, lambda2, zmax)
    head, tail = float(np.max(np.abs(values[:101]))), float(np.max(np.abs(values[101:])))
    return Residual((tail - head) / head, f"running max to 100: {head!r}; max beyond: {tail!r}")


def _limit_kummer(n: int, b: int, x: float, degree: str) -> float:
    # Phi(-n, b; x) from its short series, or where that is refused from n recurrence
    # steps under the cap; ``degree`` names n in the cap's message
    value = kummer_phi_series(n, b, x)
    if value is None:
        if n > _MAX_KUMMER_STEPS:
            raise ValueError(f"{degree} needs {n} Kummer steps, above the cap of {_MAX_KUMMER_STEPS}")
        value = kummer_phi(n, b, x)
    if not math.isfinite(value):
        raise OverflowError(f"Phi(-{n}, {b}; {x!r}) is not finite")
    return value


def classical_limit_error(label: IrrepLabel, r: float, sigma: float) -> float:
    """Distance between the rescaled basis element and the plane matrix element.

    After the commutator rescaling by sigma, D_k evaluated at the classical
    point z = r e^{i psi}/sqrt(sigma) (i.e. zeta* = r^2/sigma, nearest
    integer) tends to t_{k0}(g(r, psi, 0)) as sigma -> 0.  The unit-modulus
    phases agree identically on both sides, whatever psi, leaving

        | (lam r/2)^a/a! e^{-sigma lam^2/8} Phi(-zeta*, 1+a; sigma lam^2/4)
          - J_a(lam r) |,   a = |k|.

    The Kummer value comes from its series, whose n x = (lam r/2)^2 stays
    small however small sigma is.  Raises ValueError when sigma <= 0, or when
    the series is refused and zeta* exceeds 10**6 recurrence steps.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    zeta_star = round(r * r / sigma)
    lam, a = label.lam, abs(label.k)
    lhs = math.exp(_log_power(a, lam * r / 2.0) - log_factorial(a) - sigma * lam * lam / 8.0) * _limit_kummer(
        zeta_star, 1 + a, sigma * lam * lam / 4.0, "r^2/sigma"
    )
    return abs(lhs - bessel_j(a, lam * r))


def kummer_bessel_limit_residual(n: int, b: int, c: float) -> float:
    """Large-degree Kummer-to-Bessel asymptotic.

    Evaluates Phi(-n, b; -c/n) against (b-1)! c^{(1-b)/2} I_{b-1}(2 sqrt(c))
    and returns |ratio - 1|.  The first argument goes to -infinity with a
    negative argument scaling -c/n: that is the sign pattern under which the
    modified-Bessel limit is actually approached.  The Kummer value comes
    from its series (all terms positive, n x = -c); where that is refused,
    degrees above 10**6 raise ValueError, since the recurrence costs n steps.
    """
    if n < 1 or b < 1 or not (0 < c):
        raise ValueError("kummer_bessel_limit_residual requires n >= 1, b >= 1, c > 0")
    lhs = _limit_kummer(n, b, -c / n, "n")
    ik, log_scale = bessel_i_scaled(b - 1, 2.0 * math.sqrt(c))
    if b <= 171 and not log_scale:  # (b-1)! is a float, and I_(b-1) is not scaled
        rhs = math.factorial(b - 1) * c ** (0.5 * (1 - b)) * ik
    else:  # composed in log space: inf past the float range, 0 below it
        with np.errstate(over="ignore", divide="ignore"):
            rhs = float(np.exp(log_factorial(b - 1) + 0.5 * (1 - b) * math.log(c) + log_scale + np.log(ik)))
    if not math.isfinite(rhs) or rhs == 0.0:
        raise ArithmeticError(f"(b-1)! c^((1-b)/2) I_(b-1)(2 sqrt(c)) is {rhs!r} at b={b}, c={c!r}")
    return abs(lhs / rhs - 1.0)
