"""Batch verification harness and table emitter.

Two subcommands:

* ``verify <suite>`` runs a named check suite over a parameter grid and
  streams one flat record per parameter tuple (JSON lines or CSV), exiting
  0 iff every record passes, 1 on any failure, 2 on usage errors.
* ``table <kind>`` emits deterministic value tables (operator blocks, irrep
  blocks, basis radial values, orthogonality profiles).

Integer grids accept inclusive ranges ``a..b``; real grids accept comma
lists.  The default truncation dimension comes from ``--dim`` or the
``E2FOCK_DIM`` environment variable.  Identical configurations (including
``--seed``) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys

import numpy as np

from . import identities as ident
from .e2group import GroupElement, IrrepLabel, irrep_element, u_factors, u_matrix
from .fock import annihilator, conjugated_block, panel_size, safe_block
from .identities import CheckReport
from .repk import (
    algebra_function,
    adjoint_p,
    basis_d,
    eigen_residuals,
    inner_product,
    op_h,
    op_p,
    op_pbar,
)
from .specfun import kummer_phi_seq

TABLE_KINDS = ["u-matrix", "irrep", "basis", "profile"]

# every tolerance a suite reads, by its --tol name and default; one suite a line
_TOLERANCES = {
    "unitarity": 1e-8, "unitarity-monotone": 0.0,
    "intertwining": 1e-8,
    "recurrence": 1e-10,
    "eigen": 1e-10, "eigen-grading": 0.0,
    "lie-algebra": 0.0, "lie-algebra-adjoint": 1e-10,
    "addition": 1e-7, "addition-vacuum": 1e-9,
    "identity-a": 1e-10,
    "identity-b": 1e-9,
    "hille-hardy": 1e-8,
    "orthogonality-grading": 0.0, "orthogonality-diagonal-growth": 0.0, "orthogonality-offdiagonal-bounded": 0.0,
    "classical-limit": 1e-2, "classical-limit-monotone": 0.0,
    "kummer-limit": 1e-2, "kummer-limit-monotone": 0.0,
}  # fmt: skip

# largest Fock truncation a verify run or a u-matrix table may ask for
_MAX_DIM = 512

# truncation-defect decay reaches float rounding by dim ~ 64; below this the
# dim-doubling sequence is treated as floored rather than strictly decreasing
_DEFECT_FLOOR = 1e-13

_PSI, _PHI = 0.7, 0.3
_GROUP_AXES = {"r": [0.5, 1.0, 1.5, 2.0], "psi": [_PSI], "phi": [_PHI]}


class RunConfig:
    """Verification run parameters: dim, tolerance overrides, grids, format, seed."""

    def __init__(self, dim=64, tol_overrides=None, grid=None, format="json", seed=1234, dim_explicit=False):
        if dim < 2:
            raise ValueError("dim must be >= 2")
        if format not in ("json", "csv"):
            raise ValueError("format must be json or csv")
        unknown = sorted(set(tol_overrides or ()) - set(_TOLERANCES))
        if unknown:
            raise ValueError(f"unknown tolerance {', '.join(unknown)}; valid names: {', '.join(_TOLERANCES)}")
        self.dim = dim
        self.dim_explicit = bool(dim_explicit)
        self.tol_overrides = dict(tol_overrides or {})
        self.grid = {k: list(v) for k, v in (grid or {}).items()}
        self.format = format
        self.seed = int(seed)
        self.read = set()  # the grid flags and tolerance names read so far

    def values(self, name, default):
        self.read.add(name)
        return self.grid.get(name, list(default))

    def first(self, name, default):
        values = self.values(name, [default])
        if len(values) > 1:
            raise ValueError(f"--{_DEST_FLAG.get(name, name)} takes one value here, got {len(values)}")
        return values[0]

    def tol(self, name):
        self.read.add(name)
        return float(self.tol_overrides.get(name, _TOLERANCES[name]))

    def check_read(self):
        """Refuse a grid flag or --tol name that the run did not read, rather than ignore it.

        Suites read their flags and tolerances before their first check, so
        a check that raises leaves none of them unread.
        """
        unread = [f"--{_DEST_FLAG.get(n, n)}" for n in self.grid if n not in self.read]
        unread += [f"--tol {n}" for n in self.tol_overrides if n not in self.read]
        if unread:
            raise ValueError(f"the run does not read {', '.join(unread)}")


def _sweep(cfg, name, equation, tol, axes, check, params=dict):
    """Run ``check`` once per point of a suite's grid, each call guarded.

    ``axes`` maps each grid flag to its default values; the grid is their
    product in declaration order, a flag given on the command line replacing
    its default (an axis that is no flag keeps its declared values).
    ``check(report, **point)`` returns one CheckReport or a list of them.
    ``report(residual, detail=None)`` builds a record under this sweep's
    name, equation, tolerance and ``params(**point)``; keywords ``name``,
    ``equation`` and ``tolerance`` replace those, and any other keyword adds
    or replaces a param.  A ValueError or ArithmeticError (overflow, division
    by zero) from the check becomes one error record for the point.
    """
    reports = []
    for values in itertools.product(*(cfg.values(flag, default) for flag, default in axes.items())):
        point = dict(zip(axes, values))
        base = params(**point)

        def report(residual, detail=None, name=name, equation=equation, tolerance=tol, **extra):
            return CheckReport.from_residual(name, equation, {**base, **extra}, residual, tolerance, detail)

        try:
            got = check(report, **point)
        except (ValueError, ArithmeticError) as exc:
            got = CheckReport(name, equation, dict(base), math.inf, tol, False, f"error: {exc}")
        reports.extend(got if isinstance(got, list) else [got])
    return reports


def _ladder(report, values, label, monotone, tolerance, **monotone_params):
    # a decreasing error ladder: its last rung against the sweep's tolerance,
    # and its worst step up as the record ``monotone``
    if len(values) < 2:
        raise ValueError(f"the monotone check needs at least two rungs, got {len(values)}")
    worst_step = max(b - a for a, b in zip(values, values[1:]))
    return [
        report(values[-1], label + ", ".join(repr(v) for v in values)),
        report(worst_step, name=monotone, tolerance=tolerance, **monotone_params),
    ]


def _unitarity_defect(g, dim, block):
    # U* U = D_col* M^T M D_col and (M^T M)[i, j] = (-1)^(i+j) (M M^T)[i, j]: M's leading rows give the block
    M = u_factors(g, dim, panel_size(dim, block))[2]
    return np.linalg.norm((M @ M.T)[:block, :block] - np.eye(block))


def suite_unitarity(cfg):
    def unitary(report, dim, r, psi, phi):
        return report(_unitarity_defect(GroupElement(r, psi, phi), dim, max(safe_block(dim, r), min(dim, 4))))

    # fixed-block truncation defect under dim doubling; strictly decreasing
    # until the float floor, non-increasing beyond it
    r, psi, phi = cfg.values("r", [1.5])[-1], cfg.values("psi", [_PSI])[-1], cfg.values("phi", [_PHI])[-1]

    def monotone(report):
        block = safe_block(32, r)
        if block < 2:
            return []
        g = GroupElement(r, psi, phi)
        defects = [float(_unitarity_defect(g, dim, block)) for dim in (32, 64, 128)]
        worst_step = max(d2 - max(d1, _DEFECT_FLOOR) for d1, d2 in zip(defects, defects[1:]))
        detail = "defects " + ", ".join(repr(d) for d in defects) + f" (floor {_DEFECT_FLOOR})"
        return report(worst_step, detail, block=block)

    axes = {"dim": [cfg.dim], **_GROUP_AXES}
    tol_mono = cfg.tol("unitarity-monotone")
    return _sweep(cfg, "unitarity", "unitarity", cfg.tol("unitarity"), axes, unitary) + _sweep(
        cfg, "unitarity-monotone", "unitarity", tol_mono, {}, monotone, lambda: {"r": r, "dims": "32..128"}
    )


def suite_intertwining(cfg):
    def check(report, dim, r, psi, phi):
        g = GroupElement(r, psi, phi)
        b = max(safe_block(dim, r), min(dim, 4))
        UaU = conjugated_block(u_factors(g, dim, panel_size(dim, b)), np.sqrt(np.arange(1.0, dim)), 1, b)
        target = np.exp(1j * g.phi) * annihilator(b) + g.w * np.eye(b)
        return report(np.max(np.abs(UaU - target)))

    axes = {"dim": [cfg.dim], **_GROUP_AXES}
    return _sweep(cfg, "intertwining", "intertwining", cfg.tol("intertwining"), axes, check)


def suite_recurrence(cfg):
    zmax = cfg.first("zmax", 200)

    def check(report, k, x):
        if zmax < 1:
            raise ValueError(f"recurrence requires zmax >= 1, got {zmax}")
        b, c = 1 + k, x
        phis = kummer_phi_seq(zmax + 1, b, c)
        a = -np.arange(1.0, zmax + 1)  # a = -zeta, zeta = 1..zmax; floats, so any integer x converts
        # an overflowing value or term makes its ratios NaN or inf, reported below
        with np.errstate(over="ignore", invalid="ignore"):
            t1 = a * phis[:-2]
            t2 = (a - b) * phis[2:]
            t3 = (b - 2 * a - c) * phis[1:-1]
            scale = np.maximum(np.maximum(abs(t1), abs(t2)), abs(t3))
            ratios = abs(t1 + t2 + t3) / scale
        unchecked = np.flatnonzero(~np.isfinite(ratios))
        if unchecked.size:
            return report(math.inf, f"non-finite Kummer value or ratio at zeta={unchecked[0] + 1}")
        return report(np.max(ratios))

    def params(k, x):
        return {"k": k, "c": x, "zmax": zmax}

    axes = {"k": range(0, 21), "x": [0.25, 1.0, 4.0, 16.0]}
    return _sweep(cfg, "recurrence", "kummer-recurrence", cfg.tol("recurrence"), axes, check, params)


def suite_eigen(cfg):
    zmax, tol_grading = cfg.first("zmax", 200), cfg.tol("eigen-grading")

    def check(report, lam, k):
        c1, c2 = eigen_residuals(IrrepLabel(lam, k), zmax)
        return [
            report(c1, "p p* = p* p (commuting translations); both orderings evaluated"),
            report(c2, name="eigen-grading", equation="eigen-grading", tolerance=tol_grading),
        ]

    def params(lam, k):
        return {"lam": lam, "k": k, "zmax": zmax}

    axes = {"lam": [1.0, 4.0, 8.0], "k": [-20, -5, 0, 5, 20]}
    return _sweep(cfg, "eigen-casimir", "eigen-casimir", cfg.tol("eigen"), axes, check, params)


def _random_algebra_function(rng, zmax, windings, integer=False):
    terms = {}
    for w in windings:
        if integer:
            coeffs = rng.integers(-5, 6, size=zmax + 1).astype(complex)
        else:
            coeffs = rng.standard_normal(zmax + 1) + 1j * rng.standard_normal(zmax + 1)
        terms[int(w)] = coeffs
    return algebra_function(terms, zmax)


def suite_lie_algebra(cfg):
    rng = np.random.default_rng(cfg.seed)

    def bracket(report, trial):
        windings = sorted(rng.choice(np.arange(-6, 7), size=3, replace=False))
        F = _random_algebra_function(rng, 20, windings, integer=True)
        # [h, p] = p and [h, pbar] = -pbar, exact on integer coefficients
        hp = op_h(op_p(F)) + op_p(op_h(F)).scaled(-1.0)
        comm_p = hp + op_p(F).scaled(-1.0)
        hpb = op_h(op_pbar(F)) + op_pbar(op_h(F)).scaled(-1.0)
        comm_pb = hpb + op_pbar(F)
        resid = max(
            max((float(np.max(np.abs(c))) for c in comm_p.terms.values()), default=0.0),
            max((float(np.max(np.abs(c))) for c in comm_pb.terms.values()), default=0.0),
        )
        return report(resid, windings=",".join(str(w) for w in windings), seed=cfg.seed)

    def pairing(report, trial):
        F = _random_algebra_function(rng, 20, [-3, 0, 2])
        G = _random_algebra_function(rng, 20, [-4, -1, 1])
        lhs = inner_product(op_p(F), G)
        rhs = inner_product(F, adjoint_p(G))
        h_lhs = inner_product(op_h(F), G)
        h_rhs = inner_product(F, op_h(G))
        scale = max(abs(lhs), abs(rhs), abs(h_lhs), abs(h_rhs), 1e-300)
        return report(max(abs(lhs - rhs), abs(h_lhs - h_rhs)) / scale, zmax=20, seed=cfg.seed)

    trials = {"trial": range(4)}
    return _sweep(cfg, "lie-bracket", "lie-brackets", cfg.tol("lie-algebra"), trials, bracket) + _sweep(
        cfg, "adjoint-pairing", "adjoint-structure", cfg.tol("lie-algebra-adjoint"), trials, pairing
    )


def suite_addition(cfg):
    dim = cfg.dim if cfg.dim_explicit else max(cfg.dim, 96)
    tol, tol_vac = cfg.tol("addition"), cfg.tol("addition-vacuum")
    theorem = ("addition", "addition-theorem", tol)
    k_theorem, k_vacuum = cfg.values("k", [-4, -2, 0, 1, 3, 4]), cfg.values("k", [0, 2, 4])

    def pair(report, lam, r, psi, phi):
        # every addition record of one group element, then every vacuum record
        if lam * r > 6.0:
            return []
        g = GroupElement(r, psi, phi)

        def residual(report, k):
            return ident.addition_residual(g, IrrepLabel(lam, k), k, dim=dim, tolerance=tol)

        def crosscheck(report, k):
            if k < 0:
                return []
            return ident.addition_vacuum_crosscheck(g, IrrepLabel(lam, k), k, dim=dim, tolerance=tol_vac)

        def params(k):
            return {"lam": lam, "k": k, "r": r, "psi": g.psi, "phi": g.phi, "dim": dim}

        vacuum = ("addition-vacuum", "addition-vacuum-element", tol_vac)
        return _sweep(cfg, *theorem, {"k": k_theorem}, residual, params) + _sweep(
            cfg, *vacuum, {"k": k_vacuum}, crosscheck, params
        )

    def params(lam, r, psi, phi):
        return {"lam": lam, "r": r, "psi": psi, "phi": phi, "dim": dim}

    axes = {"lam": [1.0, 2.0], "r": [0.5, 1.0, 2.0], "psi": [_PSI], "phi": [_PHI]}
    return _sweep(cfg, *theorem, axes, pair, params)


def suite_identity_a(cfg):
    tol = cfg.tol("identity-a")

    def check(report, k, x, r):
        return ident.identity_a(k, x, r, tolerance=tol)

    axes = {"k": range(0, 11), "x": [0.25, 0.5, 1.0, 2.0], "r": [0.5, 1.0, 2.0]}
    return _sweep(cfg, "identity-a", "sandwich-identity-a", tol, axes, check)


def suite_identity_b(cfg):
    tol = cfg.tol("identity-b")

    def check(report, m, k, x, r):
        return ident.identity_b(m, k, x, r, tolerance=tol)

    axes = {"m": range(0, 11), "k": range(0, 7), "x": [0.5, 1.0, 2.0], "r": [0.5, 1.0, 1.5]}
    return _sweep(cfg, "identity-b", "sandwich-identity-b", tol, axes, check)


def suite_hille_hardy(cfg):
    tol = cfg.tol("hille-hardy")

    def check(report, k, x, y, zq):
        return ident.hille_hardy_residual(k, x, y, zq, tolerance=tol)

    axes = {"k": range(0, 7), "x": [0.5, 2.0, 4.0], "y": [0.5, 2.0, 4.0], "zq": [0.5, 0.9]}
    return _sweep(cfg, "hille-hardy", "laguerre-bilinear-sum", tol, axes, check)


# off-diagonal weight pairs whose first oscillation peak falls well inside the
# zeta <= 100 window (boundedness margins verified >= 3%)
_PROFILE_PAIRS = [(0, 1.0, 3.0), (2, 1.0, 2.5), (3, 2.5, 5.0), (0, 2.0, 4.5)]


def suite_orthogonality(cfg):
    zmax = cfg.first("zmax", 1001)

    def curve(k, lam1, lam2):
        # the growth/boundedness checkpoints sit at zeta = 100/400/1000
        if zmax < 1001:
            raise ValueError(f"zmax {zmax} is below 1001, so the profile does not reach its zeta = 1000 checkpoint")
        return ident.orthogonality_profile_curve(k, lam1, lam2, zmax)

    def grading(report, windings):
        d1 = basis_d(IrrepLabel(2.0, windings[0]), 60).coefficients
        d2 = basis_d(IrrepLabel(3.0, windings[1]), 60).coefficients
        return report(abs(inner_product(d1, d2)))

    def growth(report, lam, k):
        values = curve(k, lam, lam)
        checkpoints = [values[100], values[400], values[1000]]
        worst = max(a - b for a, b in zip(checkpoints, checkpoints[1:]))
        return report(worst, "diagonal profile " + ", ".join(repr(float(c)) for c in checkpoints))

    def bounded(report, pair):
        values = curve(*pair)
        head = float(np.max(np.abs(values[:101])))
        tail = float(np.max(np.abs(values[101:])))
        return report((tail - head) / head, f"running max to 100: {head!r}; max beyond: {tail!r}")

    def sweep(name, equation, axes, check, params):
        return _sweep(cfg, name, equation, cfg.tol(name), axes, check, params)

    return (
        sweep(
            "orthogonality-grading",
            "orthogonality-grading",
            {"windings": [(-2, 0), (0, 1), (1, 3), (-2, 3)]},
            grading,
            lambda windings: {"k1": windings[0], "k2": windings[1], "lam1": 2.0, "lam2": 3.0},
        )
        + sweep(
            "orthogonality-diagonal-growth",
            "orthogonality-profile",
            {"lam": [1.0, 2.0, 4.0], "k": [0, 1]},
            growth,
            lambda lam, k: {"k": k, "lam1": lam, "lam2": lam, "zmax": zmax},
        )
        + sweep(
            "orthogonality-offdiagonal-bounded",
            "orthogonality-profile",
            {"pair": _PROFILE_PAIRS},
            bounded,
            lambda pair: {"k": pair[0], "lam1": pair[1], "lam2": pair[2], "zmax": zmax},
        )
    )


_SIGMA_LADDER = (1e-1, 1e-2, 1e-3, 1e-4)


def suite_classical_limit(cfg):
    tol_mono = cfg.tol("classical-limit-monotone")
    sigmas = tuple(cfg.values("sigma", _SIGMA_LADDER))
    sigma_label = "1e-1..1e-4" if sigmas == _SIGMA_LADDER else ",".join(repr(s) for s in sigmas)
    axes = {"lam": [1.0, 2.0, 4.0], "k": [0, 2, 5, 8], "r": [0.8, 1.0, 2.0]}

    def check(report, lam, k, r):
        errs = ident.classical_limit_errors(IrrepLabel(lam, k), r, _PSI, sigmas)
        return _ladder(report, errs, "errors ", "classical-limit-monotone", tol_mono, sigmas=sigma_label)

    def params(lam, k, r):
        return {"lam": lam, "k": k, "r": r, "sigma": sigmas[-1]}

    return _sweep(cfg, "classical-limit", "classical-limit", cfg.tol("classical-limit"), axes, check, params)


def suite_kummer_limit(cfg):
    ns, tol_mono = cfg.values("n", [100, 1000, 10000]), cfg.tol("kummer-limit-monotone")

    def check(report, m, x):
        resids = [ident.kummer_bessel_limit_residual(n, m, x) for n in ns]
        label = "evaluated as Phi(-n, b; -c/n); residuals "
        return _ladder(report, resids, label, "kummer-limit-monotone", tol_mono, n=",".join(map(str, ns)))

    def params(m, x):
        return {"b": m, "c": x, "n": ns[-1]}

    axes = {"m": [1, 2, 3, 10], "x": [0.5, 4.0, 9.0]}
    return _sweep(cfg, "kummer-limit", "kummer-bessel-limit", cfg.tol("kummer-limit"), axes, check, params)


SUITES = {
    "unitarity": suite_unitarity,
    "intertwining": suite_intertwining,
    "recurrence": suite_recurrence,
    "eigen": suite_eigen,
    "lie-algebra": suite_lie_algebra,
    "addition": suite_addition,
    "identity-a": suite_identity_a,
    "identity-b": suite_identity_b,
    "hille-hardy": suite_hille_hardy,
    "orthogonality": suite_orthogonality,
    "classical-limit": suite_classical_limit,
    "kummer-limit": suite_kummer_limit,
}
SUITE_NAMES = list(SUITES)


def run_verify(suite: str, cfg: RunConfig, stream) -> int:
    """Run one suite (or 'all'); stream records; return the exit code."""
    if not 8 <= cfg.dim <= _MAX_DIM:
        raise ValueError(f"dim must be in [8, {_MAX_DIM}]")
    names = SUITE_NAMES if suite == "all" else [suite]
    reports = []
    for name in names:
        with ident.memo_scope():
            reports.extend(SUITES[name](cfg))
    if not reports:
        raise ValueError("the grid gives no records, so nothing was checked")
    cfg.check_read()
    _write_rows([dict(zip(_RECORD_FIELDS, vars(r).values())) for r in reports], cfg.format, stream)
    return 0 if all(r.passed for r in reports) else 1


# a record's columns: CheckReport's fields, in the order its __init__ sets them
_RECORD_FIELDS = ("name", "equation", "params", "residual", "tolerance", "pass", "detail")


def _json_value(v):
    # strict JSON: a non-finite float is null
    if isinstance(v, dict):
        return {k: _json_value(x) for k, x in v.items()}
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _csv_value(v):
    if isinstance(v, dict):
        return ";".join(f"{k}={_csv_value(x)}" for k, x in v.items())
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v) if isinstance(v, float) else "" if v is None else v


def _write_rows(rows, fmt, stream):
    """Write dict rows as JSON lines, or as CSV under a header of the first row's keys."""
    if fmt == "json":
        for row in rows:
            stream.write(json.dumps(_json_value(row), sort_keys=True, default=repr) + "\n")
    else:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows([_csv_value(v) for v in row.values()] for row in rows)


def _table_rows(kind: str, cfg: RunConfig):
    if kind == "u-matrix":
        if cfg.dim > _MAX_DIM:
            raise ValueError(f"dim must be in [2, {_MAX_DIM}]")
        r = cfg.first("r", 1.0)
        g = GroupElement(r, cfg.first("psi", 0.0), cfg.first("phi", 0.0))
        U = u_matrix(g, cfg.dim)
        for m, n in itertools.product(range(cfg.dim), repeat=2):
            z = U[m, n]
            yield dict(equation="u-matrix-element", r=r, psi=g.psi, phi=g.phi, m=m, n=n, re=z.real, im=z.imag)
    elif kind == "irrep":
        lam, r = cfg.first("lam", 1.0), cfg.first("r", 1.0)
        label, g = IrrepLabel(lam, 0), GroupElement(r, cfg.first("psi", 0.0), cfg.first("phi", 0.0))
        for k, n in itertools.product(cfg.values("k", range(-3, 4)), cfg.values("n", range(-3, 4))):
            t = irrep_element(label, k, n, g)
            yield dict(equation="irrep-element", lam=lam, r=r, psi=g.psi, phi=g.phi, k=k, n=n, re=t.real, im=t.imag)
    elif kind == "basis":
        lam, k = cfg.first("lam", 1.0), cfg.first("k", 0)
        for zeta, val in enumerate(basis_d(IrrepLabel(lam, k), cfg.first("zmax", 20)).radial):
            yield dict(equation="basis-radial", lam=lam, k=k, zeta=zeta, re=val.real, im=val.imag)
    elif kind == "profile":
        k, lam1, lam2 = cfg.first("k", 0), cfg.first("lam", 2.0), cfg.first("lam2", 3.0)
        zmaxes = cfg.values("zmax", [100, 400, 1000])
        curve = ident.orthogonality_profile_curve(k, lam1, lam2, max(zmaxes))
        for zm in zmaxes:
            yield dict(equation="orthogonality-profile", k=k, lam1=lam1, lam2=lam2, zmax=zm, value=float(curve[zm]))


def run_table(kind: str, cfg: RunConfig, stream) -> int:
    rows = list(_table_rows(kind, cfg))
    cfg.check_read()
    for row in rows:
        if any(isinstance(v, float) and not math.isfinite(v) for v in row.values()):
            raise FloatingPointError("non-finite value in row " + ", ".join(f"{k}={v}" for k, v in row.items()))
    _write_rows(rows, cfg.format, stream)
    return 0


def _parse_value_token(tok: str):
    if ".." in tok:
        lo, hi = tok.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    try:
        return [int(tok)]
    except ValueError:
        return [float(tok)]


_PARAM_FLAGS = ["k", "m", "n", "x", "y", "r", "psi", "phi", "lambda", "lambda2", "zmax", "sigma", "zq"]
_FLAG_DEST = {"lambda": "lam", "lambda2": "lam2"}
_DEST_FLAG = {dest: flag for flag, dest in _FLAG_DEST.items()}
_INTEGER_FLAGS = {"k", "m", "n", "zmax"}


def _parse_grid(flag: str, text: str) -> list:
    """An explicit grid: nonempty, no empty range in it, finite, and integral for the integer flags."""
    vals = []
    for tok in filter(None, map(str.strip, text.split(","))):
        if not (got := _parse_value_token(tok)):
            raise ValueError(f"--{flag} {text!r}: range {tok} gives no values")
        vals += got
    if not vals:
        raise ValueError(f"--{flag} {text!r} gives no values")
    if any(isinstance(v, float) and not math.isfinite(v) for v in vals):
        raise ValueError(f"--{flag} {text!r}: values must be finite")
    if flag in _INTEGER_FLAGS:
        if any(isinstance(v, float) and not v.is_integer() for v in vals):
            raise ValueError(f"--{flag} {text!r}: values must be integers")
        vals = [int(v) for v in vals]
    return vals


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="e2fock",
        description="Verify the E(2)-on-Heisenberg special-function identities and emit value tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--dim", type=int, default=None, help="Fock truncation dimension (default 64 or $E2FOCK_DIM)")
        p.add_argument("--tol", action="append", default=[], metavar="NAME=VAL", help="tolerance override")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--seed", type=int, default=1234)
        for flag in _PARAM_FLAGS:
            p.add_argument(
                f"--{flag}",
                dest=_FLAG_DEST.get(flag, flag),
                type=str,
                default=None,
                help=f"grid for {flag} (a..b ints or comma list)",
            )

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=SUITE_NAMES + ["all"])
    add_common(pv)

    pt = sub.add_parser("table", help="emit a value table")
    pt.add_argument("kind", choices=TABLE_KINDS)
    add_common(pt)
    return parser


def _config_from_args(args) -> RunConfig:
    dim = args.dim
    dim_explicit = dim is not None
    if dim is None:
        dim = int(os.environ.get("E2FOCK_DIM", "64"))
    tols = {}
    for override in args.tol:
        if "=" not in override:
            raise ValueError(f"bad --tol {override!r}: expected NAME=VAL")
        name, val = override.split("=", 1)
        tols[name.strip()] = value = float(val)
        if not math.isfinite(value):
            raise ValueError(f"bad --tol {override!r}: the tolerance must be finite")
    grid = {}
    for flag in _PARAM_FLAGS:
        dest = _FLAG_DEST.get(flag, flag)
        raw = getattr(args, dest)
        if raw is not None:
            grid[dest] = _parse_grid(flag, raw)
    return RunConfig(dim, tols, grid, args.format, args.seed, dim_explicit)


def _merge_negative_values(argv):
    # argparse mistakes "-3..3" / "-5,0,5" for option strings; fold such
    # values into their flag as --k=-3..3
    flags = {f"--{flag}" for flag in _PARAM_FLAGS}
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in flags and nxt is not None and nxt.startswith("-") and any(c.isdigit() for c in nxt):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None, stream=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    stream = stream if stream is not None else sys.stdout
    try:
        cfg = _config_from_args(args)
        if args.command == "verify":
            return run_verify(args.suite, cfg, stream)
        return run_table(args.kind, cfg, stream)
    except (ValueError, ArithmeticError) as exc:
        run = f"{args.command} {args.suite if args.command == 'verify' else args.kind}"
        print(f"error: {run}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
