"""Batch verification harness and table emitter.

Two subcommands:

* ``verify <suite>`` runs a named check suite over a parameter grid and
  streams one flat record per parameter tuple (JSON lines or CSV), exiting
  0 iff every record passes, 1 on any failure, 2 on usage errors.
* ``table <kind>`` emits deterministic value tables (operator blocks, irrep
  blocks, basis radial values, orthogonality profiles).

Integer grids accept inclusive ranges ``a..b``; real grids accept comma
lists.  ``--dim`` (the Fock truncation) and ``--seed`` (the lie-algebra
suite's random draws) take one integer each and, like every grid flag, are
refused where the run does not read them.  Identical configurations produce
byte-identical output on one numpy/BLAS build and thread count.  A suite
maps its grid to its check's points; a grid form takes all not refused at
once and builds what they share once, and nothing outlives a suite or run.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import identities as ident
from .e2group import GroupElement, IrrepLabel, irrep_row, u_matrix
from .fock import safe_block
from .repk import adjoint_residual, algebra_function, basis_d, bracket_residual, eigen_residuals

TABLE_KINDS = ["u-matrix", "irrep", "basis", "profile"]

# every record a suite files, by name: its equation, its --tol name and that tolerance's default; suites in order
_RECORDS = {
    "unitarity": ("unitarity", "unitarity", 1e-8),
    "unitarity-monotone": ("unitarity", "unitarity-monotone", 0.0),
    "intertwining": ("intertwining", "intertwining", 1e-8),
    "recurrence": ("kummer-recurrence", "recurrence", 1e-10),
    "eigen-casimir": ("eigen-casimir", "eigen", 1e-10),
    "eigen-grading": ("eigen-grading", "eigen-grading", 0.0),
    "lie-bracket": ("lie-brackets", "lie-algebra", 0.0),
    "adjoint-pairing": ("adjoint-structure", "lie-algebra-adjoint", 1e-10),
    "addition": ("addition-theorem", "addition", 1e-7),
    "addition-vacuum": ("addition-vacuum-element", "addition-vacuum", 1e-9),
    "identity-a": ("sandwich-identity-a", "identity-a", 1e-10),
    "identity-b": ("sandwich-identity-b", "identity-b", 1e-9),
    "hille-hardy": ("laguerre-bilinear-sum", "hille-hardy", 1e-8),
    "orthogonality-grading": ("orthogonality-grading", "orthogonality-grading", 0.0),
    "orthogonality-diagonal-growth": ("orthogonality-profile", "orthogonality-diagonal-growth", 0.0),
    "orthogonality-offdiagonal-bounded": ("orthogonality-profile", "orthogonality-offdiagonal-bounded", 0.0),
    "classical-limit": ("classical-limit", "classical-limit", 1e-2),
    "classical-limit-monotone": ("classical-limit", "classical-limit-monotone", 0.0),
    "kummer-limit": ("kummer-bessel-limit", "kummer-limit", 1e-2),
    "kummer-limit-monotone": ("kummer-bessel-limit", "kummer-limit-monotone", 0.0),
}
_TOLERANCES = {tol: default for _, tol, default in _RECORDS.values()}

# largest Fock truncation a verify run or a u-matrix table may ask for
_MAX_DIM = 512

_PSI, _PHI = 0.7, 0.3


class RunConfig:
    """Verification run parameters: tolerance overrides, grids (--dim and --seed among them), format."""

    def __init__(self, tol_overrides=None, grid=None, format="json"):
        if format not in ("json", "csv"):
            raise ValueError("format must be json or csv")
        unknown = sorted(set(tol_overrides or ()) - set(_TOLERANCES))
        if unknown:
            raise ValueError(f"unknown tolerance {', '.join(unknown)}; valid names: {', '.join(_TOLERANCES)}")
        self.tol_overrides = dict(tol_overrides or {})
        self.grid = {k: list(v) for k, v in (grid or {}).items()}
        self.format = format
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


def _dim(cfg, default, low=8):
    # the run's one --dim value, refused outside [low, _MAX_DIM]
    if not low <= (dim := cfg.first("dim", default)) <= _MAX_DIM:
        raise ValueError(f"--dim must be in [{low}, {_MAX_DIM}], got {dim}")
    return dim


class _Row(dict):
    # a verify record, keyed by its output columns; row.residual reads row["residual"], as perfbench's tracer does
    def __getattr__(self, key):
        if key in self:
            return self[key]
        raise AttributeError(key)


def _sweep(cfg, names, axes, check, params=dict, point=lambda *values: values):
    """Run ``check`` over a suite's grid, each point guarded, and file its records under ``names``.

    ``names`` are rows of ``_RECORDS``, their tolerances read before the first check.  The grid is the product of
    ``axes`` in order, each flag's default values, a flag given replacing its own (an axis no flag names keeps them);
    ``point(*values)`` maps a grid point to its check's point.  A check with a grid form, as ``identity_a.grid``,
    gets the points the map does not refuse in one call, in order, and gives per point a Residual, filed as
    ``report(*residual)``, or the error refusing it; any other check, ``check(report, **named)`` with the values by
    flag, returns a record or a list.  ``report(residual, detail=None)`` decides a record's pass and builds it under
    ``names[0]`` or the row ``name=``, params ``params(**named)`` updated by any other keyword, a callable detail
    called only when the record fails.  A ValueError or ArithmeticError from the map or the check is an error record.
    """
    tolerances = {name: cfg.tol(_RECORDS[name][1]) for name in names}
    grid, outcomes = _mapped(cfg, axes, point)
    if hasattr(check, "grid"):
        found = iter(check.grid([got for got in outcomes if not isinstance(got, Exception)]))
        outcomes = [got if isinstance(got, Exception) else next(found) for got in outcomes]
    rows = []
    for values, outcome in zip(grid, outcomes):
        named = dict(zip(axes, values))
        base = params(**named)

        def report(residual, detail=None, name=names[0], **extra):
            residual, tolerance = float(residual), tolerances[name]
            passed = residual <= tolerance
            if callable(detail):
                detail = None if passed else detail()
            return _Row({
                "name": name, "equation": _RECORDS[name][0], "params": {**base, **extra},
                "residual": residual, "tolerance": tolerance, "pass": passed, "detail": detail,
            })  # fmt: skip

        try:
            if isinstance(outcome, Exception):
                raise outcome
            got = report(*outcome) if hasattr(check, "grid") else check(report, **named)
        except (ValueError, ArithmeticError) as exc:
            got = report(math.inf, f"error: {exc}")
        rows.extend(got if isinstance(got, list) else [got])
    return rows


def _mapped(cfg, axes, point):
    # a grid's points, each its axis values, and per point point(*values) or the ValueError or ArithmeticError raised
    grid, mapped = list(itertools.product(*(cfg.values(flag, default) for flag, default in axes.items()))), []
    for values in grid:
        try:
            mapped.append(point(*values))
        except (ValueError, ArithmeticError) as exc:
            mapped.append(exc)
    return grid, mapped


def _ladder(report, values, label, monotone, **monotone_params):
    # a decreasing error ladder: its last rung, and its worst step up as the record ``monotone``
    return [
        report(values[-1], label + ", ".join(repr(v) for v in values)),
        report(ident.worst_rise(values, -math.inf), name=monotone, **monotone_params),
    ]


def _u_sweep(cfg, name, check):
    axes = {"dim": [_dim(cfg, 64)], "r": [0.5, 1.0, 1.5, 2.0], "psi": [_PSI], "phi": [_PHI]}
    return _sweep(cfg, [name], axes, check, point=lambda dim, r, psi, phi: (GroupElement(r, psi, phi), dim))


def suite_unitarity(cfg):
    # the fixed-block truncation defect under dim doubling, on the last group element
    r, psi, phi = cfg.values("r", [1.5])[-1], cfg.values("psi", [_PSI])[-1], cfg.values("phi", [_PHI])[-1]

    def monotone(report):
        if (block := safe_block(32, r)) < 2:
            return []
        return report(*ident.unitarity_decay_residual(GroupElement(r, psi, phi), block), block=block)

    unitarity = _u_sweep(cfg, "unitarity", ident.unitarity_residual)
    return unitarity + _sweep(cfg, ["unitarity-monotone"], {}, monotone, lambda: {"r": r, "dims": "32..128"})


def suite_intertwining(cfg):
    return _u_sweep(cfg, "intertwining", ident.intertwining_residual)


def suite_recurrence(cfg):
    zmax = cfg.first("zmax", 200)

    def params(k, x):
        return {"k": k, "c": x, "zmax": zmax}

    axes = {"k": range(0, 21), "x": [0.25, 1.0, 4.0, 16.0]}
    return _sweep(cfg, ["recurrence"], axes, ident.kummer_recurrence_residual, params, lambda k, x: (1 + k, x, zmax))


def suite_eigen(cfg):
    zmax = cfg.first("zmax", 200)

    def check(report, lam, k):
        c1, c2 = eigen_residuals(IrrepLabel(lam, k), zmax)
        note = "p p* = p* p (commuting translations); both orderings evaluated"
        return [report(c1, note), report(c2, name="eigen-grading")]

    def params(lam, k):
        return {"lam": lam, "k": k, "zmax": zmax}

    axes = {"lam": [1.0, 4.0, 8.0], "k": [-20, -5, 0, 5, 20]}
    return _sweep(cfg, ["eigen-casimir", "eigen-grading"], axes, check, params)


def _random_algebra_function(rng, zmax, windings, integer=False):
    def draw(n):
        return rng.integers(-5, 6, size=n) if integer else rng.standard_normal(n) + 1j * rng.standard_normal(n)

    return algebra_function({int(w): draw(zmax + 1) for w in windings}, zmax)


def suite_lie_algebra(cfg):
    if (seed := cfg.first("seed", 1234)) < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)

    def bracket(report, trial):
        windings = sorted(rng.choice(np.arange(-6, 7), size=3, replace=False))
        F = _random_algebra_function(rng, 20, windings, integer=True)
        return report(bracket_residual(F), windings=",".join(str(w) for w in windings), seed=seed)

    def pairing(report, trial):
        F, G = _random_algebra_function(rng, 20, [-3, 0, 2]), _random_algebra_function(rng, 20, [-4, -1, 1])
        return report(adjoint_residual(F, G), zmax=20, seed=seed)

    trials = {"trial": range(4)}
    return _sweep(cfg, ["lie-bracket"], trials, bracket) + _sweep(cfg, ["adjoint-pairing"], trials, pairing)


def suite_addition(cfg):
    dim = _dim(cfg, 96)
    ks = {"addition": cfg.values("k", [-4, -2, 0, 1, 3, 4]), "addition-vacuum": cfg.values("k", [0, 2, 4])}
    axes = {"lam": [1.0, 2.0], "r": [0.5, 1.0, 2.0], "psi": [_PSI], "phi": [_PHI]}
    # each record's outcome by (g, label), both checks' points as one grid call, which builds what they share once;
    # a point the map refuses is left to its sweep below, which files the refusal; a vacuum k < 0 files none
    _, points = _mapped(cfg, axes, lambda lam, r, psi, phi: (GroupElement(r, psi, phi), IrrepLabel(lam)))
    groups = [point for point in points if not isinstance(point, Exception)]
    keys = {name: [(g, IrrepLabel(label.lam, k)) for g, label in groups for k in ks[name]] for name in ks}
    found = ident.addition_grid(*([(g, label, dim) for g, label in keys[name]] for name in ks))
    outcomes = {name: dict(zip(keys[name], got)) for name, got in zip(ks, found)}

    def pair(report, lam, r, psi, phi):
        # every addition record of one group element, then every vacuum record
        g = GroupElement(r, psi, phi)
        if lam * g.r > 6.0:
            return []

        def check(report, k, name):
            if name == "addition-vacuum" and k < 0:
                return []
            if isinstance(got := outcomes[name][g, IrrepLabel(lam, k)], Exception):
                raise got
            return report(*got)

        def params(k):
            return {"lam": lam, "k": k, "r": g.r, "psi": g.psi, "phi": g.phi, "dim": dim}

        sweeps = (_sweep(cfg, [name], {"k": ks[name]}, functools.partial(check, name=name), params) for name in ks)
        return list(itertools.chain(*sweeps))

    def params(lam, r, psi, phi):
        return {"lam": lam, "r": r, "psi": psi, "phi": phi, "dim": dim}

    return _sweep(cfg, ["addition", "addition-vacuum"], axes, pair, params)


def suite_identity_a(cfg):
    axes = {"k": range(0, 11), "x": [0.25, 0.5, 1.0, 2.0], "r": [0.5, 1.0, 2.0]}
    return _sweep(cfg, ["identity-a"], axes, ident.identity_a)


def suite_identity_b(cfg):
    axes = {"m": range(0, 11), "k": range(0, 7), "x": [0.5, 1.0, 2.0], "r": [0.5, 1.0, 1.5]}
    return _sweep(cfg, ["identity-b"], axes, ident.identity_b)


def suite_hille_hardy(cfg):
    axes = {"k": range(0, 7), "x": [0.5, 2.0, 4.0], "y": [0.5, 2.0, 4.0], "zq": [0.5, 0.9]}
    return _sweep(cfg, ["hille-hardy"], axes, ident.hille_hardy_residual)


# off-diagonal weight pairs whose first oscillation peak falls well inside the
# zeta <= 100 window (boundedness margins verified >= 3%)
_PROFILE_PAIRS = [(0, 1.0, 3.0), (2, 1.0, 2.5), (3, 2.5, 5.0), (0, 2.0, 4.5)]


def suite_orthogonality(cfg):
    zmax = cfg.first("zmax", 1001)

    def grading(report, windings):
        k1, k2 = windings
        return report(*ident.orthogonality_grading_residual(IrrepLabel(2.0, k1), IrrepLabel(3.0, k2)))

    def growth(report, lam, k):
        return report(*ident.orthogonality_growth_residual(k, lam, zmax))

    def bounded(report, pair):
        return report(*ident.orthogonality_bounded_residual(*pair, zmax))

    def grading_params(windings):
        return {"k1": windings[0], "k2": windings[1], "lam1": 2.0, "lam2": 3.0}

    def growth_params(lam, k):
        return {"k": k, "lam1": lam, "lam2": lam, "zmax": zmax}

    def bounded_params(pair):
        return {"k": pair[0], "lam1": pair[1], "lam2": pair[2], "zmax": zmax}

    windings, lams = [(-2, 0), (0, 1), (1, 3), (-2, 3)], {"lam": [1.0, 2.0, 4.0], "k": [0, 1]}
    return (
        _sweep(cfg, ["orthogonality-grading"], {"windings": windings}, grading, grading_params)
        + _sweep(cfg, ["orthogonality-diagonal-growth"], lams, growth, growth_params)
        + _sweep(cfg, ["orthogonality-offdiagonal-bounded"], {"pair": _PROFILE_PAIRS}, bounded, bounded_params)
    )


_SIGMA_LADDER = (1e-1, 1e-2, 1e-3, 1e-4)


def suite_classical_limit(cfg):
    sigmas = tuple(cfg.values("sigma", _SIGMA_LADDER))
    sigma_label = "1e-1..1e-4" if sigmas == _SIGMA_LADDER else ",".join(repr(s) for s in sigmas)
    axes = {"lam": [1.0, 2.0, 4.0], "k": [0, 2, 5, 8], "r": [0.8, 1.0, 2.0]}

    def check(report, lam, k, r):
        errs = [ident.classical_limit_error(IrrepLabel(lam, k), r, s) for s in sigmas]
        return _ladder(report, errs, "errors ", "classical-limit-monotone", sigmas=sigma_label)

    def params(lam, k, r):
        return {"lam": lam, "k": k, "r": r, "sigma": sigmas[-1]}

    return _sweep(cfg, ["classical-limit", "classical-limit-monotone"], axes, check, params)


def suite_kummer_limit(cfg):
    ns = cfg.values("n", [100, 1000, 10000])

    def check(report, m, x):
        resids = [ident.kummer_bessel_limit_residual(n, m, x) for n in ns]
        label = "evaluated as Phi(-n, b; -c/n); residuals "
        return _ladder(report, resids, label, "kummer-limit-monotone", n=",".join(map(str, ns)))

    def params(m, x):
        return {"b": m, "c": x, "n": ns[-1]}

    axes = {"m": [1, 2, 3, 10], "x": [0.5, 4.0, 9.0]}
    return _sweep(cfg, ["kummer-limit", "kummer-limit-monotone"], axes, check, params)


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
    names = SUITE_NAMES if suite == "all" else [suite]
    rows = []
    for name in names:
        rows.extend(SUITES[name](cfg))
    if not rows:
        raise ValueError("the grid gives no records, so nothing was checked")
    cfg.check_read()
    _write_rows(rows, cfg.format, stream)
    return 0 if all(row["pass"] for row in rows) else 1


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
        # one encoder for every row; it refuses a non-finite float, and only such a row is rewritten with nulls
        strict = json.JSONEncoder(sort_keys=True, default=repr, allow_nan=False)
        lenient = json.JSONEncoder(sort_keys=True, default=repr)
        for row in rows:
            try:
                line = strict.encode(row)
            except ValueError:
                line = lenient.encode(_json_value(row))
            stream.write(line + "\n")
    else:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows([_csv_value(v) for v in row.values()] for row in rows)


def _table_rows(kind: str, cfg: RunConfig):
    if kind == "u-matrix":
        dim, r = _dim(cfg, 64, low=2), cfg.first("r", 1.0)
        g = GroupElement(r, cfg.first("psi", 0.0), cfg.first("phi", 0.0))
        U = u_matrix(g, dim)
        for m, n in itertools.product(range(dim), repeat=2):
            z = U[m, n]
            yield dict(equation="u-matrix-element", r=r, psi=g.psi, phi=g.phi, m=m, n=n, re=z.real, im=z.imag)
    elif kind == "irrep":
        lam, r = cfg.first("lam", 1.0), cfg.first("r", 1.0)
        ks, ns = cfg.values("k", range(-3, 4)), cfg.values("n", range(-3, 4))
        labels, g = [IrrepLabel(lam, k) for k in ks], GroupElement(r, cfg.first("psi", 0.0), cfg.first("phi", 0.0))
        rows = {label.k: irrep_row(label, g, max(abs(n - label.k) for n in ns)) for label in labels}
        for k, n in itertools.product(ks, ns):
            t = complex(rows[k][len(rows[k]) // 2 + n - k])
            yield dict(equation="irrep-element", lam=lam, r=r, psi=g.psi, phi=g.phi, k=k, n=n, re=t.real, im=t.imag)
    elif kind == "basis":
        lam, k = cfg.first("lam", 1.0), cfg.first("k", 0)
        if (zmax := cfg.first("zmax", 20)) < 1:
            raise ValueError(f"--zmax must be >= 1 here, got {zmax}")
        for zeta, val in enumerate(basis_d(IrrepLabel(lam, k), zmax).radial):
            yield dict(equation="basis-radial", lam=lam, k=k, zeta=zeta, re=val.real, im=val.imag)
    elif kind == "profile":
        k, lam1, lam2 = cfg.first("k", 0), cfg.first("lam", 2.0), cfg.first("lam2", 3.0)
        zmaxes = cfg.values("zmax", [100, 400, 1000])
        if min(zmaxes) < 0:
            raise ValueError(f"--zmax must be >= 0 here, got {min(zmaxes)}")
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
        if not (got := list(range(int(lo), int(hi) + 1))):
            raise ValueError(f"range {tok} gives no values")
        return got
    try:
        return [int(tok)]
    except ValueError:
        return [float(tok)]


_PARAM_FLAGS = ["dim", "seed", "k", "m", "n", "x", "y", "r", "psi", "phi"]
_PARAM_FLAGS += ["lambda", "lambda2", "zmax", "sigma", "zq"]
_FLAG_DEST = {"lambda": "lam", "lambda2": "lam2"}
_DEST_FLAG = {dest: flag for flag, dest in _FLAG_DEST.items()}
_INTEGER_FLAGS = {"dim", "seed", "k", "m", "n", "zmax"}
_FLAG_HELP = {
    "dim": "Fock truncation dimension, one integer (default 64; 96 for addition)",
    "seed": "random seed of the lie-algebra suite, one integer (default 1234)",
}


def _parse_grid(flag: str, text: str) -> list:
    """An explicit grid: nonempty, no empty range in it, finite, and integral for the integer flags."""
    try:
        vals = [v for tok in filter(None, map(str.strip, text.split(","))) for v in _parse_value_token(tok)]
    except ValueError as exc:  # a malformed token or an empty range
        raise ValueError(f"--{flag} {text!r}: {exc}") from None
    if not vals:
        raise ValueError(f"--{flag} {text!r} gives no values")
    if any(isinstance(v, float) and not math.isfinite(v) for v in vals):
        raise ValueError(f"--{flag} {text!r}: values must be finite")
    if flag in _INTEGER_FLAGS:
        if any(isinstance(v, float) and not v.is_integer() for v in vals):
            raise ValueError(f"--{flag} {text!r}: values must be integers")
        vals = [int(v) for v in vals]
    return vals


@functools.cache  # one parser a process: parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="e2fock",
        description="Verify the E(2)-on-Heisenberg special-function identities and emit value tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", action="append", default=[], metavar="NAME=VAL", help="tolerance override")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        for flag in _PARAM_FLAGS:
            help_text = _FLAG_HELP.get(flag, f"grid for {flag} (a..b ints or comma list)")
            p.add_argument(f"--{flag}", dest=_FLAG_DEST.get(flag, flag), help=help_text)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=SUITE_NAMES + ["all"])
    add_common(pv)

    pt = sub.add_parser("table", help="emit a value table")
    pt.add_argument("kind", choices=TABLE_KINDS)
    add_common(pt)
    return parser


def _config_from_args(args) -> RunConfig:
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
    return RunConfig(tols, grid, args.format)


def _merge_negative_values(argv):
    # argparse mistakes "-3..3" / "-5,0,5" for option strings; fold such
    # values into their flag as --k=-3..3
    flags = {f"--{flag}" for flag in _PARAM_FLAGS}
    out = []
    for tok in argv:
        if out and out[-1] in flags and tok.startswith("-") and any(c.isdigit() for c in tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
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
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (as ``| head`` does); point it at devnull so the
        # flush at interpreter exit does not raise again, and end as Python does on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
