"""Binding tracer: spans around every binding of e2fock's public functions.

Modules import functions by name (``from .specfun import kummer_phi``) and
``cli.run_verify`` dispatches through the ``cli.SUITES`` dict, so wrapping
only the defining module would miss most calls.  ``Tracer.install`` finds
each public function of the layer modules and replaces every module
attribute and dict entry across the package that is bound to it, and
``Tracer.restore`` puts all of them back.

Spans are aggregated per function as they close: calls, inclusive time and
self time (the span minus the spans of the calls it made).  Hooks add work
counts that are measured where the work is asked for.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from dataclasses import dataclass, field

from perfbench.gate import headroom_digits

LAYERS = ("specfun", "e2group", "fock", "repk", "identities", "cli")


@dataclass
class FnStats:
    """Aggregated spans of one traced function."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)
    keys: set = field(default_factory=set)

    def add(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_u_matrix(stats, args, kwargs, result):
    g, dim = _arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "dim")
    stats.add("entries", dim * dim)
    stats.keys.add((g.r, g.psi, g.phi, dim))


def _steps(index, name):
    def hook(stats, args, kwargs, result):
        stats.add("steps", _arg(args, kwargs, index, name))

    return hook


def _count_hyp2f0(stats, args, kwargs, result):
    stats.add("steps", min(_arg(args, kwargs, 0, "m"), _arg(args, kwargs, 1, "n")))


def _count_suite(stats, args, kwargs, result):
    stats.add("records", len(result))
    digits = headroom_digits((report.tolerance, report.residual) for report in result)
    if digits is not None:
        stats.counts["headroom_digits"] = min(stats.counts.get("headroom_digits", math.inf), digits)


HOOKS = {
    "e2group.u_matrix": _count_u_matrix,
    "specfun.kummer_phi": _steps(0, "n"),
    "specfun.kummer_phi_seq": _steps(0, "nmax"),
    "specfun.laguerre_seq": _steps(0, "nmax"),
    "specfun.hyp2f0_poly": _count_hyp2f0,
}


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Aggregates spans of wrapped functions; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, FnStats] = {}
        self._open: list[float] = []
        self._bindings: list[tuple[dict, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` wrapped so each call records a span under ``name``."""
        stats = self.stats.setdefault(name, FnStats())
        open_spans, clock = self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += span
                stats.calls += 1
                stats.total_s += span
                stats.self_s += span - children
            if hook is not None:
                hook(stats, args, kwargs, result)
            return result

        return traced

    def install(self) -> int:
        """Wrap every binding of the layers' public functions; return how many were wrapped."""
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        modules = {layer: importlib.import_module(f"e2fock.{layer}") for layer in LAYERS}
        suites = {id(fn): key for key, fn in modules["cli"].SUITES.items()}
        wrappers = {}
        for layer, module in modules.items():
            for attr, fn in _public_functions(module):
                if layer == "cli" and id(fn) in suites:
                    name, hook = f"cli.suite.{suites[id(fn)]}", _count_suite
                else:
                    name = f"{layer}.{attr}"
                    hook = HOOKS.get(name)
                wrappers[id(fn)] = (fn, self.wrap(name, fn, hook))

        def rebind(namespace: dict):
            for key, value in list(namespace.items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._bindings.append((namespace, key, value))
                    namespace[key] = entry[1]

        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "e2fock" or mod_name.startswith("e2fock.")):
                continue
            namespace = vars(module)
            rebind(namespace)
            for key, value in list(namespace.items()):
                if isinstance(value, dict) and not key.startswith("__"):
                    rebind(value)
        return len(self._bindings)

    def restore(self) -> int:
        """Put back every binding ``install`` replaced; return how many were restored."""
        restored = 0
        while self._bindings:
            namespace, key, original = self._bindings.pop()
            namespace[key] = original
            restored += 1
        return restored
