"""Per-layer metrics: the fixed list of names and their values from one traced pass.

Every workload reports every name, so a function a workload never calls
reads 0.  Self times of all traced functions, listed or not, are summed per
layer into ``layer.<module>.self_s``; with ``trace.unattributed_s`` (time
outside every span: gating the output and the loop around ``main``) they
add up to the traced pass's ``trace.wall_s``.  That sum holds by
construction, so the remainder itself is checked: apart from gating
(``trace.gate_s``, timed on its own) it is only the loop around ``main``.
If the rest grows past ``MAX_UNTRACED_SHARE`` of the traced wall time, work
runs outside every traced function (say, ``main`` moved to a module that is
not a layer) and the run is not correct.
"""

from __future__ import annotations

from perfbench.tracer import LAYERS

# the loop around ``main`` takes under 0.05% of a traced pass
MAX_UNTRACED_SHARE = 0.005

# (function, counters beyond calls and self_s)
FUNCTIONS = [
    ("specfun.kummer_phi", ("steps",)),
    ("specfun.kummer_phi_seq", ("steps",)),
    ("specfun.laguerre_seq", ("steps",)),
    ("specfun.hyp2f0_poly", ("steps",)),
    ("specfun.log_factorial", ()),
    ("specfun.bessel_j_seq", ()),
    ("specfun.bessel_j", ()),
    ("specfun.bessel_i_scaled", ()),
    ("e2group.u_matrix", ("entries", "repeat_share")),
    ("e2group.irrep_element", ()),
    ("repk.to_matrix", ()),
    ("repk.basis_d", ()),
    ("repk.algebra_function", ()),
    ("repk.eigen_residuals", ()),
    ("identities.addition_residual", ()),
    ("identities.addition_vacuum_crosscheck", ()),
    ("identities.identity_a", ()),
    ("identities.identity_b", ()),
    ("identities.hille_hardy_residual", ()),
    ("identities.classical_limit_error", ()),
    ("identities.kummer_bessel_limit_residual", ()),
    ("identities.orthogonality_profile_curve", ()),
    ("cli.main", ()),
    ("cli.run_verify", ()),
]

SUITES = [
    "unitarity",
    "intertwining",
    "recurrence",
    "eigen",
    "lie-algebra",
    "addition",
    "identity-a",
    "identity-b",
    "hille-hardy",
    "orthogonality",
    "classical-limit",
    "kummer-limit",
]

_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "total_s": ("s", "lower"),
    "steps": ("count", "lower"),
    "entries": ("count", "lower"),
    "repeat_share": ("ratio", "lower"),
    "records": ("count", "higher"),
    "headroom_digits": ("digits", "higher"),
}


def _suite_fields(suite):
    # orthogonality checks carry tolerance 0 only, so it has no headroom
    return ("total_s", "records") if suite == "orthogonality" else ("total_s", "records", "headroom_digits")


def per_layer_spec() -> list[dict]:
    """Name, unit and direction of every per-layer metric, in reporting order."""
    spec = []

    def add(name, field):
        unit, better = _UNITS[field]
        spec.append({"name": name, "unit": unit, "better": better})

    for layer in LAYERS:
        add(f"layer.{layer}.self_s", "self_s")
    for fn, counters in FUNCTIONS:
        for field in ("calls", "self_s", *counters):
            add(f"{fn}.{field}", field)
    for suite in SUITES:
        for field in _suite_fields(suite):
            add(f"cli.suite.{suite}.{field}", field)
    spec += [
        {"name": "trace.wall_s", "unit": "s", "better": "lower"},
        {"name": "trace.unattributed_s", "unit": "s", "better": "lower"},
        {"name": "trace.gate_s", "unit": "s", "better": "lower"},
        {"name": "trace.overhead_s", "unit": "s", "better": "lower"},
        {"name": "trace.bindings_wrapped", "unit": "count", "better": "higher"},
    ]
    return spec


def per_layer_values(trace: dict, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Every per-layer metric from a traced pass's summary and the two wall times."""
    stats = trace["stats"]
    values = {}
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = sum(
            s["self_s"] for name, s in stats.items() if name.split(".")[0] == layer
        )

    def field_value(fn, field):
        s = stats.get(fn, {})
        if field == "repeat_share":
            return 1.0 - s["distinct"] / s["calls"] if s.get("calls") else 0.0
        return s.get(field, 0)

    for fn, counters in FUNCTIONS:
        for field in ("calls", "self_s", *counters):
            values[f"{fn}.{field}"] = field_value(fn, field)
    for suite in SUITES:
        for field in _suite_fields(suite):
            values[f"cli.suite.{suite}.{field}"] = field_value(f"cli.suite.{suite}", field)
    values["trace.wall_s"] = traced_wall_s
    values["trace.unattributed_s"] = traced_wall_s - sum(s["self_s"] for s in stats.values())
    values["trace.gate_s"] = trace["gate_s"]
    values["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    values["trace.bindings_wrapped"] = trace["bindings_wrapped"]
    return values


def untraced_problem(values: dict[str, float]) -> str | None:
    """A gate problem if time outside every traced span, gating aside, is too large a share of the pass."""
    share = (values["trace.unattributed_s"] - values["trace.gate_s"]) / values["trace.wall_s"]
    if share > MAX_UNTRACED_SHARE:
        return f"{share:.1%} of trace.wall_s is outside every traced function and outside gating"
    return None
