import io
import sys

import pytest

from perfbench.tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_excludes_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    inner = tracer.wrap("m.inner", lambda: clock.advance(2.0))

    def outer_body():
        clock.advance(1.0)
        inner()
        clock.advance(0.5)
        inner()

    tracer.wrap("m.outer", outer_body)()
    outer, inner_stats = tracer.stats["m.outer"], tracer.stats["m.inner"]
    assert (outer.calls, outer.total_s, outer.self_s) == (1, 5.5, 1.5)
    assert (inner_stats.calls, inner_stats.total_s, inner_stats.self_s) == (2, 4.0, 4.0)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def failing():
        clock.advance(1.0)
        raise ValueError("boom")

    inner = tracer.wrap("m.failing", failing)

    def outer_body():
        with pytest.raises(ValueError):
            inner()
        clock.advance(3.0)

    tracer.wrap("m.outer", outer_body)()
    assert tracer.stats["m.failing"].self_s == 1.0
    assert tracer.stats["m.outer"].self_s == 3.0
    assert tracer._open == []


def _bindings():
    """Every module attribute and module-level dict entry across the e2fock package."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "e2fock" or name.startswith("e2fock.")):
            continue
        for key, value in vars(module).items():
            out[(name, key)] = value
            if isinstance(value, dict) and not key.startswith("__"):
                for k, v in value.items():
                    out[(name, key, k)] = v
    return out


def test_install_wraps_imported_bindings_and_restore_puts_them_back():
    import e2fock
    import e2fock.cli as cli
    import e2fock.identities as identities
    import e2fock.specfun as specfun

    before = _bindings()
    original_suite = cli.SUITES["kummer-limit"]
    tracer = Tracer()
    wrapped = tracer.install()
    try:
        # the name imported into identities and the SUITES dict entry are both traced
        assert identities.kummer_phi is not before[("e2fock.identities", "kummer_phi")]
        assert identities.kummer_phi is specfun.kummer_phi
        assert cli.SUITES["kummer-limit"] is not original_suite
        assert e2fock.u_matrix is not before[("e2fock", "u_matrix")]
        assert cli.main(["verify", "kummer-limit", "--m", "1", "--x", "0.5"], stream=io.StringIO()) == 0
    finally:
        restored = tracer.restore()

    assert wrapped > 0 and restored == wrapped
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.stats["cli.suite.kummer-limit"].calls == 1
    assert tracer.stats["cli.suite.kummer-limit"].counts["records"] == 2
    assert tracer.stats["specfun.kummer_phi"].calls == 3
    assert tracer.stats["specfun.kummer_phi"].counts["steps"] == 100 + 1000 + 10000
    main = tracer.stats["cli.main"]
    assert sum(s.self_s for s in tracer.stats.values()) == pytest.approx(main.total_s)
