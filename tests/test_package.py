"""The package's public surface and the demos that use it."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import e2fock
from e2fock import e2group, fock, identities, repk, specfun

LAYERS = (e2group, fock, repk, identities, specfun)
REPO = pathlib.Path(__file__).resolve().parent.parent


class TestPublicApi:
    def test_names_and_order_are_pinned(self):
        # 54 names: every layer module's __all__ in order, then __version__
        digest = hashlib.sha256(json.dumps(e2fock.__all__).encode()).hexdigest()
        assert digest == "437ffbcfdec83de4472cef6d24c7ba989d672dc652d4eb14886a49f0e43e9c34"

    def test_each_name_is_its_defining_module_object(self):
        for module in LAYERS:
            for name in module.__all__:
                obj = getattr(module, name)
                assert obj.__module__ == module.__name__, name
                assert getattr(e2fock, name) is obj, name

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from e2fock import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(e2fock.__all__)


@pytest.mark.parametrize("demo", sorted(p.name for p in (REPO / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(REPO / "demos" / demo)], cwd=REPO, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
