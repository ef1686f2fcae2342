"""The package's public surface and the demos that use it."""

import ast
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
        assert digest == "1169caa4e3d991c332e739632bcea6b27ccea5e9e970e7c9cc02f17673131584"

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


def test_no_module_imports_a_private_name_of_another():
    # each formula has one owner: a layer reads another's public names only
    private = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted((REPO / "src" / "e2fock").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("e2fock"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_no_source_line_is_over_117_characters():
    long = [
        f"{path.name}:{number}"
        for path in sorted((REPO / "src" / "e2fock").glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 117
    ]
    assert long == []


@pytest.mark.parametrize("demo", sorted(p.name for p in (REPO / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(REPO / "demos" / demo)], cwd=REPO, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
