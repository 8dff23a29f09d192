"""The package root's exports resolve; the demos compile, import only names
spiralns and its modules have, and the quick ones run."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import spiralns

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")
NAMES = sorted(n for n in os.listdir(DEMOS) if n.endswith(".py"))


@pytest.mark.parametrize("name", NAMES)
def test_demo_compiles_and_imports_existing_names(name):
    path = os.path.join(DEMOS, name)
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    compile(tree, path, "exec")
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").partition(".")[0] == "spiralns"
        for alias in node.names
    ]
    assert imported
    missing = [
        f"{module}.{n}"
        for module, n in imported
        if not hasattr(importlib.import_module(module), n)
    ]
    assert missing == []


def test_every_root_export_resolves_once():
    names = spiralns.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(spiralns, n)] == []
    # The root re-exports exactly what its own imports bring in.
    path = os.path.join(ROOT, "src", "spiralns", "__init__.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    imported = {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported | {"__version__"} == set(names)


@pytest.mark.parametrize("name", ["metric_contradiction.py", "unbounded_archive_oscillation.py"])
def test_quick_demo_runs(name):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, os.path.join(DEMOS, name)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
