import ast
import importlib
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import vmlandau

MODULES = sorted(m.name for m in pkgutil.iter_modules(vmlandau.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(f"vmlandau.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"vmlandau.{name}.__all__ lists missing names: {missing}"


def test_package_reexports_are_exported_by_their_modules():
    tree = ast.parse(Path(vmlandau.__file__).read_text())
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            mod = importlib.import_module(f"vmlandau.{node.module}")
            for alias in node.names:
                assert getattr(vmlandau, alias.name) is getattr(mod, alias.name)
                if alias.name not in mod.__all__:
                    unlisted.append(f"{node.module}.{alias.name}")
    assert not unlisted, f"re-exported but not in the module's __all__: {unlisted}"


def test_import_loads_neither_optimize_nor_integrate():
    code = ("import sys, vmlandau, vmlandau.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[:2] in (['scipy', 'optimize'], ['scipy', 'integrate'])))")
    src = os.path.dirname(os.path.dirname(vmlandau.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]", out.stdout


def test_benchmark_selfcheck_passes(tmp_path):
    # the benchmark calls the program by name; a change that breaks one of
    # those names fails here rather than only when the benchmark runs.  It runs
    # in a copy of perfbench/ and src/, so that its runs and traces stay out of
    # the working tree
    root = Path(vmlandau.__file__).resolve().parents[2]
    for part in ("perfbench", "src"):
        shutil.copytree(root / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("_runs", "_traces", "__pycache__"))
    out = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "selfcheck.py")],
                         capture_output=True, text=True, cwd=tmp_path)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
