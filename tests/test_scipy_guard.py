"""numpy alone: no module of the package imports scipy, at the top or inside a
function, so no emomsase process loads it.  scipy stays a test-only oracle."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "emomsase"


def offences(source: str, filename: str) -> list[str]:
    """``file:line: import`` for each import of scipy in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found += [f"{filename}:{node.lineno}: import {name}" for name in names
                  if name.split(".")[0] == "scipy"]
    return found


def test_no_module_imports_scipy():
    found = [o for path in sorted(PACKAGE.glob("*.py"))
             for o in offences(path.read_text(), path.name)]
    assert found == []


@pytest.mark.parametrize("source", [
    "from scipy.signal import butter, filtfilt\n",
    "import numpy as np, scipy.signal\n",
    "def f():\n    from scipy import signal\n    return signal\n",
])
def test_the_scan_sees_each_form_of_import(source):
    assert offences(source, "x.py")


def test_importing_every_module_loads_no_scipy():
    script = (
        "import importlib, pkgutil, sys, emomsase\n"
        "for m in pkgutil.iter_modules(emomsase.__path__):\n"
        "    if m.name != '__main__':  # which would run the command line\n"
        "        importlib.import_module('emomsase.' + m.name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
