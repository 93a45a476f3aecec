"""One owner for the training dtype: ``train.DTYPE`` names float32 for every
weight, gradient, moment and the data ``run`` loads, and ``autodiff.COMPUTE_DTYPES``
lists the dtypes a ``Var`` keeps.  Any other ``float32`` in the package fails
this test."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "emomsase"
OWNERS = {("train.py", "DTYPE"), ("autodiff.py", "COMPUTE_DTYPES")}


def offences(source: str, filename: str) -> list[str]:
    """``file:owner: float32`` for each float32 in ``source`` outside its owner."""
    found = []

    def visit(node, owner):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            owner = node.targets[0].id
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name
        named = ((isinstance(node, ast.Attribute) and node.attr == "float32")
                 or (isinstance(node, ast.alias) and node.name == "float32"))
        if named and (filename, owner) not in OWNERS:
            found.append(f"{filename}:{owner}: float32")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_only_the_owners_name_float32():
    found = [o for path in sorted(PACKAGE.glob("*.py"))
             for o in offences(path.read_text(), path.name)]
    assert found == []


@pytest.mark.parametrize("filename, source, expected", [
    ("cli.py", "import numpy as np\ndef f(x):\n    return x.astype(np.float32)\n",
     ["cli.py:f: float32"]),
    ("model.py", "import numpy\nWIDTH = numpy.float32\n", ["model.py:WIDTH: float32"]),
    ("evaluate.py", "from numpy import float32\n", ["evaluate.py:<module>: float32"]),
    ("train.py", "import numpy as np\nDTYPE = np.float32\n", []),
    ("train.py", "def fit(m):\n    m.cast(np.float32)\n", ["train.py:fit: float32"]),
    ("autodiff.py", "COMPUTE_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))\n", []),
    ("autodiff.py", "class Tape:\n    dtype = np.float32\n", ["autodiff.py:dtype: float32"]),
    ("cli.py", "from .train import DTYPE\ndef f(x):\n    return x.astype(DTYPE)\n", []),
])
def test_the_guard_sees_each_float32(filename, source, expected):
    assert offences(source, filename) == expected
