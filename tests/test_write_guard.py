"""One writer: only ``dataio.write_atomic`` writes file bytes, and only ``dataio``
makes a ``csv.writer``, so a second write path in the package fails this test.
One cache layout: only ``preprocess`` names a tensor cache suffix, in a
``with_suffix`` call or a ``glob`` pattern."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "emomsase"
WRITER = ("dataio.py", "write_atomic")
WRITE_METHODS = {"write_text", "write_bytes"}
CACHE_SUFFIXES = (".bin", ".json")


def _mode(call: ast.Call, position: int) -> str | None:
    """The mode of an ``open`` call: None if not given, "?" if not a constant."""
    args = call.args[position:position + 1]
    args += [k.value for k in call.keywords if k.arg == "mode"]
    if not args:
        return None
    return args[0].value if isinstance(args[0], ast.Constant) else "?"


def _cache_suffix(call: ast.Call) -> str | None:
    """``with_suffix('.bin')`` or ``glob('*.json')`` for a call that names a cache suffix."""
    fn = call.func
    if not (isinstance(fn, ast.Attribute) and fn.attr in ("with_suffix", "glob", "rglob")
            and call.args and isinstance(call.args[0], ast.Constant)
            and isinstance(call.args[0].value, str)):
        return None
    arg = call.args[0].value
    named = arg in CACHE_SUFFIXES if fn.attr == "with_suffix" else arg.endswith(CACHE_SUFFIXES)
    return f"{fn.attr}({arg!r})" if named else None


def _offence(call: ast.Call) -> str | None:
    fn = call.func
    if isinstance(fn, ast.Name) and fn.id == "open":
        mode = _mode(call, 1)
    elif isinstance(fn, ast.Attribute) and fn.attr == "open":  # Path.open(mode)
        mode = _mode(call, 0)
    elif isinstance(fn, ast.Attribute) and fn.attr in WRITE_METHODS:
        return f".{fn.attr}"
    elif (isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name)
          and (fn.value.id, fn.attr) in (("json", "dump"), ("csv", "writer"))):
        return f"{fn.value.id}.{fn.attr}"
    else:
        return None
    if mode is not None and set(mode) & set("wax+?"):
        return f"open({mode!r})"
    return None


def offences(source: str, filename: str) -> list[str]:
    """``file:function: call`` for each call in ``source`` that breaks the rule."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            what = _offence(node)
            allowed = ((filename == "dataio.py") if what == "csv.writer"
                       else (filename, function) == WRITER)
            if what is not None and not allowed:
                found.append(f"{filename}:{function}: {what}")
            what = _cache_suffix(node)
            if what is not None and filename != "preprocess.py":
                found.append(f"{filename}:{function}: {what}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_only_write_atomic_writes_files():
    found = [o for path in sorted(PACKAGE.glob("*.py"))
             for o in offences(path.read_text(), path.name)]
    assert found == []


@pytest.mark.parametrize("filename, source, expected", [
    ("cli.py", "def f(p):\n    p.write_text('x')\n", ["cli.py:f: .write_text"]),
    ("dataio.py", "def g(p):\n    p.write_bytes(b'')\n", ["dataio.py:g: .write_bytes"]),
    ("evaluate.py", "import json\ndef f(d, fh):\n    json.dump(d, fh)\n",
     ["evaluate.py:f: json.dump"]),
    ("cli.py", "def f(p):\n    with open(p, 'w', newline='') as fh:\n        pass\n",
     ["cli.py:f: open('w')"]),
    ("cli.py", "def f(p, m):\n    open(p, mode=m)\n", ["cli.py:f: open('?')"]),
    ("cli.py", "def f(p):\n    p.open('ab')\n", ["cli.py:f: open('ab')"]),
    ("evaluate.py", "import csv\ndef f(fh):\n    csv.writer(fh)\n", ["evaluate.py:f: csv.writer"]),
    ("dataio.py", "import csv\ndef f(fh):\n    csv.writer(fh)\n", []),
    ("dataio.py", "def write_atomic(p, b):\n    p.write_bytes(b)\n", []),
    ("preprocess.py", "def f(p):\n    open(p, 'rb'); open(p); p.open()\n", []),
    ("cli.py", "def f(s):\n    s.with_suffix('.bin')\n", ["cli.py:f: with_suffix('.bin')"]),
    ("cli.py", "def f(d):\n    d.glob('*.json')\n", ["cli.py:f: glob('*.json')"]),
    ("evaluate.py", "def f(d):\n    d.rglob('x*.bin')\n", ["evaluate.py:f: rglob('x*.bin')"]),
    ("cli.py", "def f(s, d):\n    s.with_suffix('.csv'); d.glob('*.csv')\n", []),
    ("preprocess.py", "def f(s, d):\n    s.with_suffix('.json'); d.glob('*.bin')\n", []),
])
def test_the_guard_sees_each_write_path(filename, source, expected):
    assert offences(source, filename) == expected
