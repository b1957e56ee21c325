"""Checks on the package source itself."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qlctx"
SPANS = ROOT / "perfbench" / "spans.py"


def test_no_assert_statements():
    # python -O strips assert, so no check in the package may rest on one
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert found == []


def test_traced_names_resolve():
    # the benchmark's tracer replaces these module attributes by name, so a
    # moved or renamed function would otherwise fail only in a traced run;
    # the file is executed from its text, so no bytecode is written beside it
    spans = {"__name__": "spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans)
    wrapped = [(module, attr) for module, attr, _, _ in spans["WRAPPED"]]
    assert wrapped
    missing = [f"{module}.{attr}" for module, attr in wrapped
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
