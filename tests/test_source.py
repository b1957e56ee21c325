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


def test_no_dataclasses_import():
    # the records are named tuples: importing dataclasses would load
    # inspect, ast, dis and tokenize into every command
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom)
                     else [])
            if "dataclasses" in names:
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert found == []


# names a module imports only for its callers, and the test that pins each
REEXPORTS = {("states.py", "MAX_TOTAL_DIM")}  # test_states


def test_no_unused_imports():
    # a standard-library AST walk, so the check needs no linter: every
    # name an import binds must be read somewhere in its module
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                key = (str(path.relative_to(PACKAGE)), name)
                if name not in used and key not in REEXPORTS:
                    found.append(f"{key[0]}:{node.lineno}: {name}")
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


def test_traced_spin_layers_are_reached(monkeypatch):
    # the tracer sees a layer only when qlctx calls it through its module
    # attribute; a call bound any other way would leave the traced spin
    # layers reading 0 on working code
    from qlctx import states, uniqueness

    calls = {"apply_local": 0, "check_uniqueness": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(states, "apply_local")
    counted(uniqueness, "check_uniqueness")
    psi = states.catalog_state("psi2")
    uniqueness.check_uniqueness_rotated(psi, 2)
    assert calls == {"apply_local": 2, "check_uniqueness": 3}
    calls.update(apply_local=0, check_uniqueness=0)
    states.is_form_invariant(psi, 2)
    assert calls == {"apply_local": 2, "check_uniqueness": 0}
