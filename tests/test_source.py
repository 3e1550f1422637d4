"""Checks on the package source itself, not on its behaviour."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "barrier_rl"
MODULES = ["barrier_rl"] + [f"barrier_rl.{p.stem}" for p in sorted(SRC.glob("[!_]*.py"))]
MAX_LINE = 100


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_no_source_line_is_too_long():
    long_lines = [
        f"{path.name}:{number}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []


def imported_modules(path):
    """Each module an import statement in ``path`` names; a relative one keeps its dots."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


def test_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "barrier_rl"}
    outside = [
        f"{path.name}: {n}"
        for path in sorted(SRC.glob("*.py"))
        for n in imported_modules(path)
        if not n.startswith(".") and n.split(".")[0] not in allowed
    ]
    assert outside == []


def test_optbench_imports_only_barriers_from_the_package():
    # the bound benchmark times a fresh import of optbench as its set-up
    package = [
        n for n in imported_modules(SRC / "optbench.py") if n.startswith((".", "barrier_rl"))
    ]
    assert package == ["barrier_rl.barriers"]


def test_package_init_imports_no_module():
    # every import of a submodule runs __init__ first, so an import here
    # would add to the bound benchmark's set-up what optbench does not need
    assert list(imported_modules(SRC / "__init__.py")) == []


def test_cli_leaves_the_checkpoint_layout_to_harness():
    # harness.read_checkpoint is the one reader of what train writes
    assert "json" not in list(imported_modules(SRC / "cli.py"))


ALGO_NAMES = {"csac_lb", "sac_lag", "sac_rs"}


def algo_comparisons(path):
    """Line of each comparison or ``case`` in ``path`` that has an algorithm
    name as an operand, alone or in a tuple, list or set literal."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.MatchValue):
            operands = [node.value]
        else:
            continue
        for operand in operands:
            literal = isinstance(operand, (ast.Tuple, ast.List, ast.Set))
            items = operand.elts if literal else [operand]
            if any(isinstance(i, ast.Constant) and i.value in ALGO_NAMES for i in items):
                yield node.lineno


def test_only_agents_asks_which_algorithm_runs():
    found = {path.name: list(algo_comparisons(path)) for path in sorted(SRC.glob("*.py"))}
    assert found.pop("agents.py")  # the check sees the comparisons that are there
    assert {name: lines for name, lines in found.items() if lines} == {}
