"""Checks on the package source itself, not on its behaviour."""

import importlib
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
