"""Every benchmark and example module imports.

Tier-1 runs neither ``benchmarks/`` nor ``examples/``, so a deleted or
renamed name they use would otherwise surface only when someone runs
them. Importing each file by path executes its module-level imports and
definitions; the examples keep their work behind ``__main__`` guards and
the benchmarks behind test functions, so nothing heavy runs here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENTRY_POINTS = sorted(
    path for directory in ("benchmarks", "examples")
    for path in (ROOT / directory).glob("*.py")
)


def test_entry_points_found():
    assert {path.parent.name for path in ENTRY_POINTS} == {"benchmarks",
                                                          "examples"}


@pytest.mark.parametrize(
    "path", ENTRY_POINTS,
    ids=[f"{path.parent.name}/{path.name}" for path in ENTRY_POINTS])
def test_imports(path, monkeypatch):
    name = f"_entry_point_{path.parent.name}_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
