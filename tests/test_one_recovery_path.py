"""Training state is captured and restored only by the resilience runtime.

``capture_state`` / ``restore_state`` turn a trainer into a checkpoint and
back. The one-enclave run and every distributed worker checkpoint and
recover through :class:`~repro.resilience.supervisor.ResilientTrainer`, so
a call to either outside ``src/repro/resilience`` is a second recovery
path growing back.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
_STATE_CALLS = {"capture_state", "restore_state"}


def _called_name(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_state_is_captured_and_restored_only_under_resilience():
    modules = sorted(SRC.rglob("*.py"))
    assert modules, f"no modules found under {SRC}"
    calls = []
    for path in modules:
        if (SRC / "resilience") in path.parents:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        calls.extend(
            f"{path.relative_to(SRC.parent)}:{node.lineno} {_called_name(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _called_name(node) in _STATE_CALLS
        )
    assert not calls, "state capture/restore outside resilience/:\n" + (
        "\n".join(calls))
