"""``src/repro/serving`` carries no fault-injection surface.

Drills apply faults from outside (``repro.resilience.faults``) through
what the production classes expose anyway. A hook, flag or wrapper that
exists only so a drill can flip it would put chaos machinery back on the
healthy path — so no ``def``, ``class`` or assigned attribute under
``src/repro/serving`` may be named like one, and the package may not
import ``repro.resilience`` at all.
"""

import ast
import re
from pathlib import Path

SERVING = Path(__file__).resolve().parents[2] / "src" / "repro" / "serving"
_FAULT_NAME = re.compile(
    r"inject|crash_|wedge|delay_replica|corrupt|tear_|grow_store"
    r"|release_faults|chaos")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _bound_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, _DEFINITIONS):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Attribute):
                        yield leaf.lineno, leaf.attr
                    elif isinstance(leaf, ast.Name):
                        yield leaf.lineno, leaf.id


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.lineno, node.module
            for alias in node.names:
                yield node.lineno, f"{node.module}.{alias.name}"


def test_serving_defines_no_fault_surface_and_never_imports_the_injector():
    modules = sorted(SERVING.rglob("*.py"))
    assert modules, f"no modules found under {SERVING}"
    offences = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        where = path.relative_to(SERVING.parent)
        offences += [f"{where}:{line}: binds {name!r}"
                     for line, name in _bound_names(tree)
                     if _FAULT_NAME.search(name)]
        offences += [f"{where}:{line}: imports {module}"
                     for line, module in _imported_modules(tree)
                     if module.startswith("repro.resilience")]
    assert not offences, (
        "fault-injection surface inside repro.serving:\n"
        + "\n".join(offences))
