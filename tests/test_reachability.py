"""Every definition under ``src/`` is reached from outside the tests.

An ``ast`` sweep: each module-level function and class, and each method,
defined under ``src/repro`` must be referenced by name from ``src/``,
``bench/``, ``examples/`` or ``benchmarks/`` — as an identifier, an
attribute, an imported name or a string constant (dispatch keys). A
name only the tests call is API that nothing in the system uses; delete
it and move its tests to the call underneath, or wire it in.

Exporting is not using: an ``__all__`` entry and an import in a package
``__init__.py`` (a re-export) do not count as references. The sweep is
name-based, so it is a lower bound: a name that is also used for
something else elsewhere counts as reached.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REACHING = ("src", "bench", "examples", "benchmarks")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Qualified name -> why it may stay although only tests reach it.
ALLOWED = {
    "CalTrain.release_model":
        "the paper's encrypted-FrontNet release; not yet wired into a "
        "workload or the CLI",
    "PartitionedNetwork.import_frontnet_encrypted":
        "the receiving half of the encrypted-FrontNet release",
    "CalTrain.set_assessor":
        "injects a pre-trained exposure assessor; only tests pre-train one",
    "ExposureAssessor.assess_training":
        "the assessment sweep over a training set; no driver runs it yet",
    "InputReconstructionAttack.baseline_mse":
        "the attack's no-information baseline; no experiment reports it yet",
}


def _exports(tree, is_package: bool):
    """Nodes that only re-export: ``__all__`` and a package's imports."""
    for node in ast.walk(tree):
        if is_package and isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from node.names
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                yield from ast.walk(node.value)


def _references():
    names = Counter()
    for base in REACHING:
        for path in sorted((ROOT / base).rglob("*.py")):
            tree = ast.parse(path.read_text())
            exports = {id(node) for node in
                       _exports(tree, path.name == "__init__.py")}
            for node in ast.walk(tree):
                if id(node) in exports:
                    continue
                if isinstance(node, ast.Name):
                    names[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    names[node.attr] += 1
                elif isinstance(node, ast.alias):
                    names[node.name.rsplit(".", 1)[-1]] += 1
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    names[node.value] += 1
    return names


def _definitions():
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, _DEFINITIONS):
                yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, _DEFINITIONS):
                        yield f"{node.name}.{member.name}", member.name


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_reached_outside_the_tests():
    references = _references()
    unreached = sorted(
        qualified for qualified, name in _definitions()
        if not _is_dunder(name) and not references[name]
        and qualified not in ALLOWED
    )
    assert not unreached, (
        "reached only from tests (delete, wire in, or allow with a "
        "reason):\n" + "\n".join(unreached))


def test_allowed_names_still_exist_and_are_still_unreached():
    references = _references()
    defined = dict(_definitions())
    stale = sorted(
        qualified for qualified in ALLOWED
        if qualified not in defined or references[defined[qualified]]
    )
    assert not stale, "drop these from ALLOWED:\n" + "\n".join(stale)
