"""No module under ``src/repro`` imports a name it never uses.

An unused import hides a dependency that is gone and keeps a deleted
module's name alive in its callers. A name counts as used when the module
reads it, names it in ``__all__``, or names it in an annotation (a quoted
annotation too). Package ``__init__`` modules are skipped: their imports are
the package's re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _imported(tree):
    """``(bound name, line)`` for every import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = (args.posonlyargs + args.args + args.kwonlyargs
                     + [a for a in (args.vararg, args.kwarg) if a])
            yield from (a.annotation for a in every if a.annotation)
            if node.returns:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names |= {e.value for e in ast.walk(node.value)
                      if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return names


def _unused(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    for name, line in _imported(tree):
        if name not in used:
            yield f"{path.relative_to(SRC.parent)}:{line}: {name}"


def test_no_module_imports_a_name_it_does_not_use():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert modules, f"no modules found under {SRC}"
    unused = [hit for path in modules for hit in _unused(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)
