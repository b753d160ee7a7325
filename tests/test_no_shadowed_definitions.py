"""No module or class body under ``src/repro`` defines one name twice.

A second ``def``/``class`` with the same name at the same level silently
replaces the first; callers of the first then fail at call time with an
arity error (``cli._parse_injections`` did exactly that).
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_property_accessor(node) -> bool:
    """``@x.setter`` / ``@x.deleter`` rebind the property name on purpose."""
    return any(
        isinstance(decorator, ast.Attribute)
        and decorator.attr in ("setter", "deleter")
        for decorator in getattr(node, "decorator_list", [])
    )


def _shadowed(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    for scope in scopes:
        names = Counter(
            node.name for node in scope.body
            if isinstance(node, _DEFINITIONS)
            and not _is_property_accessor(node)
        )
        owner = getattr(scope, "name", "<module>")
        for name, count in names.items():
            if count > 1:
                yield f"{path.relative_to(SRC.parent)}: {owner}.{name} x{count}"


def test_no_name_is_defined_twice_at_one_level():
    modules = sorted(SRC.rglob("*.py"))
    assert modules, f"no modules found under {SRC}"
    duplicates = [hit for path in modules for hit in _shadowed(path)]
    assert not duplicates, "shadowed definitions:\n" + "\n".join(duplicates)
