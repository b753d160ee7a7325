"""No production package carries a fault-injection surface.

Drills apply faults from outside (``repro.resilience.faults``) through
what the production classes expose anyway. A hook, flag, tap or wrapper
that exists only so a drill can flip it would put chaos machinery back
on the healthy path — the path participants attest before they
provision keys. So:

* under ``src/repro/serving`` no ``def``, ``class``, parameter or
  assigned attribute may be named like a fault surface (the strict
  pattern), and the package may not import ``repro.resilience`` at all;
* under ``core``, ``distributed``, ``enclave``, ``federation``, ``nn``
  and ``resilience`` (minus ``faults.py`` itself) nothing may bind an
  injection name, and none of them may import the injector.
  *Observations* of a fault (``RoundReport.corrupted``,
  ``rejected_tampered``, ``faulted``) are production vocabulary and pass.

:class:`TestArming` pins the other half of the contract: a
:class:`~repro.resilience.faults.FaultPlan` patches production classes
only for the life of its ``with`` block.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError
from repro.resilience import faults
from repro.resilience.faults import FaultPlan, FaultSpec

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
_SERVING_FAULT_NAME = re.compile(
    r"inject|crash_|wedge|delay_replica|corrupt|tear_|grow_store"
    r"|release_faults|chaos")
_FAULT_NAME = re.compile(r"inject|chaos|fault_plan|fault_hook|_tap",
                         re.IGNORECASE)
_INJECTOR = "repro.resilience.faults"
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _bound_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, _DEFINITIONS):
            yield node.lineno, node.name
        elif isinstance(node, ast.arg):
            yield node.lineno, node.arg
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


def _offences(package, name_pattern, forbidden_import):
    modules = sorted(path for path in (SRC / package).rglob("*.py")
                     if path != SRC / "resilience" / "faults.py")
    assert modules, f"no modules found under {SRC / package}"
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        where = path.relative_to(SRC)
        for line, name in _bound_names(tree):
            if name_pattern.search(name):
                yield f"{where}:{line}: binds {name!r}"
        for line, module in _imported_modules(tree):
            if module.startswith(forbidden_import):
                yield f"{where}:{line}: imports {module}"


def test_serving_defines_no_fault_surface_and_never_imports_the_injector():
    offences = list(_offences("serving", _SERVING_FAULT_NAME,
                              "repro.resilience"))
    assert not offences, (
        "fault-injection surface inside repro.serving:\n"
        + "\n".join(offences))


@pytest.mark.parametrize("package", ["core", "distributed", "enclave",
                                     "federation", "nn", "resilience"])
def test_training_planes_define_no_fault_surface(package):
    offences = list(_offences(package, _FAULT_NAME, _INJECTOR))
    assert not offences, (
        f"fault-injection surface inside repro.{package}:\n"
        + "\n".join(offences))


def test_observation_names_are_not_injection_names():
    for name in ("corrupted", "rejected_tampered", "faulted", "stragglers",
                 "classify_fault", "fault_enclave"):
        assert not _FAULT_NAME.search(name)
    for name in ("fault_plan", "write_fault_hook", "boundary_tap",
                 "injections", "WorkerInjection", "_injection"):
        assert _FAULT_NAME.search(name)


def _wrapped_production_attributes():
    """Every attribute of a production module or class whose code lives
    in the injector (``functools.wraps`` copies names, never code)."""
    found = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__") or info.name == faults.__name__:
            continue  # importing __main__ runs the CLI
        module = importlib.import_module(info.name)
        owners = [module] + [
            value for value in vars(module).values()
            if inspect.isclass(value) and value.__module__ == module.__name__]
        for owner in owners:
            for attribute, value in vars(owner).items():
                if (inspect.isfunction(value)
                        and value.__code__.co_filename == faults.__file__):
                    found.append(f"{owner.__name__}.{attribute}")
    return found


class TestArming:
    PLAN = [FaultSpec("enclave-abort", epoch=0, batch=1)]

    def test_patches_stay_defined_on_their_owner_while_armed(self):
        """``bench/layers.py`` (and ``tests/test_bench_contract.py``)
        resolve their patch points through ``vars(owner)``."""
        with FaultPlan(self.PLAN):
            for owner, attribute, _ in FaultPlan.TARGETS:
                assert attribute in vars(owner)
                assert hasattr(vars(owner)[attribute], "__wrapped__")

    def test_every_original_is_restored_on_exit(self):
        originals = [vars(owner)[attribute]
                     for owner, attribute, _ in FaultPlan.TARGETS]
        with FaultPlan(self.PLAN):
            pass
        for (owner, attribute, _), original in zip(FaultPlan.TARGETS,
                                                   originals):
            assert vars(owner)[attribute] is original

    def test_an_exception_inside_the_block_still_restores(self):
        originals = [vars(owner)[attribute]
                     for owner, attribute, _ in FaultPlan.TARGETS]
        with pytest.raises(RuntimeError, match="drill went wrong"):
            with FaultPlan(self.PLAN):
                raise RuntimeError("drill went wrong")
        for (owner, attribute, _), original in zip(FaultPlan.TARGETS,
                                                   originals):
            assert vars(owner)[attribute] is original

    def test_arming_an_armed_plan_raises(self):
        plan = FaultPlan(self.PLAN)
        with plan:
            with pytest.raises(ConfigurationError, match="already armed"):
                plan.__enter__()
        # ... and the failed second arming did not leak a wrapper.
        assert not _wrapped_production_attributes()

    def test_nothing_is_wrapped_when_no_plan_is_armed(self):
        assert not _wrapped_production_attributes()
        with FaultPlan(self.PLAN):
            assert len(_wrapped_production_attributes()) == len(
                FaultPlan.TARGETS)
        assert not _wrapped_production_attributes()
