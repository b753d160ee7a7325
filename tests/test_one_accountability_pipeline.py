"""One linkage store, one query path, one accountability pipeline.

The fingerprint stage's Omega tuples live only in ``LinkageStore``,
``exact_top_k`` over its rows is the one full-scan ranking, and
``governance.Attributor`` is the one class that ranks contributors and
has them disclose what they trained on. The in-memory second pipeline
(database, query service, investigator, Merkle commitment) must not grow
back under any name it used to have. Nor may a second way to answer a
query: serving is exact, so an answer is checked with ``==`` and there
is no approximate mode, recall floor or distance tolerance. Nor a second
numerics: the nn layers run one set of kernels, with no backend registry,
selection call or threaded GEMM. Nor a second multi-enclave trainer or
aggregation path: ``CalTrain.train(workers=N)`` is the one, and its secure
sum is ``aggregate_with_dropouts``. Nor API that only the tests reached:
the extra optimizers, learning-rate schedules, early stopping and the
helpers deleted with them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks", "examples")
#: Names of the removed second pipeline, of the approximate search mode
#: and the verifier's tolerance, of options that never varied, of the
#: nn backend selection and threading, of the learning-hub trainer and
#: the dropout-blind secure sum, and of the definitions only tests reached.
GONE = {
    "LinkageDatabase", "QueryService", "Neighbor", "Investigator",
    "InvestigationResult", "MerkleTree", "to_database", "query_service",
    "investigator", "linkage_db", "RECALL_FLOOR", "VERIFY_TOLERANCE",
    "fingerprint_at", "auto_refresh", "refresh_stagger",
    "set_backend", "set_default_backend", "default_backend",
    "resolve_backend", "available_backends", "get_backend", "backend_name",
    "ComputeBackend", "_env_threads", "_row_chunks",
    "LearningHub", "HubAggregator", "HubRound", "run_secure_aggregation",
    "Adam", "DpSgd", "Schedule", "ConstantSchedule", "StepSchedule",
    "PolySchedule", "CosineSchedule", "he_init", "xavier_init", "save_model",
    "load_model", "softmax_cross_entropy", "ShadowModelAttack", "ManualClock",
    "random_nonce", "render_confusion_matrix", "pack_records",
}
#: Removed parameter / attribute names, matched only where they name a
#: parameter, keyword argument, attribute or class field.
GONE_ARGUMENTS = {"probes", "early_stop_patience", "lr_schedule",
                  "best_weights", "best_top1", "stale_epochs", "stop_training"}


def _modules():
    modules = sorted(p for tree in TREES for p in (ROOT / tree).rglob("*.py"))
    assert modules, f"no modules found under {ROOT}"
    return modules


def _names(node):
    """Identifiers ``node`` defines, imports or references."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                         ast.AsyncFunctionDef)):
        yield node.name
    elif isinstance(node, ast.alias):
        yield node.name.rsplit(".", 1)[-1]
        if node.asname:
            yield node.asname
    elif isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.arg):
        yield node.arg


def _argument_names(node):
    """Parameter, keyword, attribute and class-field names ``node`` binds
    or reads."""
    if isinstance(node, ast.arg):
        yield node.arg
    elif isinstance(node, ast.keyword) and node.arg:
        yield node.arg
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                        ast.Name):
        yield node.target.id


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_second_pipeline_name():
    hits = sorted({
        f"{path.relative_to(ROOT)}:{getattr(node, 'lineno', '?')}: {name}"
        for path in _modules()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in _names(node) if name in GONE
    })
    assert not hits, hits


def test_no_probing_mode_argument():
    hits = sorted({
        f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
        for path in _modules()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in _argument_names(node) if name in GONE_ARGUMENTS
    })
    assert not hits, hits


def test_core_does_not_import_the_participant():
    core = sorted((ROOT / "src" / "repro" / "core").rglob("*.py"))
    assert core
    offenders = [
        str(path.relative_to(ROOT)) for path in core
        if any(module.startswith("repro.federation.participant")
               for module in _imported_modules(ast.parse(path.read_text())))
    ]
    assert not offenders, offenders
