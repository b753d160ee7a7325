"""Correctness checks, run untimed after every pass.

Each check returns a list of failure messages; every message counts as one
failed op. Expected answers come from the generated inputs, or from brute
force over the stored rows; never from the index or engine under test.
"""

import math

import numpy as np

from repro.errors import CalTrainError

_DISTANCE_RTOL = 1e-4


def brute_top_k(matrix, indices, query, k):
    """Brute-force top-k, ties broken by row order: [(global index, L2)]."""
    distances = np.sqrt(
        ((matrix.astype(np.float64, copy=False) - query) ** 2).sum(axis=1))
    k = min(k, distances.shape[0])
    # Every row at or inside the k-th distance, in row order; a stable sort
    # of just those is the stable sort of all rows, cut at k.
    near = np.flatnonzero(distances <= np.partition(distances, k - 1)[k - 1])
    order = near[np.argsort(distances[near], kind="stable")][:k]
    return [(int(indices[i]), float(distances[i])) for i in order]


def _hits_differ(hits, expected):
    got = [(int(index), float(distance)) for index, distance in hits]
    if [g[0] for g in got] != [e[0] for e in expected]:
        return True
    return not np.allclose([g[1] for g in got], [e[1] for e in expected],
                           rtol=_DISTANCE_RTOL)


def _verifies(what, verify, failures):
    try:
        ok = verify()
    except CalTrainError as exc:
        failures.append(f"{what} failed verification: {exc}")
        return
    if ok is False:
        failures.append(f"{what} failed verification")


def check_lifecycle(world, records_sent, contributors, k):
    failures = []
    committed = sum(r.committed for r in world.receipts)
    quarantined = sum(r.quarantined for r in world.receipts)
    if committed + quarantined != records_sent or quarantined:
        failures.append(f"receipts cover {committed}+{quarantined} of "
                        f"{records_sent} clean records")
    _verifies("contribution ledger", world.ledger.verify, failures)
    _verifies("governance log", world.log.verify, failures)
    _verifies("ingest audit chain", world.validator.verify_audit_chain,
              failures)
    _verifies("serving audit chain", world.engine.verify_audit_chain, failures)
    _verifies("promotion record",
              lambda: world.gate.verify_record(world.record), failures)
    for (fingerprint, label), report in zip(world.queries, world.answers):
        matrix, indices = world.store.by_label(label)
        expected = brute_top_k(np.asarray(matrix), indices, fingerprint, k)
        hits = [(hit["store_index"], hit["distance"]) for hit in report.hits]
        if _hits_differ(hits, expected):
            failures.append(f"attribution for label {label} is not the "
                            "brute-force top-k")
        named = set(report.implicated) | {hit["source"] for hit in report.hits}
        if not named <= contributors:
            failures.append(f"attribution names {sorted(named - contributors)}")
    if len(world.answers) != len(world.queries):
        failures.append("an attribution is missing")
    return failures


def check_ingest_storm(world, sent, hostile):
    failures = list(world.errors)
    committed = sum(r.committed for r in world.receipts)
    quarantined = sum(r.quarantined for r in world.receipts)
    if committed + quarantined != sent:
        failures.append(f"committed {committed} + quarantined {quarantined} "
                        f"!= sent {sent}")
    if quarantined != len(hostile):
        failures.append(f"quarantined {quarantined} != hostile {len(hostile)}")
    # The committed lane holds each record once, and never a forged one:
    # a replayed ciphertext is there only as its earlier, honest commit.
    lane = [(r.source_id, r.index, r.label, r.sealed)
            for r in world.ledger.iter_records()]
    if len(set(lane)) != len(lane):
        failures.append("a record was committed twice")
    forged = {(r.source_id, r.index, r.label, r.sealed)
              for kind, r in hostile if kind != "replayed"}
    if forged & set(lane):
        failures.append("a tampered or relabelled record was committed")
    _verifies("contribution ledger", world.ledger.verify, failures)
    _verifies("ingest audit chain", world.validator.verify_audit_chain,
              failures)
    return failures


def check_train_enclave(world, loss, first_loss):
    failures = []
    if not math.isfinite(loss):
        failures.append(f"final loss is not finite: {loss}")
    if loss != first_loss:  # bitwise: same seed, same arithmetic
        failures.append(f"final loss {loss} differs from the first "
                        f"pass's {first_loss}")
    manager = world.system.checkpoint_manager
    if manager is None or manager.latest() is None:
        failures.append("training left no valid checkpoint")
    return failures


def check_serve_growth(world, workload, k):
    failures = list(world.errors)
    for op, results in world.answers.items():
        if results is None:
            continue
        if any(r is None or r.degraded or len(r.hits) != k for r in results):
            failures.append(f"op {op}: a query was unanswered or degraded")
    # A sample of ops against brute force over each answer's pinned prefix:
    # the first `label_rows` rows of the label in commit order.
    rows_of = {int(label): np.flatnonzero(workload.labels == label)
               for label in np.unique(workload.labels)}
    points_of = {label: workload.fingerprints[rows].astype(np.float64)
                 for label, rows in rows_of.items()}
    for op in workload.oracle_ops:
        results = world.answers.get(op)
        if results is None:
            continue
        queries, labels = workload._op_queries(op)
        wrong = 0
        for query, label, result in zip(queries, labels, results):
            pinned = result.hits.label_rows
            expected = brute_top_k(points_of[label][:pinned],
                                   rows_of[label][:pinned], query, k)
            wrong += _hits_differ(result.hits, expected)
        if wrong:
            failures.append(f"op {op}: {wrong} answers differ from brute "
                            "force over their pinned snapshot")
    cluster = world.cluster
    if cluster.telemetry.counter("evictions"):
        failures.append("a replica was evicted")
    if not all(replica.healthy for replica in cluster.replicas):
        failures.append("a replica is unhealthy")
    _verifies("cluster audit chain", cluster.verify_audit_chain, failures)
    for replica in cluster.replicas:
        _verifies(f"{replica.name} audit chain",
                  replica.engine.verify_audit_chain, failures)
    return failures
