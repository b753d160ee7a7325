"""Ablation A2 — fingerprint layer choice.

The paper fingerprints at the penultimate layer because it "contains the
most important features extracted through all previous layers". This
ablation measures poison-discovery precision when fingerprints instead
come from an earlier layer of the same trojaned model.
"""

import numpy as np
from scipy.spatial.distance import cdist

from repro.core.fingerprint import normalize_fingerprints

K = 9


def _layer_fingerprints(model, x, layer_index, batch=64):
    chunks = []
    for start in range(0, x.shape[0], batch):
        captured = model.forward_collect(x[start : start + batch], [layer_index])
        chunks.append(captured[layer_index].reshape(-1 if False else captured[layer_index].shape[0], -1))
    return normalize_fingerprints(np.concatenate(chunks))


def _precision_at_k(query_fps, pool_fps, pool_is_bad, k=K):
    distances = cdist(query_fps, pool_fps)
    hits = 0
    for row in distances:
        order = np.argsort(row)[:k]
        hits += int(pool_is_bad[order].sum())
    return hits / (len(query_fps) * k)


def test_ablation_fingerprint_layer(trojan_world, benchmark):
    model = trojan_world["model"]
    store = trojan_world["store"]
    trojaned_test = trojan_world["outcome"].trojaned_test

    # Candidate pool: all class-0 linkage records, reconstructed per layer.
    class0_fps, class0_indices = store.by_label(0)
    is_bad = np.array([store.record(i).kind != "normal"
                       for i in class0_indices])

    # Rebuild the class-0 pool inputs from the experiment's datasets so we
    # can fingerprint them at arbitrary layers.
    train0 = trojan_world["train"].of_class(0)
    poisoned = trojan_world["outcome"].poisoned_train
    mislabeled = trojan_world["mislabeled"]
    pool_x = np.concatenate([train0.x, poisoned.x, mislabeled.x])
    pool_bad = np.concatenate([
        np.zeros(len(train0), dtype=bool),
        np.ones(len(poisoned), dtype=bool),
        np.ones(len(mislabeled), dtype=bool),
    ])

    penultimate = model.penultimate_index()
    # Earlier comparison points: the first conv layer and the embedding
    # dense layer (indices depend on the face net topology).
    candidate_layers = [0, penultimate - 1, penultimate]

    print("\nA2 - poison-discovery precision@9 by fingerprint layer")
    precisions = {}
    for layer in candidate_layers:
        query_fps = _layer_fingerprints(model, trojaned_test.x, layer)
        pool_fps = _layer_fingerprints(model, pool_x, layer)
        precision = _precision_at_k(query_fps, pool_fps, pool_bad)
        precisions[layer] = precision
        tag = "penultimate" if layer == penultimate else f"layer {layer}"
        print(f"  {tag:>12}: precision@9 = {precision:.3f}")

    # Claim: the penultimate layer is at least as discriminative as the
    # shallow layer, and achieves high precision in absolute terms.
    assert precisions[penultimate] >= precisions[0] - 0.05
    assert precisions[penultimate] > 0.7

    benchmark.pedantic(
        _layer_fingerprints, args=(model, trojaned_test.x[:8], penultimate),
        rounds=1, iterations=1,
    )
