"""Fig. 8 — nearest-neighbour accountability queries for mispredictions.

Paper claim: querying the linkage store with a trojaned test input's
fingerprint returns closest training neighbours that are dominated by the
poisoned (and mislabeled) training data responsible for the misprediction;
their sources identify the malicious participant; hash digests verify the
disclosed instances. A trojaned image of the target person himself instead
matches his normal training data (the A.J.Buckley case).

The bench regenerates the neighbour tables for representative trojaned
test inputs, prints them with L2 distances, and asserts precision of the
poison/mislabel discovery plus the source attribution.
"""

import numpy as np

from repro.analysis.metrics import precision_recall_f1
from repro.analysis.reporting import render_neighbor_table
from repro.core.query import exact_top_k

K = 9  # the paper displays the nine closest neighbours


def test_fig8(trojan_world, benchmark):
    store = trojan_world["store"]
    fingerprinter = trojan_world["fingerprinter"]
    trojaned_test = trojan_world["outcome"].trojaned_test

    # Query every trojaned test input (all mispredicted into class 0).
    labels, _, fingerprints = fingerprinter.predict_with_fingerprint(
        trojaned_test.x
    )
    assert np.mean(labels == 0) > 0.8  # the backdoor fires

    # One full scan of each query's class rows in the store.
    neighbor_lists = []
    for fingerprint, label in zip(fingerprints, labels):
        matrix, indices = store.by_label(int(label))
        positions, distances = exact_top_k(fingerprint[None, :], matrix, K)
        neighbor_lists.append([
            {"index": indices[p], "distance": float(d),
             "record": store.record(indices[p])}
            for p, d in zip(positions[0], distances[0])
        ])

    tables = []
    for qi in range(min(3, len(neighbor_lists))):
        tables.append({
            "name": f"trojaned test input #{qi} (classified as class 0)",
            "neighbors": [
                {"distance": n["distance"], "source": n["record"].source,
                 "kind": n["record"].kind}
                for n in neighbor_lists[qi]
            ],
        })
    print("\nFig. 8 - Closest training neighbours per misprediction")
    print(render_neighbor_table(tables))

    # Shape claim 1: among all returned neighbours, bad training data
    # (poisoned or mislabeled) dominate.
    all_neighbors = [n for lst in neighbor_lists for n in lst]
    bad = [n for n in all_neighbors if n["record"].kind != "normal"]
    bad_fraction = len(bad) / len(all_neighbors)
    print(f"  bad-data fraction among neighbours: {bad_fraction:.2%}")
    assert bad_fraction > 0.7

    # Shape claim 2: discovery metrics over the class-0 candidate pool.
    flagged = {n["index"] for n in all_neighbors}
    class0_fps, class0_indices = store.by_label(0)
    predicted = np.array([i in flagged for i in class0_indices])
    actual = np.array([store.record(i).kind != "normal"
                       for i in class0_indices])
    metrics = precision_recall_f1(predicted, actual)
    print(f"  poison discovery: precision={metrics['precision']:.2f} "
          f"recall={metrics['recall']:.2f} f1={metrics['f1']:.2f}")
    assert metrics["precision"] > 0.7

    # Shape claim 3: the malicious participant is the top attributed source.
    source_counts = {}
    for n in all_neighbors:
        source = n["record"].source
        source_counts[source] = source_counts.get(source, 0) + 1
    top_source = max(source_counts, key=source_counts.get)
    print(f"  source attribution: {source_counts}")
    assert top_source == "attacker"

    # Shape claim 4 (the A.J.Buckley case): a trojaned image of the target
    # identity itself remains close to that identity's *normal* training
    # data, unlike trojaned images of other identities. (At paper scale his
    # normal images are the literal top-9; with this compact embedding the
    # effect shows as a strong relative affinity — see EXPERIMENTS.md.)
    from scipy.spatial.distance import cdist

    from repro.attacks.trojan import stamp_trigger

    outcome = trojan_world["outcome"]
    normal0 = trojan_world["train"].of_class(0)
    f_normal0 = fingerprinter.fingerprint(normal0.x)
    target_faces = trojan_world["test"].of_class(0)
    other_faces = trojan_world["test"].subset(
        np.flatnonzero(trojan_world["test"].y != 0)
    )
    f_target = fingerprinter.fingerprint(
        stamp_trigger(target_faces.x, outcome.trigger, outcome.mask)
    )
    f_other = fingerprinter.fingerprint(
        stamp_trigger(other_faces.x, outcome.trigger, outcome.mask)
    )
    target_to_normal = cdist(f_target, f_normal0).min(axis=1).mean()
    other_to_normal = cdist(f_other, f_normal0).min(axis=1).mean()
    print(f"  A.J.Buckley case: target-stamped -> normal class-0 distance "
          f"{target_to_normal:.3f} vs other-stamped {other_to_normal:.3f}")
    assert target_to_normal < 0.6 * other_to_normal

    # Shape claim 5: every returned record carries a digest H, and the
    # store that serves it still verifies against its segment digests
    # (disclosure against H is exercised in the governance and
    # integration tests).
    assert all(len(n["record"].digest) == 32 for n in all_neighbors)
    assert store.verify()

    # Benchmark kernel: one fingerprint query against its whole class.
    benchmark(exact_top_k, fingerprints[:1], class0_fps, K)
