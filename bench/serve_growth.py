"""`serve_growth`: reads beside writes on one replicated, growing index.

`op_p50_ms`/`op_tail_ms` are read latency on a multi-segment index while
`items_per_s` also pays for append, refresh and compaction, so a gain for
one use that costs the other shows as two metrics moving apart.
"""

import time
from types import SimpleNamespace

import numpy as np

from repro.serving import (ClusterConfig, EngineConfig, LinkageStore,
                           ServingCluster, ShardedAnnIndex)

from bench import inputs, layers, oracles
from bench.sizes import SIZES

SIZE = SIZES["serve_growth"]
_TIMER_OFF_S = 3600.0  # the driver steps sweeps and compaction itself
_DIGEST = b"h" * 32


def _index(store):
    return ShardedAnnIndex(store, shard_threshold=SIZE["shard_threshold"],
                           max_segments=SIZE["max_index_segments"],
                           compaction_interval_s=_TIMER_OFF_S)


class ServeGrowth:
    name = "serve_growth"
    items = SIZE["ops"] * SIZE["queries_per_op"]
    item_unit = "queries"

    def __init__(self, seed):
        generator = inputs.stream(seed, self.name).generator
        centers = generator.standard_normal(
            (SIZE["labels"], SIZE["clusters_per_label"], SIZE["dim"])) * 4.0
        appends = SIZE["ops"] // SIZE["append_every"]
        base, grown = SIZE["records"], appends * SIZE["append_records"]
        self.fingerprints, self.labels = inputs.clustered_fingerprints(
            generator, centers, base + grown)
        step = base // SIZE["store_segments"]
        #: Row ranges of every store segment, in commit order.
        self.base_segments = [(start, start + step)
                              for start in range(0, base, step)]
        self.growth_segments = [
            (start, start + SIZE["append_records"])
            for start in range(base, base + grown, SIZE["append_records"])
        ]
        # Every query is a fresh perturbation of a stored point, so no
        # engine cache ever hits (cache hits are deliberately not measured).
        count = (SIZE["ops"] + 1) * SIZE["queries_per_op"]
        picks = generator.integers(0, base, size=count)
        self.queries = (self.fingerprints[picks] + generator.standard_normal(
            (count, SIZE["dim"])).astype(np.float32) * 0.1)
        self.query_labels = self.labels[picks]
        self.oracle_ops = sorted(generator.choice(
            SIZE["ops"], size=max(1, round(SIZE["ops"] * SIZE["oracle_sample"])),
            replace=False).tolist())

    def _append(self, store, rows):
        start, stop = rows
        store.append(self.fingerprints[start:stop],
                     self.labels[start:stop].tolist(),
                     ["p0"] * (stop - start), [_DIGEST] * (stop - start))

    def _op_queries(self, op):
        rows = slice(op * SIZE["queries_per_op"],
                     (op + 1) * SIZE["queries_per_op"])
        return self.queries[rows], self.query_labels[rows].tolist()

    def build(self, root):
        store = LinkageStore.create(root / "store")
        for rows in self.base_segments:
            self._append(store, rows)
        cluster = ServingCluster(
            store, replicas=SIZE["replicas"],
            config=ClusterConfig(health_interval_s=_TIMER_OFF_S),
            engine_config=EngineConfig(workers=SIZE["engine_workers"]),
            index_factory=_index,
        ).start()
        # Warm-up: the last query block, which no timed op uses.
        cluster.query_many(*self._op_queries(SIZE["ops"]), k=SIZE["k"])
        return SimpleNamespace(store=store, cluster=cluster, answers={},
                               errors=[])

    def run(self, world):
        with layers.client():
            return self._run(world)

    def _run(self, world):
        cluster, store = world.cluster, world.store
        growth = iter(self.growth_segments)
        latencies = []
        sweeps_due = 0
        for op in range(SIZE["ops"]):
            queries, labels = self._op_queries(op)
            started = time.perf_counter()
            try:
                results = cluster.query_many(queries, labels, k=SIZE["k"])
            except Exception as exc:  # noqa: BLE001 - a failed op
                world.errors.append(f"op {op}: {type(exc).__name__}: {exc}")
                results = None
            latencies.append(time.perf_counter() - started)
            world.answers[op] = results
            if sweeps_due:
                # refresh_stagger=1 adopts one replica per sweep, so the op
                # between the two sweeps is answered from a pinned snapshot.
                cluster.health_check_now()
                sweeps_due -= 1
                if not sweeps_due:
                    for replica in cluster.replicas:
                        replica.index.compact_now()
            elif (op + 1) % SIZE["append_every"] == 0:
                self._append(store, next(growth))
                sweeps_due = 2
        return latencies

    def check(self, world):
        return oracles.check_serve_growth(world, self, SIZE["k"])

    def counts(self, world):
        indexes = [replica.index for replica in world.cluster.replicas]
        return {
            "serving.store.segments": world.store.segment_count,
            "serving.index.segments":
                sum(index.stats()["segments"] for index in indexes),
            "serving.index.full_builds":
                sum(index.full_builds for index in indexes),
            "serving.cluster.refreshes":
                world.cluster.telemetry.counter("replica_refreshes"),
            "serving.cluster.evictions":
                world.cluster.telemetry.counter("evictions"),
        }

    def close(self, world):
        world.cluster.stop()
