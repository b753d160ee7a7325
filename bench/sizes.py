"""Every size the benchmark uses, in one table recorded in every result.

`passes` is the fixed number of identical passes in one run, tuned once on
the 2-vCPU reference host so that a run lasts about `RUN_SECONDS`; it is
never derived from a clock, so two runs of one commit have the same sample
sizes. Tune `passes` only, and only to hit the run length.
"""

IMAGE_SHAPE = (28, 28, 3)
NUM_CLASSES = 10
#: The system's own seed is fixed; `--seed` changes only generated inputs.
SYSTEM_SEED = 7
#: The run length the `passes` below were tuned to (`run_seconds` in
#: BENCHMARK.json). `--seconds N` scales every `passes` by N / RUN_SECONDS.
RUN_SECONDS = 30

SIZES = {
    "lifecycle": {
        # 3 contributors x 160 sealed records -> ... -> first verified answer.
        "passes": 22,
        "contributors": 3,
        "records_per_contributor": 160,
        "chunk_records": 32,
        "architecture": "cifar10-10layer",
        "width_scale": 0.12,
        "partition": 2,
        "backend": "optimized",
        "epochs": 1,
        "batch_size": 32,
        "shard_threshold": 1024,
        "engine_workers": 1,
        "k": 9,
    },
    "ingest_storm": {
        "passes": 48,
        "contributors": 2,            # one concurrent session each
        "records_per_contributor": 896,
        "chunk_records": 128,
        "hostile_every": 32,          # 1 record in 32 is hostile
        "seed_records": 32,           # committed untimed; the replay source
        "validator_workers": 2,
        "validator_batch_records": 128,
    },
    "train_enclave": {
        "passes": 32,
        "contributors": 2,
        "records_per_contributor": 256,
        "architecture": "cifar10-10layer",
        "width_scale": 0.12,
        "partition": 2,
        "backend": "optimized",
        "epochs": 1,
        "batch_size": 32,
    },
    "serve_growth": {
        "passes": 11,
        "records": 40_000,
        "dim": 32,
        "labels": 8,
        "clusters_per_label": 16,
        "store_segments": 5,
        "replicas": 2,
        "engine_workers": 1,
        "ops": 100,
        "queries_per_op": 64,
        "k": 9,
        "append_every": 12,           # ops between appends
        "append_records": 512,
        "max_index_segments": 4,      # so compaction has work every pass
        "shard_threshold": 2048,
        "oracle_sample": 0.05,
    },
}
