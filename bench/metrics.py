"""The end-to-end metrics: names, units, directions and bounds."""

#: name -> (unit, better, bound). The bound is the share of the earlier
#: median by which the later one may be worse before `bench.compare` says
#: regression. `op_tail_ms` has none: two sets of runs of one commit could
#: not hold it to half a bound (7.7 % apart on `ingest_storm`, spread
#: between runs 6-24 % on both workloads), so it is reported and recorded,
#: not bounded.
END_TO_END = {
    "setup_s": ("s", "lower", 0.10),
    "items_per_s": ("1/s", "higher", 0.10),
    "op_p50_ms": ("ms", "lower", 0.10),
    "op_tail_ms": ("ms", "lower", None),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

#: Reported only by workloads whose pass holds many ops (`ingest_storm`,
#: `serve_growth`): where the pass is one op, its latency would repeat
#: `items_per_s`. The other three are the ones every run prints on its last
#: line and BENCHMARK.json bounds.
OP_METRICS = ("op_p50_ms", "op_tail_ms")
