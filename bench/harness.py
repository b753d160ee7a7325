"""The pass loop: fresh world, timed pass, oracle check, repeat; then medians.

Every pass of every workload starts from a world built untimed from the
same inputs (a growing store is not stationary), and that build time is the
pass's set-up sample. The CPU of the reference host flips between speed
modes for seconds at a time and drifts over minutes, so a run is a fixed
number of short identical passes, every pass's times are corrected to the
reference host's speed (bench/hostspeed.py), and every reported time is a
median over the passes.
"""

import gc
import resource
import shutil
import statistics
import time

import numpy as np

from bench import hostspeed, layers
from bench.metrics import END_TO_END, OP_METRICS
from bench.sizes import RUN_SECONDS, SIZES

_TAIL_SUPPORT = 10  # samples that must lie beyond the reported percentile


def pass_count(name, seconds, trace):
    """Passes in one run: the table's count, scaled by the run length asked
    for. A traced run alternates untraced and traced passes, so it needs an
    even number and at least one of each."""
    count = max(1, round(SIZES[name]["passes"] * seconds / RUN_SECONDS))
    if trace:
        count = max(2, count + count % 2)
    return count


def one_pass(workload, root, traced):
    """Build a fresh world, run one timed pass over it, check it, drop it.

    Times are corrected to the reference host's speed (bench/hostspeed.py);
    `host` keeps the three loop samples and `raw` the seconds as measured.
    """
    root.mkdir(parents=True)
    recorder = layers.install() if traced else None
    world = None
    gc.collect()
    gc.disable()
    try:
        before = hostspeed.loop()
        started = time.perf_counter()
        world = workload.build(root)
        setup_s = time.perf_counter() - started
        between = hostspeed.loop()
        started = time.perf_counter()
        ops = workload.run(world)
        pass_s = time.perf_counter() - started
        after = hostspeed.loop()
        failures = workload.check(world)
        counts = workload.counts(world)
    finally:
        gc.enable()
        if world is not None:
            workload.close(world)
        if traced:
            layers.uninstall()
        shutil.rmtree(root, ignore_errors=True)
    setup_speed = hostspeed.speed(before, between)
    pass_speed = hostspeed.speed(between, after)
    result = {"traced": traced, "setup_s": setup_s * setup_speed,
              "pass_s": pass_s * pass_speed,
              "ops_s": [op * pass_speed for op in ops],
              "host_speed": pass_speed,
              "host": [before, between, after],
              "raw": {"setup_s": setup_s, "pass_s": pass_s},
              "failures": failures, "counts": counts}
    if traced:
        counts["ingest.fsync.calls"] = recorder.ingest_fsyncs
        busy, result["calls"], result["coverage"] = layers.summarize(recorder)
        result["busy_s"] = {name: value * pass_speed
                            for name, value in busy.items()}
        result["recorder"] = recorder
    return result


def measure(workload, count, trace, scratch):
    """Run exactly `count` passes; with `trace`, every second one is traced."""
    return [one_pass(workload, scratch / f"pass-{i}", trace and i % 2 == 1)
            for i in range(count)]


def _tail(plain):
    """`op_tail_ms` in seconds, with the percentile and scope it used.

    The highest of p99/p95/p90 that has >= 10 samples beyond it: per pass
    (then the median over passes) where one pass alone supplies them,
    otherwise over the run's pooled ops.
    """
    per_pass = len(plain[0]["ops_s"])
    for scope, samples in (("pass", per_pass), ("run", per_pass * len(plain))):
        for q in (99, 95, 90):
            if samples * (100 - q) >= _TAIL_SUPPORT * 100:
                if scope == "pass":
                    value = statistics.median(
                        float(np.percentile(p["ops_s"], q)) for p in plain)
                else:
                    value = float(np.percentile(
                        [op for p in plain for op in p["ops_s"]], q))
                return value, {"tail_percentile": q, "tail_scope": scope,
                               "tail_samples": samples}
    return None, {"tail_percentile": None, "tail_scope": None,
                  "tail_samples": per_pass * len(plain)}


def end_to_end(workload, passes):
    """The end-to-end metrics, from the untraced passes only."""
    plain = [p for p in passes if not p["traced"]]
    pass_s = statistics.median(p["pass_s"] for p in plain)
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "items_per_s": workload.items / pass_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"passes": len(plain), "pass_s": pass_s,
              "timed_wall_s": sum(p["raw"]["pass_s"] for p in passes),
              "ops_per_pass": len(plain[0]["ops_s"])}
    if plain[0]["ops_s"]:
        values["op_p50_ms"] = 1e3 * statistics.median(
            statistics.median(p["ops_s"]) for p in plain)
        tail_s, tail_detail = _tail(plain)
        detail.update(tail_detail)
        if tail_s is not None:
            values["op_tail_ms"] = 1e3 * tail_s
    metrics = {name: {"value": values[name], "unit": END_TO_END[name][0]}
               for name in END_TO_END if name in values}
    return metrics, detail


def per_layer(passes, end_to_end_metrics, inputs_s):
    """Per-layer metrics from the traced passes."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in layers.SPAN_NAMES:
        put(f"{name}.busy_s",
            statistics.median(p["busy_s"][name] for p in traced), "s")
        put(f"{name}.calls",
            int(statistics.median(p["calls"][name] for p in traced)), "count")
    for name in layers.COUNT_NAMES:
        put(name, traced[0]["counts"].get(name, 0), "count")
    # Neighbouring passes share the host's speed mode, so the overhead is
    # the median ratio of each traced pass to the untraced one before it.
    put("bench.trace_overhead",
        statistics.median(t["pass_s"] / u["pass_s"]
                          for u, t in zip(plain, traced)), "ratio")
    put("bench.trace_coverage",
        statistics.median(p["coverage"] for p in traced), "ratio")
    put("bench.inputs_s", inputs_s, "s")
    put("bench.host_speed",
        statistics.median(p["host_speed"] for p in passes), "ratio")
    # Caller-side op latency of this run's untraced passes; 0 for a
    # workload whose pass is one op.
    for name in OP_METRICS:
        put(name, end_to_end_metrics.get(name, {"value": 0.0})["value"],
            END_TO_END[name][0])
    return metrics


def unrepeated_counts(passes):
    """Names of exact counts that differ between passes of this run."""
    names = set()
    for p in passes[1:]:
        for name, value in p["counts"].items():
            if passes[0]["counts"].get(name, value) != value:
                names.add(name)
    traced = [p for p in passes if p["traced"]]
    for p in traced[1:]:
        names.update(f"{name}.calls" for name, calls in p["calls"].items()
                     if calls != traced[0]["calls"][name])
    return sorted(names)
