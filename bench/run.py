"""`python3 -m bench.run --workload <name|all> --seed <n>`: the one command.

Prints every metric as `workload metric value unit`, checks every pass
against the oracles, and ends with one JSON object on the last line of
standard output. Exits non-zero when a check failed.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench.metrics import OP_METRICS
from bench.sizes import RUN_SECONDS

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("lifecycle", "ingest_storm", "train_enclave", "serve_growth")
RESULTS = ROOT / "bench" / "results"
_SCRATCH = ROOT / ".bench_scratch"
_CLEAN = "BENCH_CLEAN_PROCESS"

#: What the host-noise measurements forced (see README): big numpy buffers
#: stay on the heap instead of being mapped and unmapped per call, no
#: library spawns threads beside the pinned one, hash order is fixed.
_ENVIRONMENT = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(256 << 20),
    "NUMPY_MADVISE_HUGEPAGE": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    _CLEAN: "1",
}


def _clean_process():
    """Re-exec once under the benchmark's environment, then pin to one CPU."""
    if os.environ.get(_CLEAN) != "1":
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(_ENVIRONMENT)
        os.execve(sys.executable, [sys.executable] + sys.orig_argv[1:], env)
    # One CPU: unpinned, client and engine threads bounce between the vCPUs
    # and the same queries take a third longer. A change that adds real
    # parallelism lifts the pin in its own benchmark issue.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _workload(name, seed):
    from bench.ingest_storm import IngestStorm
    from bench.lifecycle import Lifecycle
    from bench.serve_growth import ServeGrowth
    from bench.train_enclave import TrainEnclave
    classes = {"lifecycle": Lifecycle, "ingest_storm": IngestStorm,
               "train_enclave": TrainEnclave, "serve_growth": ServeGrowth}
    return classes[name](seed)


def _filesystem(path):
    """Filesystem type holding `path` (fsync cost depends on it)."""
    best = ("", "unknown")
    with open("/proc/mounts") as mounts:
        for line in mounts:
            _, mount, fstype = line.split()[:3]
            if str(path).startswith(mount) and len(mount) > len(best[0]):
                best = (mount, fstype)
    return best[1]


def _commit():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _write_trace(name, passes):
    from bench import layers
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"trace-{name}.jsonl", "w") as out:
        for pass_id, p in enumerate(passes):
            if p["traced"]:
                for row in layers.span_rows(p["recorder"], name, pass_id):
                    out.write(json.dumps(row) + "\n")


def run_one(args):
    import numpy

    from bench import harness, layers
    from bench.sizes import SIZES

    layers.count_fsyncs_only()
    started = time.perf_counter()
    workload = _workload(args.workload, args.seed)
    inputs_s = time.perf_counter() - started
    scratch = _SCRATCH / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        filesystem = _filesystem(scratch)
        passes = harness.measure(
            workload,
            harness.pass_count(args.workload, args.seconds, args.trace),
            bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if _SCRATCH.exists() and not any(_SCRATCH.iterdir()):
            _SCRATCH.rmdir()

    metrics, detail = harness.end_to_end(workload, passes)
    failures = [f for p in passes for f in p["failures"]]
    failures += [f"exact count {name} does not repeat across passes"
                 for name in harness.unrepeated_counts(passes)]
    if args.trace:
        layer_metrics = harness.per_layer(passes, metrics, inputs_s)
        _write_trace(args.workload, passes)
    else:
        layer_metrics = {
            "bench.inputs_s": {"value": inputs_s, "unit": "s"},
            "bench.host_speed": {"value": statistics.median(
                p["host_speed"] for p in passes), "unit": "ratio"}}
    # A pass that returns no op latencies is itself the one op.
    attempted = sum(len(p["ops_s"]) or 1 for p in passes)

    for name, metric in {**metrics, **layer_metrics}.items():
        print(f"{args.workload} {name} {metric['value']!r} {metric['unit']}")
    print(f"{args.workload} ops_attempted {attempted} count")
    print(f"{args.workload} ops_failed {len(failures)} count")
    for failure in failures[:20]:
        print(f"{args.workload} FAILED {failure}", file=sys.stderr)

    if args.record:
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "commit": _commit(),
            "host": {"cpus": os.cpu_count(),
                     "pinned_cpu": sorted(os.sched_getaffinity(0)),
                     "python": platform.python_version(),
                     "numpy": numpy.__version__,
                     "scratch_filesystem": filesystem},
            "sizes": SIZES[args.workload], "detail": detail,
            "item_unit": workload.item_unit,
            "passes": [{"traced": p["traced"], "setup_s": p["setup_s"],
                        "pass_s": p["pass_s"], "counts": p["counts"],
                        "raw": p["raw"], "host": p["host"],
                        "host_speed": p["host_speed"],
                        "ops_s": [round(op, 7) for op in p["ops_s"]]}
                       for p in passes],
            "metrics": {**metrics, **layer_metrics},
            "attempted": attempted, "failed": len(failures),
            "failures": failures[:20],
        }
        with open(args.record, "a") as out:
            out.write(json.dumps(record) + "\n")

    # The last line: with --trace 0 the metrics every workload has (the
    # ones BENCHMARK.json bounds), with --trace 1 the per-layer ones.
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": layer_metrics if args.trace else {
            name: metric for name, metric in metrics.items()
            if name not in OP_METRICS},
    }))
    return 1 if failures else 0


def run_all(args):
    """Each workload in its own process, one after the other."""
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, "-m", "bench.run", "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.record:
            command += ["--record", args.record]
        status = max(status, subprocess.run(command, cwd=ROOT).returncode)
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="run length: scales the fixed pass counts of "
                             "bench/sizes.py, tuned to %(default)s s")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--record", metavar="FILE",
                        help="append one JSON line per run to FILE")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit("bench: src/repro is missing; the benchmark drives the "
                 "program from source")
    if args.record:
        args.record = str(Path(args.record).resolve())
    if args.workload == "all":
        return run_all(args)
    _clean_process()
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
