"""`python3 -m bench.selftest`: does the benchmark repeat on this checkout?

Runs every workload as two interleaved sets (A, B, A, B ...) of the same
code and feeds them to `bench.compare`: every pair must come out `within`
with set medians no further apart than half the bound. Then one traced run
per workload checks the per-layer contract, and a one-second run per workload
on a second seed shows the oracles hold off the tuning seed. Takes about 25
minutes; its output is pasted into bench/README.md.
"""

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench import compare
from bench.metrics import END_TO_END, OP_METRICS
from bench.run import ROOT, WORKLOADS
from bench.sizes import RUN_SECONDS

_RUNS = 5                  # per set and workload
_SEED = 1
_OTHER_SEED = 20260930
_MAX_TRACE_OVERHEAD = 1.10
_MIN_TRACE_COVERAGE = 0.95


def _run(workload, seed, seconds, record, trace=0):
    command = [sys.executable, "-m", "bench.run", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--record", str(record)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode:
        print(done.stderr, file=sys.stderr)
        print(f"selftest: {workload} seed {seed} exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def _spec_problems(spec):
    """BENCHMARK.json must say what bench/ does."""
    declared = {m["name"]: (m["unit"], m["better"], m["bound"])
                for m in spec["end_to_end"]}
    printed = {name: END_TO_END[name] for name in END_TO_END
               if name not in OP_METRICS}
    problems = []
    if declared != printed:
        problems.append("BENCHMARK.json end_to_end disagrees with "
                        "bench/metrics.py")
    if spec["run_seconds"] != RUN_SECONDS:
        problems.append("BENCHMARK.json run_seconds disagrees with "
                        "bench/sizes.py")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads disagree with bench/run.py")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = _spec_problems(spec)
    out = Path(tempfile.mkdtemp(prefix="selftest-",
                                dir=ROOT / "bench" / "results"))
    set_a, set_b = out / "set-a.jsonl", out / "set-b.jsonl"

    for workload in WORKLOADS:
        for _ in range(_RUNS):
            for record in (set_a, set_b):
                result = _run(workload, _SEED, RUN_SECONDS, record)
                if not result["correct"]:
                    problems.append(f"{workload}: a run failed its oracles")
                if set(result["metrics"]) != set(END_TO_END) - set(OP_METRICS):
                    problems.append(f"{workload}: the last line's metrics "
                                    "disagree with BENCHMARK.json")
    print(f"== two interleaved sets of {_RUNS} runs, seed {_SEED}, "
          f"{RUN_SECONDS} s each ==")
    runs_a, runs_b = compare.load(set_a), compare.load(set_b)
    verdicts = compare.compare(runs_a, runs_b)
    problems += [f"{verdicts.count(v)} pairs are {v}"
                 for v in ("regression", "unresolved") if v in verdicts]
    for workload in WORKLOADS:
        for name, (_, _, bound) in END_TO_END.items():
            if bound is None or name not in runs_a[workload][0]["metrics"]:
                continue
            med_a, med_b = (statistics.median(
                r["metrics"][name]["value"] for r in runs[workload])
                for runs in (runs_a, runs_b))
            apart = abs(med_b - med_a) / med_a
            if apart > bound / 2:
                problems.append(f"{workload} {name}: set medians {apart:.1%} "
                                "apart, more than half the bound")
        timed = [r["detail"]["timed_wall_s"] for r in runs_a[workload]]
        print(f"{workload:<14}timed passes take {statistics.median(timed):.1f}"
              " s of a run, as measured (median of set A)")

    print("\n== traced runs: per-layer contract ==")
    expected = {m["name"] for m in spec["per_layer"]}
    for workload in WORKLOADS:
        result = _run(workload, _SEED, RUN_SECONDS, out / "traced.jsonl",
                      trace=1)
        metrics = result["metrics"]
        overhead = metrics["bench.trace_overhead"]["value"]
        coverage = metrics["bench.trace_coverage"]["value"]
        busy = sum(1 for name, m in metrics.items()
                   if name.endswith(".busy_s") and m["value"] > 0)
        print(f"{workload:<14}trace_overhead {overhead:.3f}  "
              f"trace_coverage {coverage:.3f}  layers busy {busy}  "
              f"correct {result['correct']}")
        if set(metrics) != expected:
            problems.append(f"{workload}: per-layer metrics "
                            f"{sorted(set(metrics) ^ expected)} disagree "
                            "with BENCHMARK.json")
        if overhead > _MAX_TRACE_OVERHEAD:
            problems.append(f"{workload}: trace overhead {overhead:.3f}")
        if coverage < _MIN_TRACE_COVERAGE:
            problems.append(f"{workload}: spans cover {coverage:.3f} of the "
                            "client loop")
        if not result["correct"]:
            problems.append(f"{workload}: the traced run failed its checks")

    print(f"\n== oracles on a second seed ({_OTHER_SEED}), --seconds 1 ==")
    for workload in WORKLOADS:
        result = _run(workload, _OTHER_SEED, 1, out / "other-seed.jsonl")
        print(f"{workload:<14}attempted {result['attempted']}  "
              f"failed {result['failed']}  correct {result['correct']}")
        if not result["correct"]:
            problems.append(f"{workload}: oracles fail on seed {_OTHER_SEED}")

    print("\nselftest: " + ("PASS" if not problems else "FAIL"))
    for problem in problems:
        print(f"  {problem}")
    print(f"records kept in {out.relative_to(ROOT)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
