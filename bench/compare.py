"""`python3 -m bench.compare A.jsonl B.jsonl`: did B get worse than A?

A and B are files written by `bench.run --record`. For every (workload,
end-to-end metric) the workload reports, this prints both medians, both
inter-quartile spreads, the change, the bound and a verdict:

  within      B's median is no worse than A's by more than the bound
  regression  it is worse by more than the bound
  unresolved  it is within the bound, but the run-to-run spread is wider
              than the bound and B's runs do not all beat A's
  -           the metric is reported without a bound (`op_tail_ms`)

It also compares failed/attempted ops and says whether the exact counts
still repeat. Exits non-zero on any `regression`.
"""

import json
import statistics
import sys
from collections import defaultdict

from bench.metrics import END_TO_END


def load(path):
    """{workload: [record, ...]} from one --record file."""
    runs = defaultdict(list)
    with open(path) as lines:
        for line in lines:
            if line.strip():
                record = json.loads(line)
                runs[record["workload"]].append(record)
    return runs


def spread(values):
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a, b, better, bound):
    """(share by which B's median is worse than A's, verdict)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = (med_b - med_a) / med_a if better == "lower" else (
        med_a - med_b) / med_a
    if worse > bound:
        return worse, "regression"
    if max(spread(a), spread(b)) > bound:
        b_beats_a = (max(b) < min(a) if better == "lower"
                     else min(b) > max(a))
        if not b_beats_a:
            return worse, "unresolved"
    return worse, "within"


def exact_counts(records):
    """{(seed, count name): values seen} over every pass of every record."""
    seen = defaultdict(set)
    for record in records:
        for p in record["passes"]:
            for name, value in p["counts"].items():
                seen[record["seed"], name].add(value)
    return seen


def compare(runs_a, runs_b):
    verdicts = []
    print(f"{'workload':<14}{'metric':<13}{'median A':>12}{'median B':>12}"
          f"{'iqr A':>8}{'iqr B':>8}{'worse by':>10}{'bound':>7}  verdict")
    for workload in sorted(set(runs_a) & set(runs_b)):
        plain_a = [r for r in runs_a[workload] if not r["trace"]]
        plain_b = [r for r in runs_b[workload] if not r["trace"]]
        if not plain_a or not plain_b:
            continue
        for name, (_, better, bound) in END_TO_END.items():
            if name not in plain_a[0]["metrics"]:
                continue  # one op per pass: no op latency of its own
            a = [r["metrics"][name]["value"] for r in plain_a]
            b = [r["metrics"][name]["value"] for r in plain_b]
            if bound is None:
                worse, result = verdict(a, b, better, float("inf"))[0], "-"
            else:
                worse, result = verdict(a, b, better, bound)
                verdicts.append(result)
            print(f"{workload:<14}{name:<13}{statistics.median(a):>12.4f}"
                  f"{statistics.median(b):>12.4f}{spread(a):>8.1%}"
                  f"{spread(b):>8.1%}{worse:>+10.1%}"
                  f"{'none' if bound is None else format(bound, '.0%'):>7}"
                  f"  {result}")
        for side, records in (("A", runs_a[workload]),
                              ("B", runs_b[workload])):
            failed = sum(r["failed"] for r in records)
            attempted = sum(r["attempted"] for r in records)
            print(f"{workload:<14}ops {side}: {failed} failed of "
                  f"{attempted} attempted in {len(records)} runs")
        if (sum(r["failed"] for r in runs_b[workload])
                > sum(r["failed"] for r in runs_a[workload])):
            verdicts.append("regression")
            print(f"{workload:<14}more ops fail in B: regression")
        counts_a = exact_counts(runs_a[workload])
        counts_b = exact_counts(runs_b[workload])
        moved = sorted({name for seed, name in set(counts_a) & set(counts_b)
                        if len(counts_a[seed, name]
                               | counts_b[seed, name]) != 1})
        names = {name for _, name in counts_a}
        print(f"{workload:<14}exact counts: "
              + (f"DIFFER: {', '.join(moved)}" if moved else
                 f"all {len(names)} repeat in A and B"))
    return verdicts


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    verdicts = compare(load(sys.argv[1]), load(sys.argv[2]))
    summary = {v: verdicts.count(v) for v in ("within", "unresolved",
                                              "regression")}
    print(f"{summary['within']} within, {summary['unresolved']} unresolved, "
          f"{summary['regression']} regression")
    return 1 if summary["regression"] else 0


if __name__ == "__main__":
    sys.exit(main())
