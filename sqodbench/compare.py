#!/usr/bin/env python3
"""Compares two sqod benchmark result sets written by `run.py --all --out`.

    python3 sqodbench/compare.py BASE.json NEW.json

* Deterministic per-layer counters (traced runs) must be identical for every
  (workload, seed) present in both sets.
* Each end-to-end metric is compared per workload: the median over NEW's
  runs may be worse than BASE's median by at most the metric's bound in
  BENCHMARK.json. When either side's run-to-run spread (interquartile range
  over median, as statistics.quantiles gives it) is wider than the bound,
  the metric is reported as unresolved, unless every NEW run is better than
  every BASE run.
* Per-layer timings are printed for reference; they have no bound.

Exits 1 on a counter mismatch or a regression, 0 otherwise.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Per-layer metrics that count work rather than time it: the same code on
# the same seed must reproduce them exactly.
DETERMINISTIC = (
    "eval.iterations", "eval.derived", "eval.duplicates", "eval.probes",
    "eval.bytecode_ops", "eval.answer_frac",
    "maintain.idb_changed", "maintain.over_deleted", "maintain.rescued_frac",
    "maintain.count_updates", "maintain.recompute_frac",
    "sqo.adorned_rules", "sqo.tree_classes", "sqo.rules_out",
    "sqo.intern_hit_frac", "engine.prepare_hit_frac",
    "proto.reply_bytes", "proto.bytes_per_answer",
)


def load(path):
    with open(path) as f:
        return json.load(f)["runs"]


def by_key(runs, trace):
    out = {}
    for run in runs:
        if run["trace"] == trace and run["result"] is not None:
            out[(run["workload"], run["seed"])] = run["result"]["metrics"]
    return out


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def compare_counters(base, new):
    mismatches = 0
    base_t, new_t = by_key(base, 1), by_key(new, 1)
    for key in sorted(set(base_t) & set(new_t)):
        for name in DETERMINISTIC:
            a = base_t[key].get(name, {}).get("value")
            b = new_t[key].get(name, {}).get("value")
            if a != b:
                mismatches += 1
                print("COUNTER MISMATCH %s seed %s %s: %r -> %r" %
                      (key[0], key[1], name, a, b))
    return mismatches


def compare_end_to_end(base, new, spec):
    regressions = 0
    base_u, new_u = by_key(base, 0), by_key(new, 0)
    workloads = sorted({w for w, _ in base_u} & {w for w, _ in new_u})
    print("%-8s %-14s %12s %12s %8s %7s %7s  %s" %
          ("workload", "metric", "base", "new", "worse", "sprd_b",
           "sprd_n", "verdict"))
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            a = [m[name]["value"] for (w, _), m in base_u.items()
                 if w == workload and name in m]
            b = [m[name]["value"] for (w, _), m in new_u.items()
                 if w == workload and name in m]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            worse = ((mb - ma) if lower else (ma - mb)) / ma if ma else 0.0
            sa, sb = spread(a), spread(b)
            all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
            if (sa > bound or sb > bound) and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            print("%-8s %-14s %12.5g %12.5g %+7.1f%% %7.3f %7.3f  %s"
                  " (bound %g)" % (workload, name, ma, mb, 100 * worse, sa,
                                   sb, verdict, bound))
    return regressions


def print_layer_timings(base, new):
    base_t, new_t = by_key(base, 1), by_key(new, 1)
    names = sorted({n for m in base_t.values() for n in m} - set(DETERMINISTIC))
    for workload in sorted({w for w, _ in base_t}):
        for name in names:
            a = [m[name]["value"] for (w, _), m in base_t.items()
                 if w == workload and name in m]
            b = [m[name]["value"] for (w, _), m in new_t.items()
                 if w == workload and name in m]
            if a and b:
                print("  %-8s %-26s %12.5g -> %12.5g" %
                      (workload, name, statistics.median(a),
                       statistics.median(b)))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    mismatches = compare_counters(base, new)
    regressions = compare_end_to_end(base, new, spec)
    print("per-layer timings (median, no bound):")
    print_layer_timings(base, new)
    print("%d counter mismatches, %d regressions" % (mismatches, regressions))
    return 1 if mismatches or regressions else 0


if __name__ == "__main__":
    sys.exit(main())
