#!/usr/bin/env python3
"""Compare two sets of benchmark results, or check one set for steadiness.

    python3 perfbench/compare.py OLD NEW     # verdict per metric x workload
    python3 perfbench/compare.py RUNS        # spread of one set vs its bounds

Each argument is a directory of result records (the `results/` directory
a run writes, by default .bench_build/perfbench/results) or a list of
record files joined by commas. Only untraced records (`trace` 0) count.

For every end-to-end metric x workload the report prints each set's
median and quartiles (statistics.quantiles, n=4) and a verdict against
the metric's bound (BENCHMARK.json for the gated metrics, BOUNDS below
for the rest):

  better      the median improved by more than the bound and more than
              OLD's spread; or, when a spread is wider than the bound,
              every NEW run beats every OLD run
  worse       the median got worse by more than the bound; or, when a
              spread is wider than the bound, every NEW run is worse
              than every OLD run
  within      the median got no worse than the bound allows
  unresolved  a set's spread (quartile distance / median) is wider than
              the bound and the runs overlap

With one set, each spread is shown beside a third of its bound, the
steadiness target; setup_s is exempt from the spread limit.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Workload-specific end-to-end metrics that BENCHMARK.json does not gate:
# direction and bound (share of the OLD median). Their bound is that of
# the gated latencies; failures have none.
BOUND = 0.25
BOUNDS = {
    "ingest_mlines_per_s": ("higher", BOUND),
    "compare_s": ("lower", BOUND),
    "query_cold_mean_ms": ("lower", BOUND),
    "refine_mean_ms": ("lower", BOUND),
    "query_cold_p50_ms": ("lower", BOUND),
    "query_cold_tail_ms": ("lower", BOUND),
    "refine_p50_ms": ("lower", BOUND),
    "refine_tail_ms": ("lower", BOUND),
    "live_query_mean_ms": ("lower", BOUND),
    "live_query_p50_ms": ("lower", BOUND),
    "live_query_tail_ms": ("lower", BOUND),
    "live_max_query_hz": ("higher", BOUND),
    "ingest_post_mean_ms": ("lower", BOUND),
    "ingest_post_p50_ms": ("lower", BOUND),
    "peak_rss_mib": ("lower", BOUND),
    "failed_ratio": ("lower", 0.0),
}


def gated_bounds():
    """Bounds of the metrics BENCHMARK.json gates."""
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    try:
        with open(path) as f:
            bench = json.load(f)
    except OSError:
        return {}
    return {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}


def load(arg):
    """Untraced records of one set: {workload: [record, ...]}."""
    if os.path.isdir(arg):
        files = sorted(glob.glob(os.path.join(arg, "*.json")))
    else:
        files = [f for f in arg.split(",") if f]
    out = {}
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        if rec.get("trace") == 0:
            out.setdefault(rec["workload"], []).append(rec)
    return out


def values(records, metric):
    """The metric's value in every record that has it, from the gated
    metrics first, then the workload-specific ones."""
    out = []
    for rec in records:
        for section in ("gate", "end_to_end"):
            m = rec.get(section, {}).get(metric)
            if m is not None and m.get("value") is not None:
                out.append(float(m["value"]))
                break
    return out


def summary(vals):
    """(median, q1, q3, spread as a share of the median)."""
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    spread = (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))
    return med, q1, q3, spread


def verdict(old, new, better, bound):
    """One of better, worse, within, unresolved (see the module doc)."""
    om, _, _, ospread = summary(old)
    nm, _, _, nspread = summary(new)
    sign = 1.0 if better == "lower" else -1.0
    # Positive change = worse.
    change = sign * (nm - om) / abs(om) if om else sign * (nm - om)
    if max(ospread, nspread) > bound:
        if sign * (max(new) - min(old)) < 0:
            return "better"
        if sign * (min(new) - max(old)) > 0:
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if -change > max(bound, ospread):
        return "better"
    return "within"


def metric_names(sets):
    names = []
    for records in sets:
        for recs in records.values():
            for rec in recs:
                for section in ("gate", "end_to_end"):
                    for name in rec.get(section, {}):
                        if name not in names:
                            names.append(name)
    return names


def fmt(x):
    return f"{x:.4g}"


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    bounds = dict(BOUNDS)
    bounds.update(gated_bounds())
    sets = [load(a) for a in argv[1:]]
    workloads = sorted(set().union(*[s.keys() for s in sets]))
    names = [n for n in metric_names(sets) if n in bounds]
    steady = True
    for w in workloads:
        print(f"== {w}")
        for name in names:
            better, bound = bounds[name]
            cols = [values(s.get(w, []), name) for s in sets]
            if not all(cols):
                continue
            parts = []
            for vals in cols:
                med, q1, q3, spread = summary(vals)
                parts.append(
                    f"median {fmt(med)} [{fmt(q1)}, {fmt(q3)}] spread {spread:.3f} (n={len(vals)})"
                )
            if len(cols) == 1:
                spread = summary(cols[0])[3]
                ok = name == "setup_s" or spread <= bound / 3
                steady &= ok
                tag = "steady" if ok else "NOT STEADY"
                print(f"  {name:<24} {parts[0]}  target {bound / 3:.3f}  {tag}")
            else:
                v = verdict(cols[0], cols[1], better, bound)
                print(f"  {name:<24} old {parts[0]}")
                print(f"  {'':<24} new {parts[1]}  bound {bound}  -> {v}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
