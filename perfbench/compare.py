#!/usr/bin/env python3
"""Compares two perfbench result files metric by metric.

  python3 perfbench/compare.py OLD.json NEW.json
  python3 perfbench/run.py --compare OLD.json NEW.json

Each file is OUT/results.json or OUT/layers.json from `run.py --all`, or
one workload's OUT/<workload>-seed<N>[-trace].json. For every workload and
metric the table shows both sides' median and quartiles, the change of the
median, the bound from BENCHMARK.json and a verdict:

  better        the median improved by more than the bound
  worse         the median got worse by more than the bound
  within bound  the median moved less than the bound
  unresolved    either side's spread ((q3 - q1) / median) exceeds the bound,
                so the runs cannot tell a change of that size from noise;
                reported as better instead when every new value beats
                every old value
  trend         per-layer metrics, which have no bound

It warns when the two files come from different hosts or builds, and exits
1 when any metric is worse.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# Fingerprint fields that must match for a comparison to mean anything;
# the commit is expected to differ.
HOST_FIELDS = ("nproc", "cpu_model", "kernel_release", "compiler",
               "build_type", "map_kernel")


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if "workloads" in doc:
        return doc["fingerprint"], doc["workloads"]
    return doc["fingerprint"], {doc["workload"]: doc}


def spread(m):
    return (m["q3"] - m["q1"]) / m["value"] if m["value"] else 0.0


def verdict(old, new, better, bound):
    if bound is None:
        return "trend"
    lower = better == "lower"
    if old["value"] == 0:
        return "within bound" if new["value"] == 0 else "unresolved"
    change = (new["value"] - old["value"]) / old["value"]
    gain = -change if lower else change
    if max(spread(old), spread(new)) > bound:
        best_old = min(old["values"]) if lower else max(old["values"])
        worst_new = max(new["values"]) if lower else min(new["values"])
        all_better = worst_new < best_old if lower else worst_new > best_old
        return "better" if all_better else "unresolved"
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    return "within bound"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    meta = {m["name"]: (m["better"], m.get("bound"))
            for m in spec["end_to_end"] + spec["per_layer"]}
    old_fp, old = load(argv[0])
    new_fp, new = load(argv[1])

    for field in HOST_FIELDS:
        if old_fp.get(field) != new_fp.get(field):
            print(f"WARNING: {field} differs: {old_fp.get(field)!r} vs "
                  f"{new_fp.get(field)!r}")
    for field in ("git_commit", "seed"):
        print(f"{field}: {old_fp.get(field)} -> {new_fp.get(field)}")

    worse = 0
    for w in sorted(set(old) & set(new)):
        print(f"\n== {w}")
        print(f"  {'metric':34s} {'old median [q1, q3]':>32s} "
              f"{'new median [q1, q3]':>32s} {'change':>8s} {'bound':>6s}  "
              "verdict")
        for name, o in old[w]["metrics"].items():
            n = new[w]["metrics"].get(name)
            if n is None or name not in meta:
                continue
            better, bound = meta[name]
            v = verdict(o, n, better, bound)
            worse += v == "worse"
            change = ((n["value"] - o["value"]) / o["value"] * 100
                      if o["value"] else 0.0)
            fmt = lambda m: (f"{m['value']:.5g} [{m['q1']:.5g}, "
                             f"{m['q3']:.5g}]")
            bound_s = f"{bound * 100:.0f}%" if bound is not None else "-"
            print(f"  {name:34s} {fmt(o):>32s} {fmt(n):>32s} "
                  f"{change:+7.1f}% {bound_s:>6s}  {v}")
    for w in sorted(set(old) ^ set(new)):
        print(f"\n== {w}: only in {'old' if w in old else 'new'}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
