#!/usr/bin/env bash
# Bench smoke pass: run the headline benches at a reduced scale with
# machine-readable output and validate the BENCH_*.json schema. CI runs
# this to catch bench bit-rot and schema drift without paying for a
# full-scale reproduction.
#
# Usage: scripts/bench_smoke.sh [output-dir]   (default: bench-artifacts)
# Requires the bench binaries to be built (scripts/verify.sh or
# `cmake --build build --target bench_fig6_throughput
#  bench_fig9_parallel_scaling bench_tracing_fastpath bench_map_ops_micro`).
set -euo pipefail

cd "$(dirname "$0")/.."

OUT_DIR="${1:-bench-artifacts}"
BUILD_DIR="${BUILD_DIR:-build}"
export BIGMAP_BENCH_SCALE="${BIGMAP_BENCH_SCALE:-0.2}"

mkdir -p "$OUT_DIR"

echo "== bench_fig6_throughput (scale $BIGMAP_BENCH_SCALE) =="
"$BUILD_DIR/bench/bench_fig6_throughput" --json "$OUT_DIR/BENCH_fig6.json"

echo
echo "== bench_fig9_parallel_scaling (scale $BIGMAP_BENCH_SCALE, real threads + procs + federation) =="
BIGMAP_REAL_THREADS=1 BIGMAP_REAL_PROCS=1 BIGMAP_NETFLEET=1 \
  "$BUILD_DIR/bench/bench_fig9_parallel_scaling" \
  --json "$OUT_DIR/BENCH_fig9.json" \
  --telemetry-dir "$OUT_DIR/telemetry_fig9"

echo
echo "== bench_tracing_fastpath (scale $BIGMAP_BENCH_SCALE) =="
"$BUILD_DIR/bench/bench_tracing_fastpath" --json "$OUT_DIR/BENCH_tracing.json"

echo
echo "== bench_map_ops_micro (sparse collect and flat score update) =="
"$BUILD_DIR/bench/bench_map_ops_micro" \
  --benchmark_filter='^BM_(KernelCollectNonzero|UpdateScoresFlat)/' \
  --benchmark_min_time=0.05 --json "$OUT_DIR/BENCH_micro_collect.json"

echo
echo "== validating JSON schema and telemetry consistency =="
python3 - "$OUT_DIR" <<'EOF'
import json
import os
import sys

out_dir = sys.argv[1]
failures = []


def check(cond, msg):
    if not cond:
        failures.append(msg)


def load(name, expect_bench, expect_tables):
    path = os.path.join(out_dir, name)
    with open(path) as f:
        doc = json.load(f)
    check(doc.get("schema_version") == 1, f"{name}: schema_version != 1")
    check(doc.get("bench") == expect_bench, f"{name}: bench != {expect_bench}")
    check(isinstance(doc.get("scale"), (int, float)), f"{name}: scale missing")
    check(isinstance(doc.get("meta"), dict), f"{name}: meta missing")
    names = [t["name"] for t in doc.get("tables", [])]
    for want in expect_tables:
        check(want in names, f"{name}: missing table {want!r}")
    for t in doc.get("tables", []):
        ncols = len(t["columns"])
        check(ncols > 0, f"{name}: table {t['name']} has no columns")
        for row in t["rows"]:
            check(len(row) == ncols,
                  f"{name}: ragged row in table {t['name']}")
    return doc


fig6 = load("BENCH_fig6.json", "fig6",
            ["throughput", "averages", "shape", "checkpointed"])
fig9 = load("BENCH_fig9.json", "fig9",
            ["normalized_throughput", "speedup_vs_afl",
             "real_thread_scaling", "telemetry_consistency",
             "real_process_degradation", "federated_union",
             "star_federation", "star_novelty_filtering"])
tracing = load("BENCH_tracing.json", "tracing",
               ["tracing_ratio", "speedup", "pipelined"])

# Two-level checkpoints encode only the live [0, used_key) prefix: for every
# benchmark the 8 MB snapshots may exceed the 64 kB ones by a few KB at most
# (a whole-map encoding is ~128x larger).
ckpt = next(t for t in fig6["tables"] if t["name"] == "checkpointed")
cols = ckpt["columns"]
check(len(ckpt["rows"]) > 0, "fig6: empty checkpointed table")
snap_bytes = {}
for row in ckpt["rows"]:
    check(int(row[cols.index("Checkpoints")]) > 0,
          f"fig6: checkpointed row wrote no checkpoint: {row}")
    snap_bytes[(row[cols.index("Benchmark")], row[cols.index("Map")])] = \
        int(row[cols.index("Snapshot bytes")])
for (bench, size), small in snap_bytes.items():
    if size != "64k":
        continue
    big = snap_bytes.get((bench, "8M"))
    check(big is not None, f"fig6: no 8MB checkpointed row for {bench}")
    if big is not None:
        check(big <= small + 4096,
              f"fig6: {bench} 8MB snapshots are {big} B against {small} B "
              "at 64kB (live-prefix encoding lost?)")

# Two-level memory follows coverage: per benchmark, the 32 MB and 128 MB
# rows' peak RSS may exceed the 64 kB row's by at most 8 MB. A buffer of
# even 1 B per map position would add 32 MB and 128 MB.
rss = {}
for row in ckpt["rows"]:
    rss[(row[cols.index("Benchmark")], row[cols.index("Map")])] = \
        float(row[cols.index("Peak RSS MB")])
for (bench, size), small in rss.items():
    if size != "64k":
        continue
    check(small > 0, f"fig6: {bench} 64kB row reported no peak RSS")
    for big_size in ("32M", "128M"):
        big = rss.get((bench, big_size))
        check(big is not None,
              f"fig6: no {big_size} checkpointed row for {bench}")
        if big is not None:
            bound = small + 8
            check(big <= bound,
                  f"fig6: {bench} {big_size} peak RSS {big} MB exceeds "
                  f"{bound} MB (64kB row {small} MB + 8 MB)")

# Mini Figure 6 on wall clock: the three ratios throughput_shape_test
# checks on counted work, each against its bound.
shape = next(t for t in fig6["tables"] if t["name"] == "shape")
cols = shape["columns"]
check(len(shape["rows"]) == 3, "fig6: expected 3 shape rows")
for row in shape["rows"]:
    value = float(row[cols.index("Value")])
    op, limit = row[cols.index("Bound")].split()
    ok = value > float(limit) if op == ">" else value < float(limit)
    check(ok, f"fig6: {row[cols.index('Ratio')]} is {value}x, "
              f"not {op} {limit}x")

# Every report must record which whole-map kernel produced it, so perf
# trajectories in committed BENCH_*.json artifacts are attributable.
for name, doc in (("BENCH_fig6.json", fig6), ("BENCH_fig9.json", fig9),
                  ("BENCH_tracing.json", tracing)):
    kernel = doc.get("meta", {}).get("kernel")
    check(kernel in ("scalar", "swar", "sse2", "avx2", "avx512"),
          f"{name}: meta.kernel is {kernel!r}, not a known kernel")

# Every real-thread run must report plot_data/fleet/supervisor exec
# agreement (the telemetry acceptance invariant).
consistency = next(t for t in fig9["tables"]
                   if t["name"] == "telemetry_consistency")
check(len(consistency["rows"]) > 0, "fig9: empty telemetry_consistency")
for row in consistency["rows"]:
    check(row[-1] == "yes",
          f"fig9: telemetry mismatch in row {row}")

# Process-fleet degradation (forked workers): budgets are deterministic —
# every fleet delivers exactly N x per-worker execs, and the chaos run
# parks exactly one worker. The throughput ratio is measured on a shared
# runner, so the smoke pass only rejects collapse (< 0.8x of the (N-1)
# baseline); the full 10% acceptance bar is asserted at normal scale.
procs = next(t for t in fig9["tables"]
             if t["name"] == "real_process_degradation")
cols = procs["columns"]
check(len(procs["rows"]) == 3, "fig9: expected 3 real-process fleet rows")
for row in procs["rows"]:
    check(row[cols.index("budget exact")] == "yes",
          f"fig9: inexact fleet exec budget in row {row}")
degraded = procs["rows"][-1]
check(degraded[cols.index("quarantined")] == "1",
      f"fig9: degraded fleet did not park exactly one worker: {degraded}")
ratio = float(degraded[cols.index("vs (N-1)")].rstrip("x"))
check(ratio >= 0.8,
      f"fig9: degraded fleet throughput collapsed ({ratio}x of baseline)")

# Federations (fig9 (e) and (f)): every federated row delivers exactly
# N x per-worker execs and reproduces the equal-width single fleet's
# planted-bug union, whichever gateway keeps the oracle current.
def federated_rows(table_name, want_rows):
    t = next(t for t in fig9["tables"] if t["name"] == table_name)
    cols = t["columns"]
    rows = [r for r in t["rows"] if r[cols.index("union match")] != "-"]
    check(len(rows) == want_rows,
          f"fig9: expected {want_rows} federated rows in {table_name}")
    for row in rows:
        for col in ("budget exact", "union match"):
            check(row[cols.index(col)] == "yes",
                  f"fig9: {col} failed in {table_name} row {row}")


federated_rows("federated_union", 1)
federated_rows("star_federation", 3)

# Fleet series snapshots must be present and monotone in execs. A bench
# that silently emits zero or one snapshot per series (e.g. a telemetry
# interval larger than the budget) must fail loudly, not pass vacuously.
def check_series(doc, name, min_series):
    series_list = doc.get("series", [])
    check(len(series_list) >= min_series,
          f"{name}: expected >= {min_series} series, got {len(series_list)}")
    for series in series_list:
        execs = [s["execs"] for s in series["snapshots"]]
        check(len(execs) >= 2,
              f"{name}: series {series['name']} has {len(execs)} snapshots "
              "(need >= 2)")
        check(execs == sorted(execs),
              f"{name}: non-monotone exec series {series['name']}")


check_series(fig9, "fig9", 2)

# Tracing fast path: every flat-map (AFL) dual-mode row must run >80% of
# steady-state execs untraced; every two-level (BigMap) row must run every
# exec traced (0 untraced, 0 fires). All rows must find exactly what
# always-trace finds.
ratio_t = next(t for t in tracing["tables"] if t["name"] == "tracing_ratio")
cols = ratio_t["columns"]
check(len(ratio_t["rows"]) >= 4, "tracing: expected >= 4 tracing_ratio rows")
for row in ratio_t["rows"]:
    scheme = row[cols.index("Scheme")]
    if scheme == "AFL":
        pct = float(row[cols.index("Steady untraced")].rstrip("%"))
        check(pct > 80.0,
              f"tracing: steady untraced ratio {pct}% <= 80% in row {row}")
    else:
        check(row[cols.index("Untraced")] == "0" and
              row[cols.index("Fires")] == "0",
              f"tracing: two-level row ran untraced execs: {row}")
speed_t = next(t for t in tracing["tables"] if t["name"] == "speedup")
cols = speed_t["columns"]
check(len(speed_t["rows"]) == len(ratio_t["rows"]),
      "tracing: speedup/tracing_ratio row count mismatch")
for row in speed_t["rows"]:
    check(row[cols.index("Finds equal")] == "yes",
          f"tracing: dual-mode finds differ from always-trace in row {row}")
# The same dual campaigns pipelined onto spare cores find the same.
piped_t = next(t for t in tracing["tables"] if t["name"] == "pipelined")
cols = piped_t["columns"]
check(len(piped_t["rows"]) == len(ratio_t["rows"]),
      "tracing: pipelined/tracing_ratio row count mismatch")
for row in piped_t["rows"]:
    check(row[cols.index("Finds equal")] == "yes",
          f"tracing: pipelined finds differ from serial in row {row}")
check_series(tracing, "tracing", 1)

# Emitted AFL-style trees: fuzzer_stats + plot_data for fleet and each
# instance of the n=4 runs, under <scheme>/.
tdir = os.path.join(out_dir, "telemetry_fig9")
for scheme in ("AFL", "BigMap"):
    for sub in ("fleet", "instance_0", "instance_3"):
        for fname in ("fuzzer_stats", "plot_data"):
            p = os.path.join(tdir, scheme, sub, fname)
            check(os.path.isfile(p), f"missing telemetry file {p}")

# The collect family has every size for the two kernels every CPU runs,
# and the flat score update its 2 MB row.
with open(os.path.join(out_dir, "BENCH_micro_collect.json")) as f:
    micro = {b["name"]: b for b in json.load(f).get("benchmarks", [])}
want = ["BM_UpdateScoresFlat/2097152"] + [
    f"BM_KernelCollectNonzero/{k}/{n}"
    for k in ("scalar", "swar") for n in (65536, 2097152, 8388608)]
for name in want:
    check(name in micro, f"BENCH_micro_collect.json: missing {name}")
for name, b in micro.items():
    check(b.get("real_time", 0) > 0,
          f"BENCH_micro_collect.json: {name} has no time")

if failures:
    print("SMOKE FAILURES:")
    for f in failures:
        print(" -", f)
    sys.exit(1)
print("bench smoke OK:",
      f"fig6 tables={len(fig6['tables'])},",
      f"fig9 tables={len(fig9['tables'])},",
      f"series={len(fig9['series'])},",
      f"tracing tables={len(tracing['tables'])},",
      f"micro collect rows={len(micro)}")
EOF
