#!/usr/bin/env python3
"""End-to-end benchmark of the BigMap fuzzing stack.

Run from the root of a checkout:

  python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1
  python3 perfbench/run.py --all --seed N --seconds T [--trace 1] [--out DIR]
  python3 perfbench/run.py --compare OLD.json NEW.json

The first form builds perfbench/ (Release, into .bench_build/) and measures
one workload for about T seconds. Each repetition is its own
bench_workloads process with its own campaign seed (N * 100 + i). The run
prints every metric by name and unit with its median and quartiles.
Its last stdout line is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics. With
--trace 1 they are its per_layer metrics: repetitions run in pairs of one
untraced and one traced campaign on the same seed, and the traced ones
record spans into OUT/trace/W.jsonl.

--all runs every workload and writes OUT/results.json (or layers.json with
--trace 1). --compare prints, for each workload and metric, both sides'
median and quartiles, the change, the bound and a verdict (compare.py).

The run exits 1 without a result line when the build fails, and exits 1
after the result line when an output check fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "bench_workloads")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

# Every run must end within 180 s; a repetition gets what is left of that.
RUN_DEADLINE_S = 170.0


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def build():
    """Configures once, then builds bench_workloads incrementally."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/ next to perfbench/; run from a full checkout")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "bench_workloads", "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          env=env).returncode != 0:
            log("perfbench: build failed:", " ".join(cmd))
            return False
    return True


def fingerprint(rep):
    """Host and build identity stamped into every result file."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "kernel_release": platform.release(),
        "compiler": rep.get("compiler", "unknown"),
        "build_type": rep.get("build_type", "unknown"),
        "map_kernel": rep.get("kernel", "unknown"),
        "git_commit": commit,
    }


def run_rep(workload, seed, out_dir, traced, deadline):
    """Runs one repetition; returns (record, error or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--work-dir", os.path.join(out_dir, "work")]
    if traced:
        cmd += ["--trace-dir", os.path.join(out_dir, "trace")]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"seed {seed}: repetition timed out after {timeout:.0f} s"
    if proc.stderr:
        log(proc.stderr.rstrip())
    try:
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, f"seed {seed}: exit {proc.returncode}, no result"
    if proc.returncode != 0 or rec.get("errors"):
        return rec, f"seed {seed}: " + "; ".join(rec.get("errors") or
                                                  [f"exit {proc.returncode}"])
    return rec, None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(unit, values):
    q1, med, q3 = quartiles(values)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def measure(workload, seed, seconds, traced, out_dir, spec):
    """Runs repetitions for about `seconds`; returns the result record."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    reps, errors, slowest, lost = [], [], 0.0, 0
    i = 0

    def launch(campaign_seed, tr):
        nonlocal slowest, lost
        t = time.monotonic()
        rec, err = run_rep(workload, campaign_seed, out_dir, tr, deadline)
        slowest = max(slowest, time.monotonic() - t)
        if err:
            errors.append(err)
        if rec is None:
            lost += 1
        else:
            rec["campaign_seed"] = campaign_seed
            reps.append(rec)
        return rec is not None and err is None

    def room_for(n):
        return time.monotonic() - start + n * slowest <= seconds

    if traced:
        # Pairs on one seed: the untraced half is the overhead baseline, and
        # on a deterministic workload it must reproduce the traced half's
        # counters, finds and corpus exactly.
        while launch(seed * 100 + i, False) and launch(seed * 100 + i, True):
            i += 1
            if not room_for(2):
                break
    else:
        # Every repetition has its own seed, so a run's median spans several
        # campaigns rather than one seed's luck.
        while launch(seed * 100 + i, False):
            i += 1
            if not room_for(1):
                break

    by_seed = {}
    for rec in reps:
        if rec.get("deterministic"):
            by_seed.setdefault(rec["campaign_seed"], set()).add(
                rec["determinism"])
    for s, outcomes in sorted(by_seed.items()):
        if len(outcomes) > 1:
            errors.append(f"seed {s}: repetitions disagree: "
                          + " vs ".join(sorted(outcomes)))

    timed = [r for r in reps if not r["traced"]]
    metrics = {}
    if traced:
        layer_reps = [r for r in reps if r["traced"]]
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "bench.trace_overhead_pct":
                pairs = zip(timed, layer_reps)
                values = [100.0 * (1.0 - t["execs_per_s"] / u["execs_per_s"])
                          for u, t in pairs if u["execs_per_s"] > 0]
            else:
                values = [r["layers"][name] for r in layer_reps
                          if name in r.get("layers", {})]
            if values:
                metrics[name] = summarize(m["unit"], values)
            else:
                errors.append(f"no value for per-layer metric {name}")
    else:
        for m in spec["end_to_end"]:
            name = m["name"]
            if name == "setup_s":
                values = [s for r in timed for s in r["setup_s"]]
            else:
                values = [r[name] for r in timed if name in r]
            if values:
                metrics[name] = summarize(m["unit"], values)
            else:
                errors.append(f"no value for end-to-end metric {name}")

    self_ms = {}
    for r in reps:
        for layer, ms in r.get("layer_self_ms", {}).items():
            self_ms.setdefault(layer, []).append(ms)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "fingerprint": dict(fingerprint(reps[0] if reps else {}), seed=seed),
        "correct": not errors,
        "errors": errors,
        # Campaign operations: execs, checkpoint saves, corpus adds and
        # publishes, plus any repetition that died without a result.
        "attempted": sum(r["attempted"] for r in reps) + lost,
        "failed": sum(r["failed"] for r in reps) + lost,
        "metrics": metrics,
        "bugs_median": statistics.median([r["bugs"] for r in timed])
        if timed else 0,
        "layer_self_ms": {k: statistics.median(v) for k, v in self_ms.items()},
        "repetitions": reps,
        "wall_s": time.monotonic() - start,
    }


def print_result(res):
    mode = "traced" if res["trace"] else "timed"
    print(f"== {res['workload']}  seed {res['seed']}  {mode}  "
          f"{len(res['repetitions'])} repetitions in {res['wall_s']:.1f} s")
    for name, m in res["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']:7s} "
              f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}] n={m['n']}")
    if not res["trace"]:
        print(f"  {'bugs (median, not bounded)':36s} {res['bugs_median']:14g}")
    for layer, ms in sorted(res["layer_self_ms"].items()):
        print(f"  self time {layer:26s} {ms:14.1f} ms")
    for err in res["errors"]:
        print("  CHECK FAILED:", err)


def write_json(path, obj):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(ROOT, ".bench_out"))
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args()

    if args.compare:
        sys.path.insert(0, HERE)
        import compare
        return compare.main(args.compare)
    if not os.path.isfile(SPEC_PATH):
        log("perfbench: BENCHMARK.json not found at", SPEC_PATH)
        return 1
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.all:
        workloads = names
    elif args.workload in names:
        workloads = [args.workload]
    else:
        ap.error("--workload must be one of: " + ", ".join(names))
    if not build():
        return 1

    traced = bool(args.trace)
    results = {}
    for w in workloads:
        res = measure(w, args.seed, seconds, traced, args.out, spec)
        print_result(res)
        results[w] = res
        suffix = "-trace" if traced else ""
        write_json(os.path.join(args.out, f"{w}-seed{args.seed}{suffix}.json"),
                   res)
    if args.all:
        first = next(iter(results.values()))
        combined = {"fingerprint": first["fingerprint"], "seed": args.seed,
                    "seconds": seconds, "trace": traced,
                    "workloads": {w: {k: v for k, v in r.items()
                                      if k != "repetitions"}
                                  for w, r in results.items()}}
        write_json(os.path.join(args.out, "layers.json" if traced
                                else "results.json"), combined)
    correct = all(r["correct"] for r in results.values())
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {(f"{w}/{name}" if args.all else name):
                    {"value": m["value"], "unit": m["unit"]}
                    for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }
    print(json.dumps(summary), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
