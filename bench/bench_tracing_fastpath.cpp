// Coverage-guided tracing fast path: dual-mode (untraced + oracle-fire
// re-execution) vs. always-trace campaigns at equal exec budgets.
//
// Two claims, in the spirit of UnTracer/"Full-speed Fuzzing": on AFL's
// flat map the overwhelming majority of steady-state executions are boring
// and complete untraced (>80% even at smoke scale), and skipping the
// whole-map pipeline for them buys an end-to-end speedup that grows with
// map size — while finding EXACTLY the same queue entries, crashes, and
// coverage (deterministic timing, equal seeds; mode_diff_test pins the
// equivalence exhaustively).
//
// The BigMap rows document the scheme rule: the two-level map's whole-map
// operations already touch only the used prefix, so there is nothing for
// untraced execution to skip and kDual runs every exec traced. Those rows
// show 0 untraced, 0 fires, ~1.00x and equal finds.
//
// Trimming is disabled: trim executions run the full map pipeline in both
// modes by design, and this bench isolates the exec-path difference.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "telemetry/sink.h"

using namespace bigmap;

namespace {

struct RowSpec {
  const char* benchmark;
  MapScheme scheme;
  usize map_size;
};

CampaignConfig tracing_config(const RowSpec& spec, TracingMode tracing,
                              u64 execs) {
  CampaignConfig c;
  c.scheme = spec.scheme;
  c.tracing = tracing;
  c.map.map_size = spec.map_size;
  c.max_execs = execs;
  c.seed = 1;
  c.trim_enabled = false;
  c.deterministic_timing = true;  // identical exec streams across modes
  c.exec_pool = &ExecPool::serial();  // one core, as in the paper
  return c;
}

bool finds_equal(const CampaignResult& a, const CampaignResult& b) {
  return a.execs == b.execs && a.interesting == b.interesting &&
         a.covered_positions == b.covered_positions &&
         a.corpus_size == b.corpus_size &&
         a.crashes_ground_truth == b.crashes_ground_truth &&
         a.crashes_crashwalk_unique == b.crashes_crashwalk_unique &&
         a.hangs == b.hangs;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv, "tracing");
  bench::print_header(
      "Coverage-guided tracing — dual-mode vs. always-trace campaigns",
      "on AFL's flat map boring execs skip the whole-map pipeline: >80% "
      "untraced at steady state, equal finds, end-to-end speedup growing "
      "with map size; BigMap traces every exec (nothing to skip)");

  // Three BigMap rows at the paper's baseline 64 kB (kDual == kAlways
  // there), plus flat-map rows at 64 kB and at 2 MB, where
  // reset/classify/compare dominate and skipping them pays the most.
  const RowSpec rows[] = {
      {"zlib", MapScheme::kTwoLevel, 64u << 10},
      {"proj4", MapScheme::kTwoLevel, 64u << 10},
      {"sqlite3", MapScheme::kTwoLevel, 64u << 10},
      {"proj4", MapScheme::kFlat, 64u << 10},
      {"proj4", MapScheme::kFlat, 2u << 20},
  };

  u64 budget = bench::scaled_execs(50000);
  if (budget < 4000) budget = 4000;
  bench::report().set_meta("budget_execs", budget);

  TableWriter ratio({"Benchmark", "Scheme", "Map", "Execs", "Untraced",
                     "Fires", "Steady untraced"});
  TableWriter speedup({"Benchmark", "Scheme", "Map", "Always exec/s",
                       "Dual exec/s", "Speedup", "Finds equal"});
  // The dual campaign again with the target run ahead on the process's
  // spare cores (fuzzer/exec_pool.h): same finds, and how many execs found
  // their trace recorded.
  TableWriter pipelined({"Benchmark", "Scheme", "Map", "Serial exec/s",
                         "Pipelined exec/s", "Speedup", "Prefetch hits",
                         "Prefetch misses", "Finds equal"});

  for (const RowSpec& spec : rows) {
    const BenchmarkInfo* info = find_benchmark(spec.benchmark);
    if (info == nullptr) continue;
    auto target = build_benchmark(*info);
    auto seeds = bench::capped_seeds(target, *info);
    const char* scheme_name =
        spec.scheme == MapScheme::kFlat ? "AFL" : "BigMap";

    telemetry::TelemetrySink sink(0);
    CampaignConfig dual_cfg = tracing_config(spec, TracingMode::kDual,
                                             budget);
    dual_cfg.telemetry = &sink;
    dual_cfg.telemetry_interval = budget / 6;
    CampaignResult dual = run_campaign(target.program, seeds, dual_cfg);

    CampaignResult always = run_campaign(
        target.program, seeds,
        tracing_config(spec, TracingMode::kAlways, budget));

    const u64 steady = dual.execs - dual.seed_execs;
    const double untraced_pct =
        steady > 0 ? 100.0 * static_cast<double>(dual.tracing_untraced_execs) /
                         static_cast<double>(steady)
                   : 0.0;
    ratio.add_row({spec.benchmark, scheme_name, fmt_bytes(spec.map_size),
                   std::to_string(dual.execs),
                   std::to_string(dual.tracing_untraced_execs),
                   std::to_string(dual.tracing_oracle_fires),
                   fmt_double(untraced_pct, 1) + "%"});

    const double ratio_x = always.steady_throughput() > 0
                               ? dual.steady_throughput() /
                                     always.steady_throughput()
                               : 0.0;
    speedup.add_row({spec.benchmark, scheme_name, fmt_bytes(spec.map_size),
                     fmt_double(always.steady_throughput(), 0),
                     fmt_double(dual.steady_throughput(), 0),
                     fmt_double(ratio_x, 2) + "x",
                     finds_equal(dual, always) ? "yes" : "NO"});

    CampaignConfig piped_cfg = tracing_config(spec, TracingMode::kDual,
                                              budget);
    piped_cfg.exec_pool = &ExecPool::process();
    CampaignResult piped = run_campaign(target.program, seeds, piped_cfg);
    const double piped_x = dual.steady_throughput() > 0
                               ? piped.steady_throughput() /
                                     dual.steady_throughput()
                               : 0.0;
    pipelined.add_row(
        {spec.benchmark, scheme_name, fmt_bytes(spec.map_size),
         fmt_double(dual.steady_throughput(), 0),
         fmt_double(piped.steady_throughput(), 0),
         fmt_double(piped_x, 2) + "x", std::to_string(piped.prefetch_hits),
         std::to_string(piped.prefetch_misses),
         finds_equal(piped, dual) ? "yes" : "NO"});

    bench::report().add_series(
        std::string("dual/") + spec.benchmark + "/" + scheme_name,
        sink.series());
  }

  bench::emit("tracing_ratio", ratio);
  std::printf("\n");
  bench::emit("speedup", speedup);
  std::printf("\n");
  bench::emit("pipelined", pipelined);
  return bench::finish();
}
