// Figure 3: runtime composition with varying bitmap sizes for six
// benchmarks (libpng, sqlite3, gvn, bloaty, openssl, php).
//
// The paper reports wall-clock hours for one million AFL test cases broken
// into Execution / Map Classify / Map Compare / Map Reset / Map Hash /
// Others. We run time-boxed campaigns, take the per-exec cost of each
// category averaged over the whole campaign (the per-op timers do not
// separate the seed phase, which is kept short below), and extrapolate to
// 1M test cases. Unattributed is wall time the per-op timers did not see;
// Total and MapOps% are against wall time. classify/compare are kept
// unmerged here so the two categories are separable (the §IV-E merge is
// exercised by bench_ablation_optimizations instead).
#include <cstdio>
#include <iostream>

#include "bench_common.h"

using namespace bigmap;

int main(int argc, char** argv) {
  bench::init(argc, argv, "fig3");
  bench::print_header(
      "Figure 3 — Runtime composition vs. map size (time per 1M test cases)",
      "map operations are negligible at 64kB but dominate at 8MB (AFL)");

  const char* names[] = {"libpng", "sqlite3", "gvn",
                         "bloaty", "openssl", "php"};
  const usize sizes[] = {64u << 10, 2u << 20, 8u << 20};

  TableWriter table({"Benchmark", "Map", "Exec(h)", "Classify(h)",
                     "Compare(h)", "Reset(h)", "Hash(h)", "Others(h)",
                     "Unattributed(h)", "Total(h)", "MapOps%"});

  for (const char* name : names) {
    const BenchmarkInfo* info = find_benchmark(name);
    if (info == nullptr) continue;
    auto target = build_benchmark(*info);
    auto seeds = bench::capped_seeds(target, *info);
    // Keep the seed phase short: this bench times steady-state havoc.
    if (seeds.size() > 64) seeds.resize(64);

    for (usize size : sizes) {
      CampaignConfig c = bench::throughput_config(
          MapScheme::kFlat, size, bench::config_seconds(3.0));
      c.map.merged_classify_compare = false;  // separable categories
      c.exec_pool = &ExecPool::serial();      // one core, as in the paper
      auto r = run_campaign(target.program, seeds, c);

      if (r.execs == 0) continue;
      // Seconds per exec, averaged over the campaign, as hours per 1M.
      auto hours_per_1m = [&](double seconds) {
        return seconds / static_cast<double>(r.execs) * 1e6 / 3600.0;
      };
      auto op_h = [&](MapOp op) { return hours_per_1m(r.timing.seconds(op)); };
      const double exec_h = op_h(MapOp::kExecution);
      const double cls_h = op_h(MapOp::kClassify);
      const double cmp_h = op_h(MapOp::kCompare);
      const double rst_h = op_h(MapOp::kReset);
      const double hsh_h = op_h(MapOp::kHash);
      const double oth_h = op_h(MapOp::kOther);
      const double total = hours_per_1m(r.wall_seconds);
      const double unattr_h =
          total - hours_per_1m(r.timing.total_seconds());
      const double map_pct =
          total > 0 ? 100.0 * (cls_h + cmp_h + rst_h + hsh_h) / total : 0;

      table.add_row({info->name, fmt_bytes(size), fmt_double(exec_h, 3),
                     fmt_double(cls_h, 3), fmt_double(cmp_h, 3),
                     fmt_double(rst_h, 3), fmt_double(hsh_h, 3),
                     fmt_double(oth_h, 3), fmt_double(unattr_h, 3),
                     fmt_double(total, 3), fmt_double(map_pct, 1)});
    }
  }
  bench::emit("runtime_composition", table);
  std::printf(
      "\nShape check: MapOps%% should be small at 64k and dominate (>50%%) "
      "at 8M, mirroring the paper's stacked bars.\n");
  return bench::finish();
}
