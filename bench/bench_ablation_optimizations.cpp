// §IV-E ablations: the orthogonal optimizations measured in isolation on
// both schemes —
//   1. merged classify+compare (halves the scan-pair cost),
//   2. huge-page backing (cuts DTLB pressure on multi-MB maps). Only the
//      flat map's buffers ask for it: every two-level buffer, the hashed
//      index included, follows coverage on plain pages (DESIGN.md
//      decision 8), so the two-level "+huge pages" column is a null run.
// The paper's third, the non-temporal reset, is not offered: it halved the
// flat scheme's speed here (EXPERIMENTS.md records its last column).
#include <cstdio>
#include <iostream>

#include "bench_common.h"

using namespace bigmap;

namespace {

double run_config(const GeneratedTarget& target,
                  const std::vector<Input>& seeds, MapScheme scheme,
                  usize map_size, bool merged, bool huge) {
  CampaignConfig c = bench::throughput_config(
      scheme, map_size, bench::config_seconds(2.5), /*seed=*/1);
  c.map.merged_classify_compare = merged;
  c.map.huge_pages = huge;
  auto r = run_campaign(target.program, seeds, c);
  return r.steady_throughput();
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv, "ablation_optimizations");
  bench::print_header(
      "§IV-E ablations — merged classify+compare, huge pages",
      "each optimization is orthogonal to the two-level scheme and helps "
      "the flat scheme most (its ops span the full map)");

  const BenchmarkInfo* info = find_benchmark("sqlite3");
  auto target = build_benchmark(*info);
  auto seeds = bench::capped_seeds(target, *info);

  TableWriter table(
      {"Scheme", "Map", "Baseline", "+merged", "+huge pages", "All on"});

  for (MapScheme scheme : {MapScheme::kFlat, MapScheme::kTwoLevel}) {
    for (usize size : {64u << 10, 2u << 20}) {
      const double base = run_config(target, seeds, scheme, size, false, false);
      const double merged =
          run_config(target, seeds, scheme, size, true, false);
      const double huge = run_config(target, seeds, scheme, size, false, true);
      const double all = run_config(target, seeds, scheme, size, true, true);
      auto rel = [&](double v) {
        return fmt_double(base > 0 ? v / base : 0, 2) + "x";
      };
      table.add_row({map_scheme_name(scheme), fmt_bytes(size),
                     fmt_double(base, 0) + "/s", rel(merged), rel(huge),
                     rel(all)});
    }
  }
  bench::emit("optimizations", table);
  std::printf(
      "\nShape check: '+merged' should help the flat scheme at 2MB the "
      "most.\n");
  return bench::finish();
}
