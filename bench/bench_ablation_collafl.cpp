// §VI comparison: CollAFL vs. BigMap as collision-mitigation strategies.
//
// CollAFL assigns collision-free edge IDs statically, but (a) must size
// the bitmap to hold ALL static edges even though "only a fraction of the
// static edges are visited during a fuzzing campaign" (the paper cites its
// own Table II as evidence), and (b) is tied to edge coverage. This bench
// quantifies both points on three benchmark scales.
#include <cstdio>
#include <iostream>

#include "analysis/collafl.h"
#include "analysis/collision.h"
#include "bench_common.h"

using namespace bigmap;

int main(int argc, char** argv) {
  bench::init(argc, argv, "ablation_collafl");
  bench::print_header(
      "§VI ablation — CollAFL static assignment vs. BigMap",
      "CollAFL eliminates collisions but must size the map to the static "
      "edge count; only a fraction is ever visited, which BigMap exploits");

  TableWriter table({"Benchmark", "Static edges", "CollAFL map",
                     "Visited keys", "Visited/static", "AFL coll@64k",
                     "CollAFL coll", "BigMap used"});

  for (const char* name : {"libpng", "sqlite3", "instcombine"}) {
    const BenchmarkInfo* info = find_benchmark(name);
    if (info == nullptr) continue;
    auto target = build_benchmark(*info);
    auto seeds = bench::capped_seeds(target, *info);

    // CollAFL sizing requirement.
    const usize required = CollAflAssignment::required_map_size(
        target.program);
    CollAflAssignment assignment(target.program, required);

    // What a campaign actually visits (BigMap's used_key).
    CampaignConfig c;
    c.scheme = MapScheme::kTwoLevel;
    c.tracing = TracingMode::kAlways;
    c.map.map_size = 2u << 20;
    c.max_execs = bench::scaled_execs(20000);
    c.max_seconds = bench::config_seconds(5.0);
    c.seed = 3;
    auto r = run_campaign(target.program, seeds, c);

    const double visited_frac =
        static_cast<double>(r.used_key) /
        static_cast<double>(assignment.num_static_edges());

    table.add_row(
        {info->name, fmt_count(assignment.num_static_edges()),
         fmt_bytes(required), fmt_count(r.used_key),
         fmt_double(visited_frac * 100, 1) + "%",
         fmt_double(collision_rate(65536.0, r.used_key) * 100, 2) + "%",
         assignment.hashed_fallback() == 0 ? "0%" : ">0%",
         fmt_count(r.used_key)});
  }
  bench::emit("collafl_vs_bigmap", table);

  std::printf(
      "\nReading: CollAFL needs a map sized to the static edges (last LLVM "
      "row: ~1M slots) although the campaign visits only a few percent of "
      "them. BigMap reaches zero collisions with any sufficiently large "
      "map while its per-test-case costs track the visited keys only — "
      "and it composes with N-gram/context metrics, which CollAFL's "
      "static edge assignment cannot host.\n");
  return bench::finish();
}
