// Table II: benchmark characteristics — seeds, discovered edges, collision
// rate at 64kB, static edges — for the 19 emulated benchmarks, paper value
// alongside the measured value of the synthetic stand-in.
//
// "Discovered edges" is measured the way the paper does: maximum edge
// coverage over a fuzzing configuration — here one BigMap 2MB campaign per
// benchmark, corpus replayed through the bias-free ground-truth counter.
#include <cstdio>
#include <iostream>

#include "analysis/collision.h"
#include "bench_common.h"

using namespace bigmap;

int main(int argc, char** argv) {
  bench::init(argc, argv, "table2");
  bench::print_header(
      "Table II — Benchmark characteristics (paper vs. this reproduction)",
      "19 benchmarks spanning ~1k-131k discoverable edges and 0.5%-57% "
      "collision rates on a 64kB map");

  TableWriter table({"Benchmark", "Seeds", "Edges(paper)", "Edges(ours)",
                     "Coll%(paper)", "Coll%(ours)", "Static(paper)",
                     "Static(ours)", "Version"});

  for (const BenchmarkInfo& info : full_table2_suite()) {
    auto target = build_benchmark(info);
    auto seeds = bench::capped_seeds(target, info);

    CampaignConfig c;
    c.scheme = MapScheme::kTwoLevel;
    c.tracing = TracingMode::kAlways;
    c.map.map_size = 2u << 20;
    c.max_execs = bench::scaled_execs(30000);
    c.max_seconds = bench::config_seconds(6.0);
    c.seed = 3;
    c.keep_corpus = true;
    auto r = run_campaign(target.program, seeds, c);

    const u64 discovered = measure_corpus_edges(target.program, r.corpus);
    const double coll =
        collision_rate(65536.0, static_cast<double>(discovered)) * 100.0;

    table.add_row({info.name, fmt_count(info.num_seeds),
                   fmt_count(info.paper_discovered_edges),
                   fmt_count(discovered),
                   fmt_double(info.paper_collision_rate, 2),
                   fmt_double(coll, 2), fmt_count(info.paper_static_edges),
                   fmt_count(target.program.static_edge_count()),
                   info.version});
  }
  bench::emit("benchmarks", table);
  std::printf(
      "\nShape check: measured discovered/static edges should track the "
      "paper column within a small factor, and the collision-rate ordering "
      "must match (zlib lowest ... instcombine highest).\n");
  return bench::finish();
}
