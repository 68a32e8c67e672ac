// Ablation over the N-gram window size: map pressure (distinct keys) and
// collision rate at 64 kB as N grows from plain edge coverage to
// N-gram(8). Context for §V-C: expressive metrics multiply the key
// population, which is what makes large maps — and therefore BigMap —
// necessary.
#include <cstdio>
#include <iostream>

#include "analysis/collision.h"
#include "bench_common.h"

using namespace bigmap;

int main(int argc, char** argv) {
  bench::init(argc, argv, "ablation_ngram");
  bench::print_header(
      "Metric ablation — map pressure of edge vs. N-gram{2,3,4,8} vs. "
      "context coverage",
      "N-gram and context metrics exert multiples of edge coverage's map "
      "pressure (paper §VI: up to 8x for context coverage)");

  const BenchmarkInfo* info = find_benchmark("sqlite3");
  auto target = build_benchmark(*info);
  auto seeds = bench::capped_seeds(target, *info);

  TableWriter table({"Metric", "Distinct keys", "vs edge", "Coll%@64k",
                     "Exec/s"});
  u64 edge_keys = 0;

  const MetricKind metrics[] = {MetricKind::kEdge,   MetricKind::kNGram2,
                                MetricKind::kNGram,  MetricKind::kNGram4,
                                MetricKind::kNGram8, MetricKind::kContext};
  for (MetricKind m : metrics) {
    CampaignConfig c;
    c.scheme = MapScheme::kTwoLevel;  // large map: pressure measured cleanly
    c.tracing = TracingMode::kAlways;
    c.map.map_size = 8u << 20;
    c.metric = m;
    c.max_execs = bench::scaled_execs(15000);
    c.max_seconds = bench::config_seconds(6.0);
    c.seed = 4;
    auto r = run_campaign(target.program, seeds, c);
    if (m == MetricKind::kEdge) edge_keys = r.used_key;

    table.add_row(
        {metric_name(m), fmt_count(r.used_key),
         fmt_double(edge_keys > 0 ? static_cast<double>(r.used_key) /
                                        static_cast<double>(edge_keys)
                                  : 0,
                    2) +
             "x",
         fmt_double(collision_rate(65536.0, r.used_key) * 100, 1) + "%",
         fmt_double(r.steady_throughput(), 0)});
  }
  bench::emit("map_pressure", table);
  std::printf(
      "\nBigMap's costs track the distinct-key count, not the map size — "
      "so even the 8-gram's key population runs at full speed on an 8MB "
      "map.\n");
  return bench::finish();
}
