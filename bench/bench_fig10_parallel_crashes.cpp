// Figure 10: unique crashes found with a varying number of fuzzing
// instances at a fixed 2MB map.
//
// Virtual-time protocol (single-core host; see DESIGN.md): the SMP cache
// model supplies each scheme's per-instance throughput at n instances;
// each instance then really executes throughput x T_virtual test cases,
// sharing a corpus-sync hub. Instances run sequentially (deterministic),
// importing everything earlier instances published — the master-secondary
// sync of §V-D. Crashes are unioned across instances by Crashwalk hash
// and by ground-truth bug id.
// Set BIGMAP_REAL_THREADS=1 to additionally run the campaign on real
// std::threads under the fault-tolerant supervisor (shared SyncHub, crash
// union across instances) instead of the sequential virtual-time protocol.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <unordered_set>

#include "bench_common.h"
#include "cachesim/smp.h"
#include "fuzzer/supervisor.h"
#include "fuzzer/sync.h"

using namespace bigmap;

namespace {

bool real_threads_enabled() {
  const char* env = std::getenv("BIGMAP_REAL_THREADS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// Concurrent (wall-clock-interleaved) instances with supervision; crashes
// are unioned by the supervisor exactly as the virtual-time protocol
// unions them per scheme.
void run_real_thread_section() {
  std::printf("\nReal-thread supervised campaigns (measured):\n");

  const BenchmarkInfo* info = find_benchmark("licm");
  if (info == nullptr) return;
  auto target = build_benchmark(*info);
  auto seeds = bench::capped_seeds(target, *info);

  const u32 counts[] = {1, 2, 4};
  TableWriter table({"Instances", "AFL crashes", "BigMap crashes",
                     "AFL execs", "BigMap execs", "restarts"});
  for (u32 n : counts) {
    u64 crashes[2] = {0, 0};
    u64 execs[2] = {0, 0};
    u64 restarts = 0;
    for (MapScheme scheme : {MapScheme::kFlat, MapScheme::kTwoLevel}) {
      const int i = scheme == MapScheme::kTwoLevel;
      SupervisorConfig sc;
      sc.num_instances = n;
      sc.base.scheme = scheme;
      sc.base.map.map_size = 2u << 20;
      sc.base.max_execs = bench::scaled_execs(6000);
      sc.base.seed = 0xF16'0A;
      auto r = run_supervised_campaign(target.program, seeds, sc);
      crashes[i] = r.found_stack_hashes.size();
      execs[i] = r.total_execs;
      restarts += r.total_restarts;
    }
    table.add_row({std::to_string(n), fmt_count(crashes[0]),
                   fmt_count(crashes[1]), fmt_count(execs[0]),
                   fmt_count(execs[1]), std::to_string(restarts)});
  }
  bench::emit("real_thread_crashes", table);
  std::printf(
      "Note: concurrent instances share one SyncHub and a per-instance "
      "exec budget; on a single-core host the schemes' wall-clock gap "
      "does not show, so compare crash unions, not runtimes.\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv, "fig10");
  bench::print_header(
      "Figure 10 — Unique crashes vs. number of instances (2MB map)",
      "AFL's crash yield suffers from its throughput collapse; BigMap "
      "finds 20%/36%/49% more crashes at 4/8/12 instances");

  const u32 counts[] = {1, 4, 8, 12};
  const char* names[] = {"licm", "gvn", "instcombine"};

  // Virtual seconds of fuzzing per instance (scaled).
  const double virtual_seconds = 2.0 * bench::scale();

  TableWriter table({"Benchmark", "Instances", "AFL crashes",
                     "BigMap crashes", "AFL execs", "BigMap execs"});
  u64 totals[2][4] = {};

  for (const char* name : names) {
    const BenchmarkInfo* info = find_benchmark(name);
    if (info == nullptr) continue;
    auto target = build_benchmark(*info);
    auto seeds = bench::capped_seeds(target, *info);

    for (int ci = 0; ci < 4; ++ci) {
      const u32 n = counts[ci];
      u64 crashes[2] = {0, 0};
      u64 execs[2] = {0, 0};

      for (MapScheme scheme : {MapScheme::kFlat, MapScheme::kTwoLevel}) {
        const int i = scheme == MapScheme::kTwoLevel;

        // Per-instance throughput under n-way contention, from the model;
        // normalized so BigMap n=1 runs ~3000 real execs per virtual
        // second (keeps runtimes bounded while preserving ratios).
        SmpParams sp;
        sp.scheme = scheme;
        sp.map_size = 2u << 20;
        sp.used_keys = 50000;
        sp.edges_per_exec = 5000;
        sp.instances = n;
        auto model_n = simulate_parallel_fuzzing(sp);
        sp.scheme = MapScheme::kTwoLevel;
        sp.instances = 1;
        auto model_ref = simulate_parallel_fuzzing(sp);
        const double execs_per_vsec = 3000.0 * model_n.instance_throughput /
                                      model_ref.instance_throughput;
        const u64 budget = static_cast<u64>(
            std::max(50.0, execs_per_vsec * virtual_seconds));

        SyncHub hub(n);
        std::unordered_set<u64> stack_union;
        std::unordered_set<u32> bug_union;
        for (u32 inst = 0; inst < n; ++inst) {
          CampaignConfig c;
          c.scheme = scheme;
          c.tracing = TracingMode::kAlways;
          c.map.map_size = 2u << 20;
          c.max_execs = budget;
          c.seed = 0xF16'0A + inst;
          c.sync = &hub;
          c.sync_id = inst;
          c.is_master = (inst == 0);
          auto r = run_campaign(target.program, seeds, c);
          execs[i] += r.execs;
          for (u64 h : r.found_stack_hashes) stack_union.insert(h);
          for (u32 b : r.found_bug_ids) bug_union.insert(b);
        }
        crashes[i] = stack_union.size();
        totals[i][ci] += crashes[i];
      }

      table.add_row({info->name, std::to_string(n), fmt_count(crashes[0]),
                     fmt_count(crashes[1]), fmt_count(execs[0]),
                     fmt_count(execs[1])});
    }
  }
  bench::emit("unique_crashes", table);

  std::printf("\nTotals (Crashwalk-unique, unioned across instances):\n");
  TableWriter tot({"Instances", "AFL", "BigMap", "BigMap advantage"});
  for (int ci = 0; ci < 4; ++ci) {
    const double adv =
        totals[0][ci] > 0
            ? 100.0 *
                  (static_cast<double>(totals[1][ci]) - totals[0][ci]) /
                  totals[0][ci]
            : 0.0;
    tot.add_row({std::to_string(counts[ci]), fmt_count(totals[0][ci]),
                 fmt_count(totals[1][ci]), fmt_double(adv, 0) + "%"});
  }
  bench::emit("totals", tot);
  std::printf("\nPaper: +20%% / +36%% / +49%% more crashes at 4/8/12 "
              "instances.\n");

  if (real_threads_enabled()) {
    run_real_thread_section();
  } else {
    std::printf(
        "\nSet BIGMAP_REAL_THREADS=1 for measured real-thread supervised "
        "campaigns alongside the virtual-time protocol.\n");
  }
  return bench::finish();
}
