// Figure 6: test-case generation throughput of AFL vs. BigMap at 64kB,
// 256kB, 2MB, and 8MB maps across the 19 benchmarks, plus the average
// speedup line the paper headlines (0.98x / 1.4x / 4.5x / 33.1x).
//
// A `shape` table times zlib campaigns of 3,000 execs (whatever the scale)
// at 64kB and 8MB on both schemes: the wall-clock copy of the three claims
// throughput_shape_test checks on counted work.
//
// A last table runs BigMap with checkpoints every 1024 execs at 64kB, 2MB,
// 8MB, 32MB and 128MB on a fixed exec budget: snapshots encode only the
// live [0, used_key) prefix, so exec/s and snapshot bytes should not move
// with the map size. Each of its rows runs in a forked child, and the peak
// RSS column is that child's: every two-level buffer, the index included,
// follows the keys found, so it should not grow with the map either.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench_common.h"
#include "persist/checkpoint.h"

using namespace bigmap;

namespace {

struct CheckpointedRow {
  double execs_per_s = 0;
  u64 checkpoints = 0;
  u64 mean_snapshot_bytes = 0;
  double peak_rss_mb = 0;
};

// One checkpointed two-level campaign in a forked child. The child sends
// its numbers back through a pipe; wait4 reports its peak RSS.
CheckpointedRow run_checkpointed(const Program& program,
                                 const std::vector<Input>& seeds, usize size,
                                 const std::string& dir) {
  int fds[2];
  if (::pipe(fds) != 0) return {};
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    persist::CheckpointStore store(dir, persist::FaultCtx{}, /*fresh=*/true);
    CampaignConfig c = bench::throughput_config(MapScheme::kTwoLevel, size,
                                                0.0, /*seed=*/1);
    c.max_execs = bench::scaled_execs(40000);
    c.deterministic_timing = true;  // same finds, so same bytes
    c.checkpoint = &store;
    c.checkpoint_interval = 1024;
    const CampaignResult r = run_campaign(program, seeds, c);
    const persist::PersistStats ps = store.stats();
    CheckpointedRow row;
    row.execs_per_s = r.steady_throughput();
    row.checkpoints = ps.checkpoints_written;
    row.mean_snapshot_bytes = ps.checkpoints_written > 0
                                  ? ps.checkpoint_bytes / ps.checkpoints_written
                                  : 0;
    const bool sent = ::write(fds[1], &row, sizeof row) == sizeof row;
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  CheckpointedRow row;
  const bool got = pid > 0 && ::read(fds[0], &row, sizeof row) == sizeof row;
  ::close(fds[0]);
  int status = 0;
  rusage ru{};
  if (pid > 0 && ::wait4(pid, &status, 0, &ru) == pid && got &&
      WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    row.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return row;
  }
  std::fprintf(stderr, "fig6: checkpointed child for %zu B failed\n", size);
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv, "fig6");
  bench::print_header(
      "Figure 6 — Throughput vs. map size (AFL vs. BigMap)",
      "AFL collapses as maps grow (avg 4,400/s @64kB to 125/s @8MB); "
      "BigMap stays flat; avg speedups 0.98x/1.4x/4.5x/33.1x");

  const usize sizes[] = {64u << 10, 256u << 10, 2u << 20, 8u << 20};

  TableWriter table({"Benchmark", "Map", "AFL exec/s", "BigMap exec/s",
                     "Speedup"});
  double geo_sum[4] = {0, 0, 0, 0};
  double afl_sum[4] = {0, 0, 0, 0};
  double big_sum[4] = {0, 0, 0, 0};
  int count = 0;

  for (const BenchmarkInfo& info : full_table2_suite()) {
    auto target = build_benchmark(info);
    auto seeds = bench::capped_seeds(target, info);
    ++count;

    for (int si = 0; si < 4; ++si) {
      const usize size = sizes[si];
      double tput[2] = {0, 0};
      for (MapScheme scheme : {MapScheme::kFlat, MapScheme::kTwoLevel}) {
        CampaignConfig c = bench::throughput_config(
            scheme, size, bench::config_seconds(1.5), /*seed=*/1);
        auto r = run_campaign(target.program, seeds, c);
        tput[scheme == MapScheme::kTwoLevel] = r.steady_throughput();
      }
      const double speedup = tput[0] > 0 ? tput[1] / tput[0] : 0;
      geo_sum[si] += std::log(std::max(speedup, 1e-9));
      afl_sum[si] += tput[0];
      big_sum[si] += tput[1];
      table.add_row({info.name, fmt_bytes(size), fmt_double(tput[0], 0),
                     fmt_double(tput[1], 0), fmt_double(speedup, 2) + "x"});
    }
  }
  bench::emit("throughput", table);

  std::printf("\nAverages across %d benchmarks:\n", count);
  TableWriter avg({"Map", "AFL avg exec/s", "BigMap avg exec/s",
                   "Geomean speedup", "Paper avg speedup"});
  const char* paper[] = {"0.98x", "1.4x", "4.5x", "33.1x"};
  for (int si = 0; si < 4; ++si) {
    avg.add_row({fmt_bytes(sizes[si]), fmt_double(afl_sum[si] / count, 0),
                 fmt_double(big_sum[si] / count, 0),
                 fmt_double(std::exp(geo_sum[si] / count), 2) + "x",
                 paper[si]});
  }
  bench::emit("averages", avg);

  std::printf("\nMini Figure 6 on wall clock (zlib, 3000 execs, seed 17):\n");
  TableWriter shape({"Ratio", "Value", "Bound"});
  {
    const BenchmarkInfo* info = find_benchmark("zlib");
    auto target = build_benchmark(*info);
    auto seeds = benchmark_seeds(target, *info);
    auto seconds = [&](MapScheme scheme, usize size) {
      CampaignConfig c;
      c.scheme = scheme;
      c.map.map_size = size;
      c.max_execs = 3000;
      c.seed = 17;
      return run_campaign(target.program, seeds, c).wall_seconds;
    };
    const double flat_small = seconds(MapScheme::kFlat, 64u << 10);
    const double flat_large = seconds(MapScheme::kFlat, 8u << 20);
    const double two_small = seconds(MapScheme::kTwoLevel, 64u << 10);
    const double two_large = seconds(MapScheme::kTwoLevel, 8u << 20);
    shape.add_row({"flat 8M/64k", fmt_double(flat_large / flat_small, 2),
                   "> 5"});
    shape.add_row({"two-level 8M/64k", fmt_double(two_large / two_small, 2),
                   "< 3"});
    shape.add_row({"flat/two-level at 8M",
                   fmt_double(flat_large / two_large, 2), "> 4"});
  }
  bench::emit("shape", shape);

  std::printf("\nBigMap with checkpoints every 1024 execs:\n");
  TableWriter ckpt({"Benchmark", "Map", "exec/s", "vs 64kB", "Checkpoints",
                    "Snapshot bytes", "Peak RSS MB"});
  const usize ckpt_sizes[] = {64u << 10, 2u << 20, 8u << 20, 32u << 20,
                              128u << 20};
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("bigmap_fig6_ckpt_" + std::to_string(::getpid())))
          .string();
  for (const BenchmarkInfo& info : full_table2_suite()) {
    if (info.name != "zlib" && info.name != "libpng" &&
        info.name != "proj4") {
      continue;
    }
    auto target = build_benchmark(info);
    auto seeds = bench::capped_seeds(target, info);
    double base = 0;
    for (const usize size : ckpt_sizes) {
      const CheckpointedRow r =
          run_checkpointed(target.program, seeds, size, dir);
      if (size == ckpt_sizes[0]) base = r.execs_per_s;
      ckpt.add_row({info.name, fmt_bytes(size), fmt_double(r.execs_per_s, 0),
                    fmt_double(base > 0 ? r.execs_per_s / base : 0, 2) + "x",
                    std::to_string(r.checkpoints),
                    std::to_string(r.mean_snapshot_bytes),
                    fmt_double(r.peak_rss_mb, 1)});
    }
  }
  std::filesystem::remove_all(dir);
  bench::emit("checkpointed", ckpt);
  return bench::finish();
}
