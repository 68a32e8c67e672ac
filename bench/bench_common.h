// Shared plumbing for the bench harnesses.
//
// Every bench binary regenerates one table or figure of the paper and
// prints the corresponding rows/series. Campaign lengths scale with the
// BIGMAP_BENCH_SCALE environment variable (default 1.0): 0.2 gives a quick
// smoke pass, 5.0 a long high-fidelity run. Seeds-per-benchmark are capped
// so multi-megabyte-map seed phases do not dominate short runs (the paper
// amortizes them over 24 h); the cap scales with BIGMAP_BENCH_SCALE in both
// directions (floor 16, so smoke runs stay fast).
//
// Machine-readable reporting: every bench accepts `--json <path>` (or
// BIGMAP_BENCH_JSON=<path>) and then serializes each table it prints into
// one schema-stable JSON document (telemetry::BenchReport, schema_version
// 1) so CI can commit BENCH_*.json artifacts and diff perf trajectories
// across PRs. `--telemetry-dir <dir>` (or BIGMAP_TELEMETRY_DIR) makes the
// benches that run live campaigns also emit AFL-style fuzzer_stats /
// plot_data trees. Usage pattern:
//
//   int main(int argc, char** argv) {
//     bench::init(argc, argv, "fig6");
//     bench::print_header(...);
//     ...
//     bench::emit("throughput", table);   // prints AND records the table
//     return bench::finish();             // writes the JSON when requested
//   }
#pragma once

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/kernels/kernels.h"
#include "fuzzer/campaign.h"
#include "fuzzer/exec_pool.h"
#include "target/suite.h"
#include "telemetry/bench_report.h"
#include "util/report.h"

namespace bigmap::bench {

inline double scale() {
  static const double s = [] {
    const char* env = std::getenv("BIGMAP_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const double v = std::atof(env);
    return v > 0.0 ? v : 1.0;
  }();
  return s;
}

// Seconds a single campaign configuration is given (base x scale).
inline double config_seconds(double base) { return base * scale(); }

// Execution budget scaled.
inline u64 scaled_execs(u64 base) {
  return static_cast<u64>(static_cast<double>(base) * scale());
}

// Cap on seeds fed to a campaign, proportional to scale in both directions
// (sub-1.0 smoke scales shrink the seed phase too; floor 16 keeps every
// campaign startable).
inline u32 seed_cap() {
  const double scaled = 256.0 * scale();
  return scaled < 16.0 ? 16u : static_cast<u32>(scaled);
}

inline std::vector<Input> capped_seeds(const GeneratedTarget& target,
                                       const BenchmarkInfo& info) {
  auto seeds = benchmark_seeds(target, info);
  if (seeds.size() > seed_cap()) seeds.resize(seed_cap());
  return seeds;
}

// Standard campaign config for throughput-style benches. Every exec runs
// traced: the paper's AFL scans its whole map on every exec, and only
// bench_tracing_fastpath measures the untraced fast path.
inline CampaignConfig throughput_config(MapScheme scheme, usize map_size,
                                        double seconds, u64 seed = 1) {
  CampaignConfig c;
  c.scheme = scheme;
  c.tracing = TracingMode::kAlways;
  c.map.map_size = map_size;
  c.max_execs = 0;
  c.max_seconds = seconds;
  c.seed = seed;
  return c;
}

// --- machine-readable reporting ---------------------------------------------

struct ReportState {
  std::string bench_name;
  std::string json_path;      // empty = console only
  std::string telemetry_dir;  // empty = no fuzzer_stats/plot_data trees
  std::unique_ptr<telemetry::BenchReport> report;
};

inline ReportState& report_state() {
  static ReportState s;
  return s;
}

// Parses --json <path> / --telemetry-dir <dir> (falling back to the
// BIGMAP_BENCH_JSON / BIGMAP_TELEMETRY_DIR environment variables) and
// prepares the report. Call first in main(); unknown arguments are
// rejected so CI typos fail loudly.
inline void init(int argc, char** argv, const char* bench_name) {
  ReportState& s = report_state();
  s.bench_name = bench_name;
  if (const char* env = std::getenv("BIGMAP_BENCH_JSON")) s.json_path = env;
  if (const char* env = std::getenv("BIGMAP_TELEMETRY_DIR")) {
    s.telemetry_dir = env;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      s.json_path = argv[++i];
    } else if (arg == "--telemetry-dir" && i + 1 < argc) {
      s.telemetry_dir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json <path>] [--telemetry-dir <dir>]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  s.report =
      std::make_unique<telemetry::BenchReport>(s.bench_name, scale());
  // Which whole-map kernel this process dispatches to (BIGMAP_KERNEL /
  // best available) — recorded so BENCH_*.json perf trajectories are
  // attributable to the kernel that produced them.
  s.report->set_meta("kernel", std::string(kernels::active_kernel().name));
}

inline telemetry::BenchReport& report() {
  ReportState& s = report_state();
  if (s.report == nullptr) {
    // Bench forgot bench::init (or a test calls emit directly): still
    // record, with defaults.
    s.report = std::make_unique<telemetry::BenchReport>("unnamed", scale());
    s.report->set_meta("kernel",
                       std::string(kernels::active_kernel().name));
  }
  return *s.report;
}

inline const std::string& telemetry_dir() {
  return report_state().telemetry_dir;
}

// Prints `table` to stdout and records it into the JSON report.
inline void emit(const std::string& table_name, const TableWriter& table) {
  table.print(std::cout);
  report().add_table(table_name, table);
}

// Writes the JSON report when --json/BIGMAP_BENCH_JSON was given. Returns
// the process exit code (1 on write failure).
inline int finish() {
  ReportState& s = report_state();
  if (s.json_path.empty()) return 0;
  if (!report().write_file(s.json_path)) {
    std::fprintf(stderr, "failed to write JSON report to %s\n",
                 s.json_path.c_str());
    return 1;
  }
  std::printf("\nJSON report written to %s\n", s.json_path.c_str());
  return 0;
}

inline void print_header(const char* experiment, const char* claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Paper claim: %s\n", claim);
  std::printf("Scale: %.2f (set BIGMAP_BENCH_SCALE to adjust)\n", scale());
  std::printf("================================================================\n\n");
  report().set_meta("experiment", std::string(experiment));
  report().set_meta("claim", std::string(claim));
}

}  // namespace bigmap::bench
