#include "target/suite.h"

#include <algorithm>

namespace bigmap {

namespace {

// Application harness: default gate mix, paper columns from Table II.
BenchmarkInfo app(const char* name, const char* version, u32 num_seeds,
                  u64 paper_edges, u64 paper_static, double paper_coll,
                  u32 live, u32 dead, u32 bugs, u64 seed) {
  BenchmarkInfo info;
  info.name = name;
  info.version = version;
  info.num_seeds = num_seeds;
  info.paper_discovered_edges = paper_edges;
  info.paper_static_edges = paper_static;
  info.paper_collision_rate = paper_coll;
  info.gen.name = name;
  info.gen.seed = seed;
  info.gen.live_blocks = live;
  info.gen.dead_blocks = dead;
  info.gen.num_bugs = bugs;
  info.gen.bug_min_depth = 1;
  info.gen.bug_max_depth = 3;
  return info;
}

// LLVM-opt pass harness: denser hard/multi-byte gates and more functions,
// matching the bitcode-shaped inputs the paper fuzzed through opt.
BenchmarkInfo llvm_pass(const char* name, u32 num_seeds, u64 paper_edges,
                        u64 paper_static, double paper_coll, u32 live,
                        u32 bugs, u64 seed) {
  BenchmarkInfo info =
      app(name, "LLVM 12.0.0", num_seeds, paper_edges, paper_static,
          paper_coll, live, live / 12, bugs, seed);
  info.gen.frac_wide_cmp = 0.22;
  info.gen.frac_hard_eq = 0.45;
  info.gen.frac_switch = 0.10;
  info.gen.frac_strcmp = 0.04;
  info.gen.frac_loop = 0.10;
  info.gen.frac_call = 0.12;
  info.gen.num_functions = 6;
  return info;
}

std::vector<BenchmarkInfo> make_full_suite() {
  std::vector<BenchmarkInfo> s;
  // Applications (Table II upper half), ascending discovered edges.
  s.push_back(app("zlib", "1.2.11", 64, 778, 1723, 0.59, 1100, 100, 4, 101));
  s.push_back(app("libpng", "1.6.38", 80, 2456, 4786, 1.85, 1900, 200, 6, 102));
  s.push_back(app("proj4", "8.1.1", 44, 6422, 9211, 4.66, 4200, 300, 8, 103));
  s.push_back(
      app("bloaty", "2020-05-25", 90, 8871, 42318, 6.33, 6200, 500, 10, 104));
  s.push_back(
      app("openssl", "3.0.0", 128, 10327, 45989, 7.30, 7400, 600, 10, 105));
  s.push_back(app("php", "8.0.1", 120, 13560, 63522, 9.38, 9000, 700, 12, 106));
  s.push_back(
      app("sqlite3", "3.36.0", 150, 20035, 48338, 13.39, 11500, 900, 12, 107));
  // The 12 LLVM-opt pass harnesses (Table II lower half).
  s.push_back(llvm_pass("adce", 100, 24210, 52400, 15.6, 13500, 14, 201));
  s.push_back(
      llvm_pass("reassociate", 100, 25117, 54400, 16.1, 14000, 14, 202));
  s.push_back(llvm_pass("mem2reg", 100, 26233, 56800, 16.8, 14500, 14, 203));
  s.push_back(llvm_pass("dse", 100, 27904, 60400, 17.6, 15500, 14, 204));
  s.push_back(
      llvm_pass("jump-threading", 100, 30218, 65400, 18.8, 16500, 15, 205));
  s.push_back(llvm_pass("sccp", 100, 32980, 71400, 20.2, 18000, 15, 206));
  s.push_back(llvm_pass("early-cse", 100, 34822, 75400, 21.0, 19000, 16, 207));
  s.push_back(
      llvm_pass("loop-unroll", 100, 40663, 87900, 23.8, 20500, 16, 208));
  s.push_back(llvm_pass("licm", 100, 46104, 99700, 26.2, 23000, 16, 209));
  s.push_back(llvm_pass("gvn", 100, 52377, 113200, 28.9, 25500, 18, 210));
  s.push_back(
      llvm_pass("simplifycfg", 100, 59317, 128200, 31.6, 27500, 18, 211));
  s.push_back(
      llvm_pass("instcombine", 100, 130941, 262144, 57.3, 33000, 20, 212));
  return s;
}

bool is_llvm(const BenchmarkInfo& info) {
  return info.version.rfind("LLVM", 0) == 0;
}

std::vector<BenchmarkInfo> make_composition_suite() {
  std::vector<BenchmarkInfo> s;
  for (const BenchmarkInfo& base : full_table2_suite()) {
    if (!is_llvm(base)) continue;
    BenchmarkInfo comp = base;
    comp.name += "+comp";
    comp.gen.name += "+comp";
    comp.gen.seed ^= 0xc0c0c0c0ULL;
    // Table III workload: saturate the CFG with splittable material so
    // laf-intel + N-gram drives map pressure toward the paper's ~87 %
    // collision regime at 64 kB.
    comp.gen.frac_wide_cmp = 0.50;
    comp.gen.frac_hard_eq = 0.60;
    comp.gen.frac_switch = 0.15;
    comp.gen.frac_strcmp = 0.15;
    comp.paper_discovered_edges = base.paper_discovered_edges * 46 / 10;
    comp.paper_static_edges = base.paper_static_edges * 46 / 10;
    comp.paper_collision_rate =
        std::min(95.0, base.paper_collision_rate * 3.2);
    s.push_back(std::move(comp));
  }
  return s;
}

}  // namespace

const std::vector<BenchmarkInfo>& full_table2_suite() {
  static const std::vector<BenchmarkInfo> suite = make_full_suite();
  return suite;
}

const std::vector<BenchmarkInfo>& llvm_suite() {
  static const std::vector<BenchmarkInfo> suite = [] {
    std::vector<BenchmarkInfo> s;
    for (const BenchmarkInfo& info : full_table2_suite()) {
      if (is_llvm(info)) s.push_back(info);
    }
    return s;
  }();
  return suite;
}

const std::vector<BenchmarkInfo>& composition_suite() {
  static const std::vector<BenchmarkInfo> suite = make_composition_suite();
  return suite;
}

const BenchmarkInfo* find_benchmark(std::string_view name) {
  for (const BenchmarkInfo& info : full_table2_suite()) {
    if (info.name == name) return &info;
  }
  for (const BenchmarkInfo& info : composition_suite()) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

GeneratedTarget build_benchmark(const BenchmarkInfo& info) {
  return generate_target(info.gen);
}

std::vector<std::vector<u8>> benchmark_seeds(const GeneratedTarget& target,
                                             const BenchmarkInfo& info) {
  return make_seed_corpus(target, info.num_seeds, info.gen.seed ^ 0x5eedULL);
}

}  // namespace bigmap
