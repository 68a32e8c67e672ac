// Table II benchmark registry: 19 calibrated profiles, the LLVM and
// composition subsets, lookup, determinism, and scale calibration.
#include "target/suite.h"

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "target/interpreter.h"

namespace bigmap {
namespace {

TEST(SuiteTest, HasTheNineteenTableTwoProfiles) {
  EXPECT_EQ(full_table2_suite().size(), 19u);
  std::set<std::string> names;
  for (const BenchmarkInfo& info : full_table2_suite()) {
    names.insert(info.name);
  }
  EXPECT_EQ(names.size(), 19u);  // unique
  for (const char* expected :
       {"zlib", "libpng", "proj4", "bloaty", "openssl", "php", "sqlite3",
        "gvn", "instcombine", "licm"}) {
    EXPECT_TRUE(names.count(expected)) << expected;
  }
}

TEST(SuiteTest, LlvmSuiteIsTheTwelvePassHarnesses) {
  EXPECT_EQ(llvm_suite().size(), 12u);
  for (const BenchmarkInfo& info : llvm_suite()) {
    EXPECT_EQ(info.version.rfind("LLVM", 0), 0u) << info.name;
  }
}

TEST(SuiteTest, CompositionSuiteMirrorsTheLlvmHarnesses) {
  EXPECT_EQ(composition_suite().size(), 12u);
  for (const BenchmarkInfo& info : composition_suite()) {
    ASSERT_GT(info.name.size(), 5u);
    EXPECT_EQ(info.name.substr(info.name.size() - 5), "+comp") << info.name;
    // Denser splittable material than the base profile.
    EXPECT_GE(info.gen.frac_wide_cmp, 0.5);
  }
  EXPECT_NE(find_benchmark("gvn+comp"), nullptr);
}

TEST(SuiteTest, FindBenchmarkLooksUpAllSuites) {
  const BenchmarkInfo* zlib = find_benchmark("zlib");
  ASSERT_NE(zlib, nullptr);
  EXPECT_EQ(zlib->name, "zlib");
  EXPECT_GT(zlib->num_seeds, 0u);
  ASSERT_NE(find_benchmark("instcombine+comp"), nullptr);
  EXPECT_EQ(find_benchmark("definitely-not-a-benchmark"), nullptr);
}

TEST(SuiteTest, PaperColumnsAreOrderedLikeTableTwo) {
  // Discovered edges ascend from zlib to instcombine.
  u64 prev = 0;
  for (const BenchmarkInfo& info : full_table2_suite()) {
    EXPECT_GT(info.paper_discovered_edges, prev) << info.name;
    prev = info.paper_discovered_edges;
  }
  EXPECT_EQ(full_table2_suite().front().name, "zlib");
  EXPECT_EQ(full_table2_suite().back().name, "instcombine");
  // ≈0.7k–131k discoverable edges, as in the paper.
  EXPECT_LT(full_table2_suite().front().paper_discovered_edges, 1000u);
  EXPECT_GT(full_table2_suite().back().paper_discovered_edges, 100000u);
}

TEST(SuiteTest, BuildBenchmarkIsDeterministic) {
  const BenchmarkInfo* info = find_benchmark("zlib");
  ASSERT_NE(info, nullptr);
  const GeneratedTarget a = build_benchmark(*info);
  const GeneratedTarget b = build_benchmark(*info);
  EXPECT_EQ(a.program.blocks.size(), b.program.blocks.size());
  EXPECT_EQ(a.program.static_edge_count(), b.program.static_edge_count());
  EXPECT_EQ(a.tokens, b.tokens);
}

TEST(SuiteTest, BenchmarkSeedsMatchTheProfile) {
  const BenchmarkInfo* info = find_benchmark("proj4");
  ASSERT_NE(info, nullptr);
  const GeneratedTarget target = build_benchmark(*info);
  const auto seeds = benchmark_seeds(target, *info);
  ASSERT_EQ(seeds.size(), info->num_seeds);
  for (const auto& seed : seeds) {
    EXPECT_EQ(seed.size(), target.program.nominal_input_size);
  }
  EXPECT_EQ(benchmark_seeds(target, *info), seeds);  // deterministic
}

TEST(SuiteTest, ProfileScaleTracksThePaperOrdering) {
  const usize zlib_edges =
      build_benchmark(*find_benchmark("zlib")).program.static_edge_count();
  const usize gvn_edges =
      build_benchmark(*find_benchmark("gvn")).program.static_edge_count();
  const usize instcombine_edges =
      build_benchmark(*find_benchmark("instcombine"))
          .program.static_edge_count();
  EXPECT_LT(zlib_edges, gvn_edges);
  EXPECT_LT(gvn_edges, instcombine_edges);
  EXPECT_GT(instcombine_edges, 20000u);
}

TEST(SuiteTest, EveryProfileBuildsValidatesAndRunsItsSeeds) {
  for (const BenchmarkInfo& info : full_table2_suite()) {
    GeneratedTarget target = build_benchmark(info);
    EXPECT_NO_THROW(target.program.validate()) << info.name;
    EXPECT_EQ(target.program.num_bugs, info.gen.num_bugs) << info.name;
    // The first few seeds execute without hanging on the default budget.
    Interpreter interp(1u << 16);
    const auto seeds = benchmark_seeds(target, info);
    for (usize i = 0; i < 3 && i < seeds.size(); ++i) {
      const ExecResult res = interp.run(target.program, seeds[i], [](u32) {});
      EXPECT_FALSE(res.hung()) << info.name << " seed " << i;
    }
  }
}

}  // namespace
}  // namespace bigmap
