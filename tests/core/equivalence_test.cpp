// Cross-scheme equivalence properties.
//
// The central correctness claim behind BigMap: for any sequence of test
// cases (key multisets), the two-level scheme makes exactly the same
// interestingness decisions as the flat scheme — the indirection changes
// *where* counts live, never *what* the fuzzer learns. These property tests
// drive both maps with identical random workloads and require identical
// NewBits verdicts at every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <vector>

#include "core/flat_map.h"
#include "core/two_level_map.h"
#include "util/rng.h"

namespace bigmap {
namespace {

struct WorkloadParams {
  usize map_size;
  u32 distinct_keys;
  u32 execs;
  u64 seed;
  bool merged;
};

// Prints each case by its fields; ctest names the cases by this text
// (gtest would otherwise print the struct's raw bytes, padding included,
// and the names would change from build to build).
void PrintTo(const WorkloadParams& p, std::ostream* os) {
  *os << "map" << p.map_size << "_keys" << p.distinct_keys << "_execs"
      << p.execs << "_seed" << p.seed << (p.merged ? "_merged" : "_split");
}

class SchemeEquivalenceTest
    : public ::testing::TestWithParam<WorkloadParams> {};

TEST_P(SchemeEquivalenceTest, IdenticalNewBitsDecisions) {
  const auto p = GetParam();

  MapOptions o;
  o.map_size = p.map_size;
  o.huge_pages = false;
  o.merged_classify_compare = p.merged;

  FlatCoverageMap flat(o);
  TwoLevelCoverageMap two(o);
  VirginMap virgin_flat(flat.map_size());
  VirginMap virgin_two(two.condensed_size());

  Xoshiro256 rng(p.seed);
  // A fixed key universe; each exec hits a random subset with random
  // multiplicity — the same stream feeds both maps.
  std::vector<u32> universe(p.distinct_keys);
  for (auto& k : universe) {
    k = static_cast<u32>(rng.next()) & static_cast<u32>(p.map_size - 1);
  }

  for (u32 e = 0; e < p.execs; ++e) {
    flat.reset();
    two.reset();

    const u32 events = 1 + rng.below(200);
    for (u32 i = 0; i < events; ++i) {
      const u32 key = universe[rng.below(p.distinct_keys)];
      flat.update(key);
      two.update(key);
    }

    const NewBits nb_flat = flat.classify_and_compare(virgin_flat);
    const NewBits nb_two = two.classify_and_compare(virgin_two);
    EXPECT_EQ(nb_flat, nb_two) << "exec " << e;

    // Nonzero-count parity: the same number of positions must be hot.
    ASSERT_EQ(flat.count_nonzero(), two.count_nonzero()) << "exec " << e;
  }

  // Global coverage parity: both virgin maps record the same number of
  // covered positions.
  EXPECT_EQ(virgin_flat.count_covered(), virgin_two.count_covered());
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SchemeEquivalenceTest,
    ::testing::Values(WorkloadParams{1u << 10, 16, 100, 1, true},
                      WorkloadParams{1u << 10, 16, 100, 2, false},
                      WorkloadParams{1u << 12, 200, 150, 3, true},
                      WorkloadParams{1u << 16, 1000, 100, 4, true},
                      WorkloadParams{1u << 16, 5000, 60, 5, false},
                      WorkloadParams{1u << 20, 20000, 30, 6, true}));

TEST(SchemeEquivalenceTest, HitCountsMatchPerKey) {
  // Stronger: per-key raw counts agree (flat at the key position, two-level
  // at the condensed slot).
  MapOptions o;
  o.map_size = 1u << 12;
  o.huge_pages = false;
  FlatCoverageMap flat(o);
  TwoLevelCoverageMap two(o);

  Xoshiro256 rng(42);
  std::vector<u32> keys;
  for (int i = 0; i < 300; ++i) {
    const u32 k = rng.below(1u << 12);
    keys.push_back(k);
    flat.update(k);
    two.update(k);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (u32 k : keys) {
    const u32 slot = two.slot_of(k);
    ASSERT_NE(slot, TwoLevelCoverageMap::kUnassigned);
    EXPECT_EQ(flat.trace()[k], two.full_coverage()[slot]) << "key " << k;
  }
}

}  // namespace
}  // namespace bigmap
