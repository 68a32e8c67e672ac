// Tests for virgin-map semantics and the has_new_bits comparison.
#include "core/virgin.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/classify.h"
#include "util/rng.h"

namespace bigmap {
namespace {

// Reference byte-by-byte implementation of AFL's has_new_bits.
NewBits reference_compare(const u8* trace, u8* virgin, usize len) {
  NewBits result = NewBits::kNone;
  for (usize i = 0; i < len; ++i) {
    if (trace[i] != 0 && (trace[i] & virgin[i]) != 0) {
      if (virgin[i] == 0xFF) {
        result = NewBits::kNewTuple;
      } else if (result == NewBits::kNone) {
        result = NewBits::kNewCounts;
      }
      virgin[i] = static_cast<u8>(virgin[i] & ~trace[i]);
    }
  }
  return result;
}

TEST(VirginMapTest, InitializedToAllOnes) {
  VirginMap v(256);
  for (usize i = 0; i < v.size(); ++i) EXPECT_EQ(v.data()[i], 0xFF);
  EXPECT_EQ(v.count_covered(), 0u);
}

TEST(VirginMapTest, CountCoveredTracksClearedBytes) {
  VirginMap v(64);
  v.data()[3] = 0xFE;
  v.data()[10] = 0x00;
  EXPECT_EQ(v.count_covered(), 2u);
  v.reset();
  EXPECT_EQ(v.count_covered(), 0u);
}

// A lazy map stores only the prefix fill_to() reached, in whole pages;
// every byte past it is virgin by definition.
TEST(VirginMapTest, LazyMapFillsWholePagesOnDemand) {
  VirginMap v = VirginMap::lazy(5 * 4096 + 100);
  EXPECT_EQ(v.filled(), 0u);
  EXPECT_EQ(v.count_covered(), 0u);
  v.fill_to(1);
  EXPECT_EQ(v.filled(), 4096u);
  v.fill_to(4096);
  EXPECT_EQ(v.filled(), 4096u);
  v.fill_to(4097);
  EXPECT_EQ(v.filled(), 2 * 4096u);
  for (usize i = 0; i < v.filled(); ++i) ASSERT_EQ(v.data()[i], 0xFF) << i;
  v.fill_to(v.size());
  EXPECT_EQ(v.filled(), v.size());  // the last page is partial

  VirginMap w = VirginMap::lazy(5 * 4096);
  w.data()[7] = 0;
  w.fill_to(8);  // a byte written before the fill is overwritten by it
  EXPECT_EQ(w.count_covered(), 0u);
  w.data()[7] = 0;
  w.data()[3 * 4096] = 0x12;  // past the filled prefix: not counted
  EXPECT_EQ(w.count_covered(), 1u);
  w.reset();
  EXPECT_EQ(w.count_covered(), 0u);
}

// restore_prefix() makes the restored bytes part of the stored prefix.
TEST(VirginMapTest, RestorePrefixExtendsTheFilledPrefix) {
  VirginMap v = VirginMap::lazy(4 * 4096);
  const std::vector<u8> bytes(4096 + 10, 0x0F);
  v.restore_prefix(bytes);
  EXPECT_EQ(v.filled(), 2 * 4096u);
  EXPECT_EQ(v.count_covered(), bytes.size());
  EXPECT_EQ(std::memcmp(v.data(), bytes.data(), bytes.size()), 0);
  for (usize i = bytes.size(); i < v.filled(); ++i) {
    ASSERT_EQ(v.data()[i], 0xFF) << i;
  }
}

TEST(CompareVirginTest, EmptyTraceIsNone) {
  std::vector<u8> trace(64, 0);
  VirginMap virgin(64);
  EXPECT_EQ(compare_and_update_virgin(trace.data(), virgin.data(), 64),
            NewBits::kNone);
}

TEST(CompareVirginTest, FirstHitIsNewTuple) {
  std::vector<u8> trace(64, 0);
  trace[5] = 1;
  VirginMap virgin(64);
  EXPECT_EQ(compare_and_update_virgin(trace.data(), virgin.data(), 64),
            NewBits::kNewTuple);
  // Virgin bit cleared: repeating the identical trace is no longer new.
  EXPECT_EQ(compare_and_update_virgin(trace.data(), virgin.data(), 64),
            NewBits::kNone);
}

TEST(CompareVirginTest, NewBucketOnKnownEdgeIsNewCounts) {
  std::vector<u8> trace(64, 0);
  trace[5] = 1;  // bucket 1
  VirginMap virgin(64);
  compare_and_update_virgin(trace.data(), virgin.data(), 64);

  trace[5] = 2;  // bucket 2 on the same edge
  EXPECT_EQ(compare_and_update_virgin(trace.data(), virgin.data(), 64),
            NewBits::kNewCounts);
}

TEST(CompareVirginTest, NewTupleDominatesNewCounts) {
  std::vector<u8> trace(64, 0);
  trace[0] = 1;
  VirginMap virgin(64);
  compare_and_update_virgin(trace.data(), virgin.data(), 64);

  trace[0] = 2;   // would be new-counts
  trace[20] = 1;  // brand-new tuple
  EXPECT_EQ(compare_and_update_virgin(trace.data(), virgin.data(), 64),
            NewBits::kNewTuple);
}

TEST(CompareVirginTest, TailBytesBeyondWordMultipleChecked) {
  // len == 13: tail handling must see position 12.
  std::vector<u8> trace(13, 0);
  trace[12] = 1;
  VirginMap virgin(16);
  EXPECT_EQ(compare_and_update_virgin(trace.data(), virgin.data(), 13),
            NewBits::kNewTuple);
  EXPECT_EQ(virgin.data()[12], 0xFE);
  // Byte 13 must be untouched (outside the compared prefix).
  EXPECT_EQ(virgin.data()[13], 0xFF);
}

TEST(CompareVirginTest, MatchesReferenceOnRandomData) {
  Xoshiro256 rng(2024);
  for (int round = 0; round < 200; ++round) {
    const usize len = 8 * (1 + rng.below(64));
    std::vector<u8> trace(len, 0);
    for (usize i = 0; i < len; ++i) {
      if (rng.chance(1, 8)) trace[i] = classify_count(static_cast<u8>(rng.next()));
    }
    VirginMap v1(len), v2(len);
    // Pre-dirty both virgin maps identically.
    for (usize i = 0; i < len; ++i) {
      if (rng.chance(1, 4)) {
        const u8 d = static_cast<u8>(rng.next() | 1);
        v1.data()[i] = d;
        v2.data()[i] = d;
      }
    }
    std::vector<u8> ref_virgin(v2.data(), v2.data() + len);

    const NewBits fast =
        compare_and_update_virgin(trace.data(), v1.data(), len);
    const NewBits ref =
        reference_compare(trace.data(), ref_virgin.data(), len);

    EXPECT_EQ(fast, ref) << "round " << round;
    EXPECT_EQ(std::memcmp(v1.data(), ref_virgin.data(), len), 0)
        << "round " << round;
  }
}

TEST(ClassifyCompareMergedTest, EquivalentToSequentialOps) {
  Xoshiro256 rng(31337);
  for (int round = 0; round < 200; ++round) {
    const usize len = 8 * (1 + rng.below(32));
    std::vector<u8> raw(len, 0);
    for (usize i = 0; i < len; ++i) {
      if (rng.chance(1, 6)) raw[i] = static_cast<u8>(rng.next());
    }

    // Path A: merged single-pass.
    std::vector<u8> trace_a = raw;
    VirginMap virgin_a(len);
    const NewBits a =
        classify_compare_update(trace_a.data(), virgin_a.data(), len);

    // Path B: classify then compare.
    std::vector<u8> trace_b = raw;
    classify_counts(trace_b.data(), len);
    VirginMap virgin_b(len);
    const NewBits b =
        compare_and_update_virgin(trace_b.data(), virgin_b.data(), len);

    EXPECT_EQ(a, b) << "round " << round;
    EXPECT_EQ(trace_a, trace_b) << "round " << round;
    EXPECT_EQ(std::memcmp(virgin_a.data(), virgin_b.data(), len), 0)
        << "round " << round;
  }
}

TEST(ClassifyCompareMergedTest, OddTailLengths) {
  for (usize len : {1u, 3u, 9u, 15u, 17u, 23u}) {
    std::vector<u8> trace(len, 0);
    trace[len - 1] = 200;  // raw count; classifies to 128
    VirginMap virgin(len + 8);
    const NewBits nb =
        classify_compare_update(trace.data(), virgin.data(), len);
    EXPECT_EQ(nb, NewBits::kNewTuple) << len;
    EXPECT_EQ(trace[len - 1], 128) << len;
  }
}

}  // namespace
}  // namespace bigmap
