// Tests for virgin-map semantics and the has_new_bits comparison.
#include "core/virgin.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/classify.h"
#include "core/kernels/kernels.h"
#include "util/rng.h"

namespace bigmap {
namespace {

using kernels::KernelOps;

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

// The comparison is a kernel op (compare_update, and classify_compare fused
// with classification); every case below runs under each kernel this CPU
// can execute.

TEST(CompareVirginTest, EmptyTraceIsNone) {
  for (const KernelOps* k : kernels::runtime_kernels()) {
    std::vector<u8> trace(64, 0);
    VirginMap virgin(64);
    EXPECT_EQ(k->compare_update(trace.data(), virgin.data(), 64),
              NewBits::kNone)
        << k->name;
  }
}

TEST(CompareVirginTest, FirstHitIsNewTuple) {
  for (const KernelOps* k : kernels::runtime_kernels()) {
    std::vector<u8> trace(64, 0);
    trace[5] = 1;
    VirginMap virgin(64);
    EXPECT_EQ(k->compare_update(trace.data(), virgin.data(), 64),
              NewBits::kNewTuple)
        << k->name;
    // Virgin bit cleared: repeating the identical trace is no longer new.
    EXPECT_EQ(k->compare_update(trace.data(), virgin.data(), 64),
              NewBits::kNone)
        << k->name;
  }
}

TEST(CompareVirginTest, NewBucketOnKnownEdgeIsNewCounts) {
  for (const KernelOps* k : kernels::runtime_kernels()) {
    std::vector<u8> trace(64, 0);
    trace[5] = 1;  // bucket 1
    VirginMap virgin(64);
    k->compare_update(trace.data(), virgin.data(), 64);

    trace[5] = 2;  // bucket 2 on the same edge
    EXPECT_EQ(k->compare_update(trace.data(), virgin.data(), 64),
              NewBits::kNewCounts)
        << k->name;
  }
}

TEST(CompareVirginTest, NewTupleDominatesNewCounts) {
  for (const KernelOps* k : kernels::runtime_kernels()) {
    std::vector<u8> trace(64, 0);
    trace[0] = 1;
    VirginMap virgin(64);
    k->compare_update(trace.data(), virgin.data(), 64);

    trace[0] = 2;   // would be new-counts
    trace[20] = 1;  // brand-new tuple
    EXPECT_EQ(k->compare_update(trace.data(), virgin.data(), 64),
              NewBits::kNewTuple)
        << k->name;
  }
}

TEST(CompareVirginTest, TailBytesBeyondWordMultipleChecked) {
  for (const KernelOps* k : kernels::runtime_kernels()) {
    // len == 13: tail handling must see position 12.
    std::vector<u8> trace(13, 0);
    trace[12] = 1;
    VirginMap virgin(16);
    EXPECT_EQ(k->compare_update(trace.data(), virgin.data(), 13),
              NewBits::kNewTuple)
        << k->name;
    EXPECT_EQ(virgin.data()[12], 0xFE) << k->name;
    // Byte 13 must be untouched (outside the compared prefix).
    EXPECT_EQ(virgin.data()[13], 0xFF) << k->name;
  }
}

TEST(CompareVirginTest, MatchesReferenceOnRandomData) {
  for (const KernelOps* k : kernels::runtime_kernels()) {
    Xoshiro256 rng(2024);
    for (int round = 0; round < 200; ++round) {
      const usize len = 8 * (1 + rng.below(64));
      std::vector<u8> trace(len, 0);
      for (usize i = 0; i < len; ++i) {
        if (rng.chance(1, 8)) {
          trace[i] = classify_count(static_cast<u8>(rng.next()));
        }
      }
      VirginMap v1(len);
      // Pre-dirty the virgin map.
      for (usize i = 0; i < len; ++i) {
        if (rng.chance(1, 4)) v1.data()[i] = static_cast<u8>(rng.next() | 1);
      }
      std::vector<u8> ref_virgin(v1.data(), v1.data() + len);

      const NewBits fast = k->compare_update(trace.data(), v1.data(), len);
      const NewBits ref =
          reference_compare(trace.data(), ref_virgin.data(), len);

      ASSERT_EQ(fast, ref) << k->name << " round " << round;
      ASSERT_EQ(std::memcmp(v1.data(), ref_virgin.data(), len), 0)
          << k->name << " round " << round;
    }
  }
}

TEST(ClassifyCompareMergedTest, EquivalentToSequentialOps) {
  for (const KernelOps* k : kernels::runtime_kernels()) {
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
          k->classify_compare(trace_a.data(), virgin_a.data(), len);

      // Path B: classify then compare.
      std::vector<u8> trace_b = raw;
      k->classify(trace_b.data(), len);
      VirginMap virgin_b(len);
      const NewBits b =
          k->compare_update(trace_b.data(), virgin_b.data(), len);

      ASSERT_EQ(a, b) << k->name << " round " << round;
      ASSERT_EQ(trace_a, trace_b) << k->name << " round " << round;
      ASSERT_EQ(std::memcmp(virgin_a.data(), virgin_b.data(), len), 0)
          << k->name << " round " << round;
    }
  }
}

TEST(ClassifyCompareMergedTest, OddTailLengths) {
  for (const KernelOps* k : kernels::runtime_kernels()) {
    for (usize len : {1u, 3u, 9u, 15u, 17u, 23u}) {
      std::vector<u8> trace(len, 0);
      trace[len - 1] = 200;  // raw count; classifies to 128
      VirginMap virgin(len + 8);
      const NewBits nb =
          k->classify_compare(trace.data(), virgin.data(), len);
      EXPECT_EQ(nb, NewBits::kNewTuple) << k->name << " len " << len;
      EXPECT_EQ(trace[len - 1], 128) << k->name << " len " << len;
    }
  }
}

}  // namespace
}  // namespace bigmap
