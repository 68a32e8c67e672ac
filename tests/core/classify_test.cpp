// Tests for AFL hit-count bucketing: the bucket function, its byte
// table, and the whole-map classify pass under every kernel.
#include "core/classify.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/kernels/kernels.h"
#include "util/rng.h"

namespace bigmap {
namespace {

TEST(ClassifyCountTest, ExactBucketBoundaries) {
  // The AFL bucket table (§II-A2): [1] [2] [3] [4-7] [8-15] [16-31]
  // [32-127] [128-255].
  EXPECT_EQ(classify_count(0), 0);
  EXPECT_EQ(classify_count(1), 1);
  EXPECT_EQ(classify_count(2), 2);
  EXPECT_EQ(classify_count(3), 4);
  EXPECT_EQ(classify_count(4), 8);
  EXPECT_EQ(classify_count(7), 8);
  EXPECT_EQ(classify_count(8), 16);
  EXPECT_EQ(classify_count(15), 16);
  EXPECT_EQ(classify_count(16), 32);
  EXPECT_EQ(classify_count(31), 32);
  EXPECT_EQ(classify_count(32), 64);
  EXPECT_EQ(classify_count(127), 64);
  EXPECT_EQ(classify_count(128), 128);
  EXPECT_EQ(classify_count(255), 128);
}

TEST(ClassifyCountTest, MonotoneNonDecreasing) {
  for (u32 v = 1; v < 256; ++v) {
    EXPECT_GE(classify_count(static_cast<u8>(v)),
              classify_count(static_cast<u8>(v - 1)));
  }
}

TEST(ClassifyCountTest, NotIdempotentForMidBuckets) {
  // AFL's bucketing is deliberately NOT idempotent: bucket values 4..32
  // re-classify into the next bucket (e.g. classify(8) == 16). This is why
  // the executor classifies each trace exactly once per run; the test
  // documents the hazard.
  EXPECT_EQ(classify_count(classify_count(8)), 32);   // 8 -> 16 -> 32
  EXPECT_EQ(classify_count(classify_count(3)), 8);    // 3 -> 4 -> 8
  // Fixed points: 0, 1, 2, 64 -> 64, 128 -> 128.
  for (u8 v : {0, 1, 2, 64, 128}) {
    EXPECT_EQ(classify_count(v), v);
  }
}

TEST(ClassifyLookup8Test, MatchesScalarFunction) {
  const auto& lut = count_class_lookup8();
  for (u32 v = 0; v < 256; ++v) {
    EXPECT_EQ(lut[v], classify_count(static_cast<u8>(v)));
  }
}

// The whole-map classify pass is a kernel op; the cases below run it under
// every kernel this CPU can execute (scalar, swar's 16-bit LUT, and the
// vector kernels).

TEST(ClassifyLookup16Test, MatchesBytePairs) {
  // Random adjacent byte pairs: swar classifies each pair with one probe
  // of its 16-bit table, and every kernel must bucket both bytes.
  Xoshiro256 rng(5);
  std::vector<u8> raw(2 * 10000);
  for (usize i = 0; i < raw.size(); i += 2) {
    const u16 v = static_cast<u16>(rng.next());
    raw[i] = static_cast<u8>(v);
    raw[i + 1] = static_cast<u8>(v >> 8);
  }
  for (const kernels::KernelOps* k : kernels::runtime_kernels()) {
    std::vector<u8> buf = raw;
    k->classify(buf.data(), buf.size());
    for (usize i = 0; i < buf.size(); ++i) {
      ASSERT_EQ(buf[i], classify_count(raw[i])) << k->name << " byte " << i;
    }
  }
}

TEST(ClassifyCountsTest, WordwiseMatchesBytewise) {
  Xoshiro256 rng(77);
  std::vector<u8> raw(4096);
  for (auto& v : raw) v = static_cast<u8>(rng.next());
  std::vector<u8> want = raw;
  kernels::scalar_kernel().classify(want.data(), want.size());
  for (const kernels::KernelOps* k : kernels::runtime_kernels()) {
    std::vector<u8> buf = raw;
    k->classify(buf.data(), buf.size());
    EXPECT_EQ(buf, want) << k->name;
  }
}

TEST(ClassifyCountsTest, ZeroBufferUntouched) {
  for (const kernels::KernelOps* k : kernels::runtime_kernels()) {
    std::vector<u8> buf(1024, 0);
    k->classify(buf.data(), buf.size());
    EXPECT_EQ(std::count(buf.begin(), buf.end(), 0), 1024) << k->name;
  }
}

TEST(ClassifyCountsTest, ResultIsClassified) {
  Xoshiro256 rng(99);
  std::vector<u8> raw(2048);
  for (auto& v : raw) v = static_cast<u8>(rng.next());
  for (const kernels::KernelOps* k : kernels::runtime_kernels()) {
    std::vector<u8> buf = raw;
    k->classify(buf.data(), buf.size());
    EXPECT_TRUE(is_classified(buf)) << k->name;
  }
}

TEST(IsClassifiedTest, DetectsRawCounts) {
  std::vector<u8> ok{0, 1, 2, 4, 8, 16, 32, 64, 128};
  EXPECT_TRUE(is_classified(ok));
  std::vector<u8> bad{0, 1, 3};
  EXPECT_FALSE(is_classified(bad));
  std::vector<u8> bad2{5};
  EXPECT_FALSE(is_classified(bad2));
}

TEST(ClassifyCountsBytewiseTest, HandlesOddLengths) {
  for (const kernels::KernelOps* k : kernels::runtime_kernels()) {
    std::vector<u8> buf{3, 9, 200, 1, 0};
    k->classify(buf.data(), buf.size());
    EXPECT_EQ(buf, (std::vector<u8>{4, 16, 128, 1, 0})) << k->name;
  }
}

// Property sweep: at every length, every kernel's classify must agree with
// the bucket function byte for byte.
class ClassifyLengthTest : public ::testing::TestWithParam<usize> {};

TEST_P(ClassifyLengthTest, AgreesWithScalar) {
  const usize len = GetParam();
  Xoshiro256 rng(1000 + len);
  std::vector<u8> raw(len);
  for (auto& v : raw) v = static_cast<u8>(rng.next());
  std::vector<u8> want = raw;
  for (auto& v : want) v = classify_count(v);
  for (const kernels::KernelOps* k : kernels::runtime_kernels()) {
    std::vector<u8> buf = raw;
    k->classify(buf.data(), buf.size());
    EXPECT_EQ(buf, want) << k->name;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, ClassifyLengthTest,
                         ::testing::Values(0, 8, 16, 64, 256, 4096, 65536));

}  // namespace
}  // namespace bigmap
