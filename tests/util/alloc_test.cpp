// Tests for PageBuffer.
#include "util/alloc.h"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

namespace bigmap {
namespace {

TEST(PageBufferTest, DefaultIsEmpty) {
  PageBuffer b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.data(), nullptr);
}

TEST(PageBufferTest, AllocatesAndZeroInitializes) {
  PageBuffer b(4096);
  ASSERT_EQ(b.size(), 4096u);
  ASSERT_NE(b.data(), nullptr);
  for (usize i = 0; i < b.size(); ++i) ASSERT_EQ(b[i], 0) << i;
}

TEST(PageBufferTest, NonPageMultipleSizeReportsRequested) {
  PageBuffer b(1000);
  EXPECT_EQ(b.size(), 1000u);
  b[999] = 42;
  EXPECT_EQ(b[999], 42);
}

TEST(PageBufferTest, WritableAcrossWholeRange) {
  PageBuffer b(1u << 20);
  std::memset(b.data(), 0x5A, b.size());
  EXPECT_EQ(b[0], 0x5A);
  EXPECT_EQ(b[b.size() - 1], 0x5A);
}

TEST(PageBufferTest, MoveTransfersOwnership) {
  PageBuffer a(8192);
  a[0] = 7;
  u8* ptr = a.data();
  PageBuffer b(std::move(a));
  EXPECT_EQ(b.data(), ptr);
  EXPECT_EQ(b.size(), 8192u);
  EXPECT_EQ(b[0], 7);
  EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.size(), 0u);
}

TEST(PageBufferTest, MoveAssignReleasesOld) {
  PageBuffer a(4096), b(8192);
  b = std::move(a);
  EXPECT_EQ(b.size(), 4096u);
}

TEST(PageBufferTest, HugeBackingFallsBackGracefully) {
  // Whatever the host supports, the allocation must succeed and be usable.
  PageBuffer b(4u << 20, PageBacking::kHugeIfAvailable);
  ASSERT_EQ(b.size(), 4u << 20);
  b[0] = 1;
  b[b.size() - 1] = 2;
  EXPECT_EQ(b[0], 1);
  EXPECT_EQ(b[b.size() - 1], 2);
}

TEST(PageBufferTest, SmallHugeRequestUsesNormalPages) {
  PageBuffer b(4096, PageBacking::kHugeIfAvailable);
  EXPECT_EQ(b.backing(), PageBackingResult::kNormal);
}

}  // namespace
}  // namespace bigmap
