// Tests for CRC-32, FNV-1a, and the 64-bit mixers.
#include "util/hash.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "util/rng.h"

namespace bigmap {
namespace {

std::span<const u8> bytes(const std::string& s) {
  return {reinterpret_cast<const u8*>(s.data()), s.size()};
}

// Bit-at-a-time CRC-32 step: shares no code or tables with util/hash.cpp.
u32 reference_crc32_byte(u32 state, u8 b) {
  state ^= b;
  for (int k = 0; k < 8; ++k) {
    state = (state & 1u) ? (0xEDB88320u ^ (state >> 1)) : (state >> 1);
  }
  return state;
}

std::vector<u8> random_bytes(usize n, u64 seed) {
  SplitMix64 rng(seed);
  std::vector<u8> v(n);
  for (u8& b : v) b = static_cast<u8>(rng.next());
  return v;
}

TEST(Crc32Test, KnownVectors) {
  // Standard CRC-32 (IEEE) check values.
  EXPECT_EQ(crc32(bytes("")), 0x00000000u);
  EXPECT_EQ(crc32(bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(bytes("The quick brown fox jumps over the lazy dog")),
            0x414FA339u);
}

TEST(Crc32Test, SingleByteVectors) {
  EXPECT_EQ(crc32(bytes("a")), 0xE8B7BE43u);
  std::vector<u8> zero{0x00};
  EXPECT_EQ(crc32(zero), 0xD202EF8Du);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string s = "hello, coverage bitmap world";
  const u32 whole = crc32(bytes(s));

  u32 state = kCrc32Init;
  for (char c : s) {
    const u8 b = static_cast<u8>(c);
    state = crc32_update(state, {&b, 1});
  }
  EXPECT_EQ(crc32_finalize(state), whole);
}

TEST(Crc32Test, TrailingZeroChangesHash) {
  // The property BigMap's §IV-D hash rule depends on: crc32({1,1}) !=
  // crc32({1,1,0}).
  const std::vector<u8> a{1, 1};
  const std::vector<u8> b{1, 1, 0};
  EXPECT_NE(crc32(a), crc32(b));
}

TEST(Crc32Test, SensitiveToEveryBytePosition) {
  std::vector<u8> base(64, 0xAB);
  const u32 h0 = crc32(base);
  for (usize i = 0; i < base.size(); ++i) {
    std::vector<u8> mod = base;
    mod[i] ^= 0x01;
    EXPECT_NE(crc32(mod), h0) << "position " << i;
  }
}

TEST(Crc32Test, UpdateMatchesBytewiseAtEveryLengthAndOffset) {
  // Every length 0-1100 at every 16-byte misalignment covers the short
  // table path, the 64-byte bulk threshold, and every len % 16 tail hand-off.
  constexpr usize kMaxLen = 1100;
  const std::vector<u8> buf = random_bytes(kMaxLen + 16, 7);
  SplitMix64 rng(11);
  for (usize off = 0; off < 16; ++off) {
    const u8* base = buf.data() + off;
    for (const u32 start : {kCrc32Init, static_cast<u32>(rng.next()),
                            static_cast<u32>(rng.next())}) {
      u32 ref = start;  // reference over base[0, len)
      for (usize len = 0; len <= kMaxLen; ++len) {
        ASSERT_EQ(crc32_update(start, {base, len}), ref)
            << "offset " << off << " length " << len << " start " << start;
        if (len < kMaxLen) ref = reference_crc32_byte(ref, base[len]);
      }
    }
  }
}

TEST(Crc32Test, UpdateMatchesBytewiseOnSparseData) {
  // Coverage bitmaps are mostly zero: long zero runs with isolated hits.
  std::vector<u8> buf(4096, 0);
  for (usize i = 3; i < buf.size(); i += 301) buf[i] = static_cast<u8>(i | 1);
  u32 ref = kCrc32Init;
  for (u8 b : buf) ref = reference_crc32_byte(ref, b);
  EXPECT_EQ(crc32_update(kCrc32Init, buf), ref);
  EXPECT_EQ(crc32(std::vector<u8>(4096, 0)), 0xC71C0011u);
}

TEST(Crc32Test, ChainedUpdateMatchesOneShotAtEverySplit) {
  // Split points 0-200 from either end put both halves of the chain on
  // each side of the 16- and 64-byte thresholds.
  const std::vector<u8> buf = random_bytes(1024, 3);
  const u32 whole = crc32(buf);
  const std::span<const u8> all(buf);
  for (usize k = 0; k <= 200; ++k) {
    for (const usize split : {k, buf.size() - k}) {
      const u32 head = crc32_update(kCrc32Init, all.first(split));
      EXPECT_EQ(crc32_finalize(crc32_update(head, all.subspan(split))), whole)
          << "split at " << split;
    }
  }
}

TEST(Crc32Test, SparseTwoMegabyteMapPinned) {
  // A flat 2 MB trace bitmap with ~5k hits, the shape AFL hashes per exec.
  // The literal was computed with an independent CRC-32 implementation.
  std::vector<u8> map(2u << 20, 0);
  u64 x = 1;
  for (int j = 0; j < 5000; ++j) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    map[(x >> 33) % map.size()] = static_cast<u8>(((x >> 8) & 0xFF) | 1);
  }
  EXPECT_EQ(crc32(map), 0x92541ADCu);
}

TEST(Fnv1a64Test, KnownVectors) {
  EXPECT_EQ(fnv1a64(bytes("")), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64(bytes("a")), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64(bytes("foobar")), 0x85944171f73967e8ULL);
}

TEST(Mix64Test, BijectivityOnSample) {
  // mix64 is a bijection; no two distinct inputs in a large sample may
  // collide.
  std::unordered_set<u64> outputs;
  for (u64 i = 0; i < 100000; ++i) {
    EXPECT_TRUE(outputs.insert(mix64(i)).second) << "collision at " << i;
  }
}

TEST(Mix64Test, ZeroMapsToZero) {
  // The SplitMix64 finalizer maps 0 to 0 — callers that need a non-zero
  // sentinel must handle it; documented behaviour.
  EXPECT_EQ(mix64(0), 0u);
}

TEST(Mix64Test, AvalancheSmoke) {
  // Flipping one input bit should flip roughly half the output bits.
  int total_flips = 0;
  constexpr int kSamples = 256;
  for (int i = 0; i < kSamples; ++i) {
    const u64 x = 0x9E3779B97F4A7C15ULL * static_cast<u64>(i + 1);
    const u64 flipped = mix64(x) ^ mix64(x ^ 1);
    total_flips += __builtin_popcountll(flipped);
  }
  const double avg = static_cast<double>(total_flips) / kSamples;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(HashCombineTest, OrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

TEST(HashCombineTest, DistinctPairsDistinctHashes) {
  std::unordered_set<u64> seen;
  for (u64 a = 0; a < 64; ++a) {
    for (u64 b = 0; b < 64; ++b) {
      EXPECT_TRUE(seen.insert(hash_combine(a, b)).second)
          << "collision at (" << a << "," << b << ")";
    }
  }
}

}  // namespace
}  // namespace bigmap
