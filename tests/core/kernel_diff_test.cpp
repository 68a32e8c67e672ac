// Differential kernel-equivalence suite.
//
// Every kernel variant (swar / sse2 / avx2 / avx512 / whatever the
// registry exposes on this CPU) must be provably byte-identical to the
// scalar reference on every whole-map operation — that is the contract
// that makes kernel selection a pure performance decision. The suite runs
// seeded random traces through every runtime kernel and the scalar oracle
// side by side:
//
//   - trace patterns: dense, sparse, all-zero, all-0xFF, saturating
//     (255-heavy plus every bucket boundary), bucket-boundary cycling;
//   - lengths crossing every word/vector boundary (len % 8 != 0,
//     len % 64 != 0 and len % 256 != 0 tails included), and whole 2 MB
//     maps for the hash and the trim pass;
//   - ops: reset, classify, compare_update, fused classify_compare, hash,
//     fused classify_hash_clear, count_ne, find_used_end, collect_nonzero
//     — asserting
//     byte-exact coverage/virgin buffers and identical NewBits verdicts;
//   - every span at offsets 0-3 inside a guarded buffer (class Guarded):
//     misaligned loads and stores, and no byte written outside the span;
//   - cross-scheme property runs (FlatCoverageMap vs. TwoLevelCoverageMap
//     under every kernel) and the §IV-D golden-hash stability rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/classify.h"
#include "core/flat_map.h"
#include "core/kernels/kernels.h"
#include "core/two_level_map.h"
#include "util/hash.h"
#include "util/rng.h"

namespace bigmap {
namespace {

using kernels::KernelOps;

std::vector<const KernelOps*> vector_kernels() {
  std::vector<const KernelOps*> v;
  for (const KernelOps* k : kernels::runtime_kernels()) {
    if (std::string_view(k->name) != "scalar") v.push_back(k);
  }
  return v;
}

// Lengths chosen to cross every u64 word, 16/32/64-byte vector and
// 256-byte CRC fold block boundary, plus empty and sub-word sizes.
const std::vector<usize> kLengths = {
    0,   1,   2,   3,   5,   7,    8,    9,    13,   15,    16,   17,
    24,  31,  32,  33,  40,  63,   64,   65,   100,  127,   128,  129,
    255, 256, 257, 511, 512, 513,  1000, 4096, 4099, 8192,  8201, 65536,
    65543};

enum class Pattern {
  kAllZero,
  kAllFF,
  kDense,       // every byte a random raw count
  kSparse,      // ~2% non-zero: the steady-state coverage shape
  kSaturating,  // 255-heavy with every bucket boundary mixed in
  kBoundaries,  // cycles through the documented bucket edges
};

const std::vector<Pattern> kPatterns = {
    Pattern::kAllZero, Pattern::kAllFF,      Pattern::kDense,
    Pattern::kSparse,  Pattern::kSaturating, Pattern::kBoundaries};

const char* pattern_name(Pattern p) {
  switch (p) {
    case Pattern::kAllZero: return "all-zero";
    case Pattern::kAllFF: return "all-ff";
    case Pattern::kDense: return "dense";
    case Pattern::kSparse: return "sparse";
    case Pattern::kSaturating: return "saturating";
    case Pattern::kBoundaries: return "boundaries";
  }
  return "?";
}

std::vector<u8> make_trace(Pattern p, usize len, u64 seed) {
  Xoshiro256 rng(seed);
  std::vector<u8> t(len, 0);
  switch (p) {
    case Pattern::kAllZero:
      break;
    case Pattern::kAllFF:
      std::fill(t.begin(), t.end(), 0xFF);
      break;
    case Pattern::kDense:
      for (auto& b : t) b = static_cast<u8>(rng.next());
      break;
    case Pattern::kSparse:
      for (usize i = 0; i < len / 50 + 1 && len > 0; ++i) {
        t[rng.below(static_cast<u32>(len))] =
            static_cast<u8>(1 + (rng.next() % 255));
      }
      break;
    case Pattern::kSaturating: {
      static const u8 edges[] = {255, 255, 255, 128, 127, 32, 31, 16, 15,
                                 8,   7,   4,   3,   2,   1,  0};
      for (usize i = 0; i < len; ++i) {
        t[i] = (rng.next() % 4 != 0)
                   ? u8{255}
                   : edges[rng.next() % (sizeof(edges))];
      }
      break;
    }
    case Pattern::kBoundaries: {
      static const u8 edges[] = {0,  1,  2,  3,  4,   7,   8,   15, 16,
                                 31, 32, 63, 64, 127, 128, 129, 254, 255};
      for (usize i = 0; i < len; ++i) t[i] = edges[i % sizeof(edges)];
      break;
    }
  }
  return t;
}

// A partially-consumed virgin map: some bytes still 0xFF, some already
// cleared by earlier (scalar-classified) traffic — the realistic shape.
std::vector<u8> make_virgin(usize len, u64 seed) {
  std::vector<u8> v(len, 0xFF);
  std::vector<u8> prior = make_trace(Pattern::kSparse, len, seed ^ 0xABCD);
  kernels::scalar_kernel().classify(prior.data(), len);
  kernels::scalar_kernel().compare_update(prior.data(), v.data(), len);
  return v;
}

// `bytes` copied to `offset` inside a buffer of guard bytes: kGuard of them
// after the span and `offset` before it. Kernels run on span(); a kernel
// that writes outside it changes a guard byte, and one that reads past it
// sees non-zero bytes that change its result.
class Guarded {
 public:
  static constexpr usize kGuard = 64;
  static constexpr u8 kFill = 0xA5;

  Guarded(const std::vector<u8>& bytes, usize offset)
      : buf_(offset + bytes.size() + kGuard, kFill),
        offset_(offset),
        len_(bytes.size()) {
    std::copy(bytes.begin(), bytes.end(), buf_.begin() + offset);
  }

  u8* span() noexcept { return buf_.data() + offset_; }
  std::vector<u8> bytes() const {
    return {buf_.begin() + static_cast<long>(offset_),
            buf_.begin() + static_cast<long>(offset_ + len_)};
  }
  bool guards_intact() const {
    const auto fill = [](u8 b) { return b == kFill; };
    return std::all_of(buf_.begin(), buf_.begin() + static_cast<long>(offset_),
                       fill) &&
           std::all_of(buf_.begin() + static_cast<long>(offset_ + len_),
                       buf_.end(), fill);
  }

 private:
  std::vector<u8> buf_;
  usize offset_;
  usize len_;
};

// Span offsets every grid test runs at: aligned, and 1-3 bytes past it.
constexpr usize kOffsets = 4;

// --- registry sanity ------------------------------------------------------

TEST(KernelRegistryTest, ScalarAndSwarAlwaysPresent) {
  auto compiled = kernels::compiled_kernels();
  auto runtime = kernels::runtime_kernels();
  ASSERT_GE(compiled.size(), 2u);
  ASSERT_GE(runtime.size(), 2u);
  EXPECT_STREQ(runtime.front()->name, "scalar");
  EXPECT_NE(kernels::find_kernel("scalar"), nullptr);
  EXPECT_NE(kernels::find_kernel("swar"), nullptr);
  // Names are unique.
  std::vector<std::string> names;
  for (const KernelOps* k : runtime) names.emplace_back(k->name);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

bool avx512_compiled() {
  for (const KernelOps* k : kernels::compiled_kernels()) {
    if (std::string_view(k->name) == "avx512") return true;
  }
  return false;
}

bool cpu_has_avx512_kernel_isa() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("vpclmulqdq");
#else
  return false;
#endif
}

TEST(KernelRegistryTest, Avx512UsableExactlyWhenCpuReportsItsIsa) {
  if (!avx512_compiled()) {
    GTEST_SKIP() << "avx512 kernel not compiled in: the compiler lacks "
                    "-mavx512bw or -mvpclmulqdq";
  }
  EXPECT_EQ(kernels::find_kernel("avx512") != nullptr,
            cpu_has_avx512_kernel_isa());
  if (kernels::find_kernel("avx512") == nullptr) {
    GTEST_SKIP() << "avx512 kernel compiled but this CPU lacks avx512bw or "
                    "vpclmulqdq: no differential grid ran it";
  }
}

TEST(KernelRegistryTest, ActiveKernelIsRuntimeUsable) {
  const KernelOps& active = kernels::active_kernel();
  EXPECT_NE(kernels::find_kernel(active.name), nullptr);
}

TEST(KernelRegistryTest, ResolveEmptyGivesActive) {
  EXPECT_EQ(&kernels::resolve_kernel(""), &kernels::active_kernel());
  EXPECT_STREQ(kernels::resolve_kernel("scalar").name, "scalar");
}

TEST(KernelRegistryTest, ResolveUnknownThrows) {
  EXPECT_THROW(kernels::resolve_kernel("avx512-nope"),
               std::invalid_argument);
  MapOptions o;
  o.map_size = 1u << 10;
  o.huge_pages = false;
  o.kernel = "not-a-kernel";
  EXPECT_THROW(FlatCoverageMap{o}, std::invalid_argument);
  EXPECT_THROW(TwoLevelCoverageMap{o}, std::invalid_argument);
}

TEST(KernelRegistryTest, MapsReportTheirKernel) {
  MapOptions o;
  o.map_size = 1u << 10;
  o.huge_pages = false;
  o.kernel = "swar";
  FlatCoverageMap flat(o);
  TwoLevelCoverageMap two(o);
  EXPECT_STREQ(flat.kernel_name(), "swar");
  EXPECT_STREQ(two.kernel_name(), "swar");

  MapOptions def;
  def.map_size = 1u << 10;
  def.huge_pages = false;
  FlatCoverageMap flat_def(def);
  EXPECT_STREQ(flat_def.kernel_name(), kernels::active_kernel().name);
}

// --- per-op differential equivalence --------------------------------------

TEST(KernelDiffTest, ClassifyMatchesScalar) {
  for (const KernelOps* k : vector_kernels()) {
    for (Pattern p : kPatterns) {
      for (usize len : kLengths) {
        std::vector<u8> expect = make_trace(p, len, 7 * len + 1);
        const std::vector<u8> raw = expect;
        kernels::scalar_kernel().classify(expect.data(), len);
        for (usize offset = 0; offset < kOffsets; ++offset) {
          Guarded got(raw, offset);
          k->classify(got.span(), len);
          ASSERT_EQ(got.bytes(), expect)
              << k->name << " classify, pattern " << pattern_name(p)
              << ", len " << len << ", offset " << offset;
          ASSERT_TRUE(got.guards_intact())
              << k->name << " classify wrote outside its span, pattern "
              << pattern_name(p) << ", len " << len << ", offset " << offset;
        }
      }
    }
  }
}

TEST(KernelDiffTest, ExhaustiveClassifyAllByteValues) {
  // All 256 raw hit counts must land in the documented AFL bucket under
  // every kernel, including in the (len % 8 != 0, len % 32 != 0) tail.
  const usize kLen = 67;  // 2 full AVX2 vectors + 3-byte tail
  for (const KernelOps* k : kernels::runtime_kernels()) {
    for (u32 raw = 0; raw < 256; ++raw) {
      std::vector<u8> buf(kLen, static_cast<u8>(raw));
      k->classify(buf.data(), buf.size());
      for (usize i = 0; i < buf.size(); ++i) {
        ASSERT_EQ(buf[i], classify_count(static_cast<u8>(raw)))
            << k->name << " raw=" << raw << " index=" << i;
      }
    }
  }
}

TEST(KernelDiffTest, CompareUpdateMatchesScalar) {
  for (const KernelOps* k : vector_kernels()) {
    for (Pattern p : kPatterns) {
      for (usize len : kLengths) {
        std::vector<u8> trace = make_trace(p, len, 31 * len + 5);
        kernels::scalar_kernel().classify(trace.data(), len);

        const std::vector<u8> virgin_in = make_virgin(len, len);
        std::vector<u8> virgin_ref = virgin_in;
        const NewBits expect = kernels::scalar_kernel().compare_update(
            trace.data(), virgin_ref.data(), len);
        for (usize offset = 0; offset < kOffsets; ++offset) {
          Guarded trace_got(trace, offset);
          Guarded virgin_got(virgin_in, kOffsets - 1 - offset);
          const NewBits got =
              k->compare_update(trace_got.span(), virgin_got.span(), len);
          ASSERT_EQ(got, expect) << k->name << " verdict, pattern "
                                 << pattern_name(p) << ", len " << len
                                 << ", offset " << offset;
          ASSERT_EQ(virgin_got.bytes(), virgin_ref)
              << k->name << " virgin bytes, pattern " << pattern_name(p)
              << ", len " << len << ", offset " << offset;
          ASSERT_EQ(trace_got.bytes(), trace)
              << k->name << " compare_update wrote the trace, pattern "
              << pattern_name(p) << ", len " << len << ", offset " << offset;
          ASSERT_TRUE(trace_got.guards_intact() && virgin_got.guards_intact())
              << k->name << " compare_update wrote outside its spans, "
              << pattern_name(p) << ", len " << len << ", offset " << offset;
        }
      }
    }
  }
}

TEST(KernelDiffTest, FusedClassifyCompareMatchesScalar) {
  for (const KernelOps* k : vector_kernels()) {
    for (Pattern p : kPatterns) {
      for (usize len : kLengths) {
        const std::vector<u8> trace_in = make_trace(p, len, 13 * len + 3);
        const std::vector<u8> virgin_in = make_virgin(len, len + 9);
        std::vector<u8> trace_ref = trace_in;
        std::vector<u8> virgin_ref = virgin_in;
        const NewBits expect = kernels::scalar_kernel().classify_compare(
            trace_ref.data(), virgin_ref.data(), len);
        for (usize offset = 0; offset < kOffsets; ++offset) {
          Guarded trace_got(trace_in, offset);
          Guarded virgin_got(virgin_in, (offset + 1) % kOffsets);
          const NewBits got =
              k->classify_compare(trace_got.span(), virgin_got.span(), len);
          ASSERT_EQ(got, expect) << k->name << " verdict, pattern "
                                 << pattern_name(p) << ", len " << len
                                 << ", offset " << offset;
          ASSERT_EQ(trace_got.bytes(), trace_ref)
              << k->name << " classified trace, pattern " << pattern_name(p)
              << ", len " << len << ", offset " << offset;
          ASSERT_EQ(virgin_got.bytes(), virgin_ref)
              << k->name << " virgin bytes, pattern " << pattern_name(p)
              << ", len " << len << ", offset " << offset;
          ASSERT_TRUE(trace_got.guards_intact() && virgin_got.guards_intact())
              << k->name << " classify_compare wrote outside its spans, "
              << pattern_name(p) << ", len " << len << ", offset " << offset;
        }
      }
    }
  }
}

TEST(KernelDiffTest, FusedEqualsSequentialWithinEachKernel) {
  for (const KernelOps* k : kernels::runtime_kernels()) {
    for (usize len : {usize{129}, usize{4099}}) {
      std::vector<u8> trace_a = make_trace(Pattern::kDense, len, 99);
      std::vector<u8> trace_b = trace_a;
      std::vector<u8> virgin_a = make_virgin(len, 17);
      std::vector<u8> virgin_b = virgin_a;

      const NewBits fused =
          k->classify_compare(trace_a.data(), virgin_a.data(), len);
      k->classify(trace_b.data(), len);
      const NewBits sequential =
          k->compare_update(trace_b.data(), virgin_b.data(), len);

      EXPECT_EQ(fused, sequential) << k->name << " len " << len;
      EXPECT_EQ(trace_a, trace_b) << k->name << " len " << len;
      EXPECT_EQ(virgin_a, virgin_b) << k->name << " len " << len;
    }
  }
}

TEST(KernelDiffTest, ResetHashCountUsedEndMatchScalar) {
  const KernelOps& ref = kernels::scalar_kernel();
  for (const KernelOps* k : vector_kernels()) {
    for (Pattern p : kPatterns) {
      for (usize len : kLengths) {
        const std::vector<u8> trace = make_trace(p, len, 3 * len + 11);
        const u8* want = trace.data();
        for (usize offset = 0; offset < kOffsets; ++offset) {
          Guarded buf(trace, offset);
          const u8* got = buf.span();

          ASSERT_EQ(k->hash(got, len), ref.hash(want, len))
              << k->name << " hash, " << pattern_name(p) << ", len " << len
              << ", offset " << offset;
          ASSERT_EQ(k->count_ne(got, len, 0), ref.count_ne(want, len, 0))
              << k->name << " count_ne(0), " << pattern_name(p) << ", len "
              << len << ", offset " << offset;
          ASSERT_EQ(k->count_ne(got, len, 0xFF),
                    ref.count_ne(want, len, 0xFF))
              << k->name << " count_ne(0xFF), " << pattern_name(p)
              << ", len " << len << ", offset " << offset;
          ASSERT_EQ(k->find_used_end(got, len), ref.find_used_end(want, len))
              << k->name << " find_used_end, " << pattern_name(p)
              << ", len " << len << ", offset " << offset;

          k->reset(buf.span(), len);
          ASSERT_EQ(buf.bytes(), std::vector<u8>(len, 0))
              << k->name << " reset, len " << len << ", offset " << offset;
          ASSERT_TRUE(buf.guards_intact())
              << k->name << " reset wrote outside its span, len " << len
              << ", offset " << offset;
        }
      }
    }
  }
}

// Whole flat maps, and one past-the-vector tail on top: the wide CRC
// folds run for thousands of iterations before their tails. The
// reference is computed once per length.
const std::vector<usize> kWholeMapLengths = {2u << 20, (2u << 20) + 3};

TEST(KernelDiffTest, HashMatchesScalarOnWholeMaps) {
  for (usize len : kWholeMapLengths) {
    const std::vector<u8> trace = make_trace(Pattern::kSparse, len, len);
    const u32 want = kernels::scalar_kernel().hash(trace.data(), len);
    for (const KernelOps* k : vector_kernels()) {
      for (usize offset = 0; offset < kOffsets; ++offset) {
        Guarded buf(trace, offset);
        ASSERT_EQ(k->hash(buf.span(), len), want)
            << k->name << " hash, len " << len << ", offset " << offset;
        ASSERT_EQ(buf.bytes(), trace)
            << k->name << " hash wrote its span, len " << len;
        ASSERT_TRUE(buf.guards_intact())
            << k->name << " hash wrote outside its span, len " << len;
      }
    }
  }
}

// One classify_hash_clear call on `len` bytes at `offset` into a guarded
// buffer: it must return the CRC-32 of the scalar-classified bytes, leave
// them all zero, and write nothing outside them.
void check_classify_hash_clear(const KernelOps& k, Pattern p, usize len,
                               usize offset) {
  const std::vector<u8> trace = make_trace(p, len, 5 * len + offset);
  Guarded buf(trace, offset);

  std::vector<u8> classified = trace;
  kernels::scalar_kernel().classify(classified.data(), len);
  const u32 want = crc32(classified);

  ASSERT_EQ(k.classify_hash_clear(buf.span(), len), want)
      << k.name << " classify_hash_clear, " << pattern_name(p) << ", len "
      << len << ", offset " << offset;
  ASSERT_EQ(buf.bytes(), std::vector<u8>(len, 0))
      << k.name << " classify_hash_clear, " << pattern_name(p) << ", len "
      << len << ", offset " << offset;
  ASSERT_TRUE(buf.guards_intact())
      << k.name << " classify_hash_clear wrote outside its span, "
      << pattern_name(p) << ", len " << len << ", offset " << offset;
}

TEST(KernelDiffTest, ClassifyHashClearMatchesClassifyThenCrc) {
  // Every compiled kernel, the scalar reference included: each length
  // from 1 to 4,099 (every word/vector tail, the 4 kB chunk edge and one
  // past it) at a rotating odd offset, then multi-chunk lengths at several
  // offsets, then whole 2 MB maps at offsets 0-3.
  for (const KernelOps* k : kernels::runtime_kernels()) {
    for (Pattern p : {Pattern::kSparse, Pattern::kDense,
                      Pattern::kBoundaries}) {
      for (usize len = 1; len <= 4099; ++len) {
        check_classify_hash_clear(*k, p, len, (2 * len + 1) % 7);
        if (HasFatalFailure()) return;
      }
    }
    for (Pattern p : kPatterns) {
      for (usize len : {4096u, 8192u, 8193u, 12289u, 65543u}) {
        for (usize offset : {0u, 1u, 3u, 31u}) {
          check_classify_hash_clear(*k, p, len, offset);
          if (HasFatalFailure()) return;
        }
      }
    }
    for (usize len : kWholeMapLengths) {
      for (usize offset = 0; offset < kOffsets; ++offset) {
        check_classify_hash_clear(*k, Pattern::kSparse, len, offset);
        if (HasFatalFailure()) return;
      }
    }
    check_classify_hash_clear(*k, Pattern::kSaturating, 2u << 20, 0);
    check_classify_hash_clear(*k, Pattern::kSaturating, 2u << 20, 1);
    if (HasFatalFailure()) return;
  }
}

// One collect_nonzero call on `len` bytes at `offset`: the same positions
// as the scalar reference, relative to the start of the span, and no
// write past the last one.
void check_collect_nonzero(const KernelOps& k, const std::vector<u8>& trace,
                           usize offset) {
  constexpr usize kGuard = 8;
  constexpr u32 kSentinel = 0xDEADBEEF;
  const usize len = trace.size();
  std::vector<u8> buf(offset + len);
  std::copy(trace.begin(), trace.end(), buf.begin() + offset);

  std::vector<u32> want(len);
  want.resize(kernels::scalar_kernel().collect_nonzero(buf.data() + offset,
                                                       len, want.data()));
  std::vector<u32> got(want.size() + kGuard, kSentinel);
  ASSERT_EQ(k.collect_nonzero(buf.data() + offset, len, got.data()),
            want.size())
      << k.name << " collect_nonzero, len " << len << ", offset " << offset;
  ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin()))
      << k.name << " collect_nonzero, len " << len << ", offset " << offset;
  ASSERT_EQ(std::count(got.begin() + static_cast<long>(want.size()),
                       got.end(), kSentinel),
            static_cast<long>(kGuard))
      << k.name << " collect_nonzero wrote past its count, len " << len;
}

TEST(KernelDiffTest, CollectNonzeroMatchesScalar) {
  // The scalar reference is checked against a plain loop first, then every
  // kernel against it: each length 0-300 at a rotating offset, one
  // non-zero byte on each side of every 8-byte boundary (so of every
  // 16/32/64-byte vector and 64/128-byte group), a page and one, 64 kB and a
  // whole 2 MB map.
  for (Pattern p : kPatterns) {
    const std::vector<u8> t = make_trace(p, 300, 17);
    std::vector<u32> want;
    for (usize i = 0; i < t.size(); ++i) {
      if (t[i] != 0) want.push_back(static_cast<u32>(i));
    }
    std::vector<u32> got(t.size());
    got.resize(
        kernels::scalar_kernel().collect_nonzero(t.data(), t.size(),
                                                 got.data()));
    ASSERT_EQ(got, want) << pattern_name(p);
  }
  for (const KernelOps* k : kernels::runtime_kernels()) {
    for (Pattern p : kPatterns) {
      for (usize len = 0; len <= 300; ++len) {
        check_collect_nonzero(*k, make_trace(p, len, 7 * len + 1), len % 5);
        if (HasFatalFailure()) return;
      }
    }
    std::vector<u8> one(1000, 0);
    for (usize b = 8; b < one.size(); b += 8) {
      for (usize pos : {b - 1, b}) {
        one[pos] = 0x80;
        check_collect_nonzero(*k, one, pos % 3);
        one[pos] = 0;
        if (HasFatalFailure()) return;
      }
    }
    for (Pattern p : {Pattern::kAllZero, Pattern::kAllFF, Pattern::kDense,
                      Pattern::kSparse}) {
      for (usize len : {4097u, 65536u, 2u << 20}) {
        check_collect_nonzero(*k, make_trace(p, len, len), 0);
        check_collect_nonzero(*k, make_trace(p, len, len + 1), 3);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(KernelDiffTest, UsedEndSingleByteSweep) {
  // One non-zero byte at every position of a buffer crossing the widest
  // vector boundary: the backward scan must find exactly that byte.
  const usize kLen = 97;
  for (const KernelOps* k : kernels::runtime_kernels()) {
    for (usize pos = 0; pos < kLen; ++pos) {
      std::vector<u8> buf(kLen, 0);
      buf[pos] = 1;
      ASSERT_EQ(k->find_used_end(buf.data(), kLen), pos + 1)
          << k->name << " pos " << pos;
    }
    std::vector<u8> zeros(kLen, 0);
    EXPECT_EQ(k->find_used_end(zeros.data(), kLen), 0u) << k->name;
  }
}

// Multi-step evolution: each kernel maintains its own virgin map against
// the same trace sequence; the NewBits verdict sequence must match the
// scalar oracle step for step (this is what decides which inputs a fuzzer
// keeps, so a single divergence would change campaign behaviour).
TEST(KernelDiffTest, VerdictSequenceOverEvolvingVirgin) {
  const usize kLen = 4099;
  const u32 kSteps = 60;

  for (const KernelOps* k : vector_kernels()) {
    std::vector<u8> virgin_ref(kLen, 0xFF);
    std::vector<u8> virgin_got(kLen, 0xFF);
    Xoshiro256 rng(2024);
    for (u32 step = 0; step < kSteps; ++step) {
      const Pattern p = kPatterns[rng.next() % kPatterns.size()];
      std::vector<u8> trace_ref = make_trace(p, kLen, rng.next());
      std::vector<u8> trace_got = trace_ref;

      const NewBits expect = kernels::scalar_kernel().classify_compare(
          trace_ref.data(), virgin_ref.data(), kLen);
      const NewBits got =
          k->classify_compare(trace_got.data(), virgin_got.data(), kLen);
      ASSERT_EQ(got, expect) << k->name << " step " << step;
      ASSERT_EQ(virgin_got, virgin_ref) << k->name << " step " << step;
    }
  }
}

// --- cross-scheme property under every kernel ------------------------------

// Identical key streams into FlatCoverageMap and TwoLevelCoverageMap must
// yield identical virgin-map verdicts, new-edge counts, and crash-dedup
// hashes regardless of the selected kernel. Hashes are also pinned across
// kernels per scheme (kernel independence), though not across schemes (the
// two schemes hash different byte layouts by design).
TEST(KernelCrossSchemeTest, IdenticalVerdictsAndKernelIndependentHashes) {
  const usize kMapSize = 1u << 12;
  const u32 kExecs = 40;

  // hash sequences per scheme, one entry per kernel — must all be equal.
  std::vector<std::vector<u32>> flat_hashes, two_hashes;

  for (const KernelOps* k : kernels::runtime_kernels()) {
    MapOptions o;
    o.map_size = kMapSize;
    o.huge_pages = false;
    o.kernel = k->name;

    FlatCoverageMap flat(o);
    TwoLevelCoverageMap two(o);
    VirginMap virgin_flat(flat.map_size());
    VirginMap virgin_two(two.condensed_size());

    Xoshiro256 rng(555);
    std::vector<u32> universe(300);
    for (auto& key : universe) {
      key = static_cast<u32>(rng.next()) & static_cast<u32>(kMapSize - 1);
    }

    std::vector<u32> fh, th;
    for (u32 e = 0; e < kExecs; ++e) {
      flat.reset();
      two.reset();
      const u32 events = 1 + rng.below(200);
      for (u32 i = 0; i < events; ++i) {
        const u32 key = universe[rng.below(
            static_cast<u32>(universe.size()))];
        flat.update(key);
        two.update(key);
      }
      const NewBits nb_flat = flat.classify_and_compare(virgin_flat);
      const NewBits nb_two = two.classify_and_compare(virgin_two);
      ASSERT_EQ(nb_flat, nb_two) << k->name << " exec " << e;
      ASSERT_EQ(flat.count_nonzero(), two.count_nonzero())
          << k->name << " exec " << e;
      fh.push_back(flat.hash());
      th.push_back(two.hash());
    }
    EXPECT_EQ(virgin_flat.count_covered(), virgin_two.count_covered())
        << k->name;
    flat_hashes.push_back(std::move(fh));
    two_hashes.push_back(std::move(th));
  }

  for (usize i = 1; i < flat_hashes.size(); ++i) {
    EXPECT_EQ(flat_hashes[i], flat_hashes[0])
        << "flat crash-dedup hashes diverge under kernel "
        << kernels::runtime_kernels()[i]->name;
    EXPECT_EQ(two_hashes[i], two_hashes[0])
        << "two-level crash-dedup hashes diverge under kernel "
        << kernels::runtime_kernels()[i]->name;
  }
}

// --- §IV-D golden-hash stability -------------------------------------------

// The "hash up to the last non-zero byte" rule: the hash of a path must
// not change when unrelated paths grow used_key afterwards — under every
// kernel, and to the same value across kernels.
TEST(KernelGoldenHashTest, StableAcrossUsedKeyGrowth) {
  const usize kMapSize = 1u << 12;
  std::vector<u32> hashes_before, hashes_after;

  for (const KernelOps* k : kernels::runtime_kernels()) {
    MapOptions o;
    o.map_size = kMapSize;
    o.huge_pages = false;
    o.kernel = k->name;
    TwoLevelCoverageMap map(o);

    Xoshiro256 rng(4242);
    std::vector<u32> path_a(40), path_b(500);
    for (auto& key : path_a) {
      key = static_cast<u32>(rng.next()) & static_cast<u32>(kMapSize - 1);
    }
    for (auto& key : path_b) {
      key = static_cast<u32>(rng.next()) & static_cast<u32>(kMapSize - 1);
    }

    // Execute path A, classify (the hash runs over classified traces in
    // the executor), and hash.
    map.reset();
    for (u32 key : path_a) map.update(key);
    map.classify();
    const u32 before = map.hash();
    const u32 used_before = map.used_key();

    // Unrelated used_key growth: execute a much wider path B.
    map.reset();
    for (u32 key : path_b) map.update(key);
    map.classify();
    ASSERT_GT(map.used_key(), used_before) << k->name;

    // Re-execute path A: same condensed slots, larger used_key.
    map.reset();
    for (u32 key : path_a) map.update(key);
    map.classify();
    const u32 after = map.hash();

    EXPECT_EQ(before, after)
        << "§IV-D hash changed after used_key growth under " << k->name;
    hashes_before.push_back(before);
    hashes_after.push_back(after);
  }

  // And the same hash value under every kernel.
  for (usize i = 1; i < hashes_before.size(); ++i) {
    EXPECT_EQ(hashes_before[i], hashes_before[0])
        << "golden hash diverges under kernel "
        << kernels::runtime_kernels()[i]->name;
  }
}

}  // namespace
}  // namespace bigmap
