#include "cachesim/cache.h"

#include <bit>
#include <stdexcept>

namespace bigmap {

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  if (cfg.line_size == 0 || !std::has_single_bit(cfg.line_size)) {
    throw std::invalid_argument("line_size must be a power of two");
  }
  if (cfg.associativity == 0) {
    throw std::invalid_argument("associativity must be >= 1");
  }
  const usize lines = cfg.size_bytes / cfg.line_size;
  if (lines == 0 || lines % cfg.associativity != 0) {
    throw std::invalid_argument("size/line_size must be a multiple of ways");
  }
  num_sets_ = lines / cfg.associativity;
  line_shift_ = static_cast<u32>(std::countr_zero(
      static_cast<u64>(cfg.line_size)));
  ways_.resize(num_sets_ * cfg.associativity);
}

bool Cache::access(u64 addr) noexcept {
  const u64 line = addr >> line_shift_;
  const usize set = set_of(line);
  Way* base = &ways_[set * cfg_.associativity];
  ++tick_;

  Way* victim = base;
  for (u32 w = 0; w < cfg_.associativity; ++w) {
    if (base[w].tag == line) {
      base[w].lru = tick_;
      ++hits_;
      return true;
    }
    if (base[w].lru < victim->lru) victim = &base[w];
  }

  ++misses_;
  victim->tag = line;
  victim->lru = tick_;
  return false;
}

bool Cache::contains(u64 addr) const noexcept {
  const u64 line = addr >> line_shift_;
  const usize set = set_of(line);
  const Way* base = &ways_[set * cfg_.associativity];
  for (u32 w = 0; w < cfg_.associativity; ++w) {
    if (base[w].tag == line) return true;
  }
  return false;
}

void Cache::reset() noexcept {
  for (Way& w : ways_) w = Way{};
  tick_ = 0;
  hits_ = 0;
  misses_ = 0;
}

usize Cache::resident_lines_in(u64 lo, u64 hi) const noexcept {
  const u64 line_lo = lo >> line_shift_;
  const u64 line_hi = (hi + cfg_.line_size - 1) >> line_shift_;
  usize n = 0;
  for (const Way& w : ways_) {
    if (w.tag != kInvalid && w.tag >= line_lo && w.tag < line_hi) ++n;
  }
  return n;
}

CacheHierarchy::CacheHierarchy(const CacheConfig& l1, const CacheConfig& l2,
                               const CacheConfig& l3)
    : l1_(l1), l2_(l2), l3_(l3) {}

CacheHierarchy CacheHierarchy::xeon_e5645() {
  return CacheHierarchy({32 * 1024, 8, 64}, {256 * 1024, 8, 64},
                        {12 * 1024 * 1024, 16, 64});
}

HitLevel CacheHierarchy::access(u64 addr) noexcept {
  if (l1_.access(addr)) return HitLevel::kL1;
  if (l2_.access(addr)) return HitLevel::kL2;
  if (l3_.access(addr)) return HitLevel::kL3;
  ++memory_accesses_;
  return HitLevel::kMemory;
}

void CacheHierarchy::reset() noexcept {
  l1_.reset();
  l2_.reset();
  l3_.reset();
  memory_accesses_ = 0;
}

}  // namespace bigmap
