// Set-associative cache model with LRU replacement, and a three-level
// hierarchy mirroring the paper's Xeon E5645 testbed (32 kB L1d / 256 kB
// unified L2 / 12 MB shared L3, 64 B lines).
//
// The simulator exists to reproduce Table I — the locality and
// cache-pollution characterization of each map operation under both
// schemes — independently of the host CPU. It models addresses only (no
// data), which is sufficient for hit/miss accounting.
#pragma once

#include <vector>

#include "util/types.h"

namespace bigmap {

struct CacheConfig {
  usize size_bytes = 32 * 1024;
  u32 associativity = 8;
  u32 line_size = 64;
};

// One cache level: set-associative, LRU, allocate-on-miss (reads and writes
// behave identically for our purposes).
class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  // Accesses `addr`; returns true on hit. Misses allocate.
  bool access(u64 addr) noexcept;

  // Probes without allocating or updating LRU state.
  bool contains(u64 addr) const noexcept;

  void reset() noexcept;

  u64 hits() const noexcept { return hits_; }
  u64 misses() const noexcept { return misses_; }
  u64 accesses() const noexcept { return hits_ + misses_; }
  double miss_rate() const noexcept {
    const u64 a = accesses();
    return a == 0 ? 0.0 : static_cast<double>(misses_) / a;
  }

  // Number of resident lines whose tag matches the address range
  // [lo, hi) — used to quantify how much of the cache a data structure
  // occupies (pollution measurement).
  usize resident_lines_in(u64 lo, u64 hi) const noexcept;

  const CacheConfig& config() const noexcept { return cfg_; }
  usize num_sets() const noexcept { return num_sets_; }
  usize capacity_lines() const noexcept { return num_sets_ * cfg_.associativity; }

 private:
  struct Way {
    u64 tag = kInvalid;
    u64 lru = 0;  // larger == more recently used
  };
  static constexpr u64 kInvalid = ~0ULL;

  // Modulo indexing: real LLCs (e.g. the Xeon's 12 MB L3) have non-power-
  // of-two set counts.
  usize set_of(u64 line) const noexcept { return line % num_sets_; }

  CacheConfig cfg_;
  usize num_sets_;
  u32 line_shift_;
  std::vector<Way> ways_;  // num_sets_ * associativity, set-major
  u64 tick_ = 0;
  u64 hits_ = 0;
  u64 misses_ = 0;
};

// Per-level outcome of one hierarchy access.
enum class HitLevel : u8 { kL1, kL2, kL3, kMemory };

// Three-level hierarchy. Each access probes L1, then L2, then L3; a miss at
// every level counts as a memory access. Fill allocates in all levels
// (inclusive behaviour, like the paper's Nehalem-era testbed).
class CacheHierarchy {
 public:
  CacheHierarchy(const CacheConfig& l1, const CacheConfig& l2,
                 const CacheConfig& l3);

  // Configuration matching the paper's Xeon E5645 (§V-A1).
  static CacheHierarchy xeon_e5645();

  HitLevel access(u64 addr) noexcept;

  void reset() noexcept;

  Cache& l1() noexcept { return l1_; }
  Cache& l2() noexcept { return l2_; }
  Cache& l3() noexcept { return l3_; }
  const Cache& l1() const noexcept { return l1_; }
  const Cache& l2() const noexcept { return l2_; }
  const Cache& l3() const noexcept { return l3_; }

  u64 memory_accesses() const noexcept { return memory_accesses_; }

 private:
  Cache l1_, l2_, l3_;
  u64 memory_accesses_ = 0;
};

}  // namespace bigmap
