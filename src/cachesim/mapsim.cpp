#include "cachesim/mapsim.h"

#include <algorithm>
#include <unordered_set>

#include "util/rng.h"

namespace bigmap {
namespace {

// Disjoint virtual address bases for the simulated data structures.
constexpr u64 kTraceBase = 0x1'0000'0000ULL;   // coverage bitmap
constexpr u64 kIndexBase = 0x2'0000'0000ULL;   // BigMap index bitmap
constexpr u64 kVirginBase = 0x3'0000'0000ULL;  // global/virgin map
constexpr u64 kAppBase = 0x4'0000'0000ULL;     // application working set

class Tracker {
 public:
  Tracker(CacheHierarchy& h, MapOpAccessStats& stats)
      : h_(&h), stats_(&stats) {}

  void access(u64 addr) {
    ++stats_->accesses;
    switch (h_->access(addr)) {
      case HitLevel::kL1:
        ++stats_->l1_hits;
        break;
      case HitLevel::kL2:
        ++stats_->l2_hits;
        break;
      case HitLevel::kL3:
        ++stats_->l3_hits;
        break;
      case HitLevel::kMemory:
        ++stats_->memory;
        break;
    }
  }

 private:
  CacheHierarchy* h_;
  MapOpAccessStats* stats_;
};

}  // namespace

CacheBehaviorReport simulate_map_cache_behavior(const CacheSimParams& p) {
  CacheBehaviorReport rep;
  rep.scheme = p.scheme;
  rep.map_size = p.map_size;
  rep.used_keys = std::min(p.used_keys, p.map_size);

  CacheHierarchy h = CacheHierarchy::xeon_e5645();
  Xoshiro256 rng(p.seed);

  // Distinct coverage keys (random positions in the hash space). The
  // condensed slot of key i under BigMap is simply i (dense first-touch
  // order).
  std::vector<u32> keys;
  {
    std::unordered_set<u32> seen;
    keys.reserve(rep.used_keys);
    while (keys.size() < rep.used_keys) {
      const u32 k = static_cast<u32>(rng.next()) &
                    static_cast<u32>(p.map_size - 1);
      if (seen.insert(k).second) keys.push_back(k);
    }
  }

  rep.ops.resize(6);
  rep.ops[0].op = "update";
  rep.ops[1].op = "reset";
  rep.ops[2].op = "classify";
  rep.ops[3].op = "compare";
  rep.ops[4].op = "hash";
  rep.ops[5].op = "app";
  Tracker update(h, rep.ops[0]);
  Tracker reset(h, rep.ops[1]);
  Tracker classify(h, rep.ops[2]);
  Tracker compare(h, rep.ops[3]);
  Tracker hash(h, rep.ops[4]);
  Tracker app(h, rep.ops[5]);

  const bool two_level = p.scheme == MapScheme::kTwoLevel;
  // Scan extent: whole map for the flat scheme, used region for BigMap.
  const usize scan_bytes = two_level ? rep.used_keys : p.map_size;
  constexpr u32 kWord = 8;  // scans read one u64 per probe

  for (u32 it = 0; it < p.iterations; ++it) {
    // ---- reset ------------------------------------------------------------
    for (usize b = 0; b < scan_bytes; b += kWord) reset.access(kTraceBase + b);

    // ---- execution: app working set + inline updates ----------------------
    // The app toucheses its working set with high locality; edge updates
    // interleave. Edge stream: random draws from the key set with a hot
    // subset (loop edges) drawn more often.
    // Loop/common-function edges form a small hot set (the paper's "high
    // temporal locality" for updates).
    const usize hot = std::max<usize>(1, keys.size() / 64);
    for (usize e = 0; e < p.edges_per_exec; ++e) {
      // Application accesses dominate the instruction stream; model two
      // app touches per edge event.
      app.access(kAppBase + (rng.next() % p.app_ws_bytes));
      app.access(kAppBase + (rng.next() % p.app_ws_bytes));

      const bool hot_draw = rng.chance(7, 8);
      const u32 ki = hot_draw
                         ? static_cast<u32>(rng.next() % hot)
                         : static_cast<u32>(rng.next() % keys.size());
      if (two_level) {
        update.access(kIndexBase + static_cast<u64>(keys[ki]) * 4);
        update.access(kTraceBase + ki);  // condensed slot == ki
      } else {
        update.access(kTraceBase + keys[ki]);
      }
    }

    // ---- classify ---------------------------------------------------------
    for (usize b = 0; b < scan_bytes; b += kWord) {
      classify.access(kTraceBase + b);
    }

    // ---- compare (trace + virgin) -----------------------------------------
    for (usize b = 0; b < scan_bytes; b += kWord) {
      compare.access(kTraceBase + b);
      compare.access(kVirginBase + b);
    }

    // ---- hash (interesting iterations only) -------------------------------
    if (p.hash_every != 0 && it % p.hash_every == 0) {
      for (usize b = 0; b < scan_bytes; b += kWord) {
        hash.access(kTraceBase + b);
      }
    }
  }

  // Pollution: map-data occupancy of each level after the last scans.
  const u64 map_lo = kTraceBase;
  const u64 map_hi = kTraceBase + p.map_size;
  auto occupancy = [&](const Cache& c) {
    usize resident = c.resident_lines_in(map_lo, map_hi) +
                     c.resident_lines_in(kVirginBase, kVirginBase +
                                                          p.map_size) +
                     c.resident_lines_in(kIndexBase,
                                         kIndexBase + p.map_size * 4);
    return static_cast<double>(resident) /
           static_cast<double>(c.capacity_lines());
  };
  rep.l1_map_occupancy = occupancy(h.l1());
  rep.l2_map_occupancy = occupancy(h.l2());
  rep.l3_map_occupancy = occupancy(h.l3());

  // Pollution cost on the application: the fraction of its working-set
  // accesses that fall all the way through to DRAM (L1/L2/L3 all evicted
  // by map traffic).
  const auto& app_stats = rep.ops[5];
  rep.app_miss_rate =
      app_stats.accesses == 0
          ? 0.0
          : static_cast<double>(app_stats.memory) /
                static_cast<double>(app_stats.accesses);

  return rep;
}

}  // namespace bigmap
