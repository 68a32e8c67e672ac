// Map-operation cache-behaviour simulation (reproduces Table I).
//
// Replays the exact memory-access streams the two coverage-map schemes
// generate during a fuzzing iteration — sparse updates, whole-map or
// used-region scans, virgin comparisons — through the modeled Xeon E5645
// hierarchy, together with a synthetic "application working set" standing
// in for the target program's own data. The report quantifies, per map
// operation:
//
//   - hit distribution across L1/L2/L3/memory (temporal+spatial locality)
//   - distinct cache lines touched (footprint)
//   - cache occupancy by map data after the scans, and the miss rate
//     inflicted on the application working set (cache pollution)
#pragma once

#include <string>
#include <vector>

#include "cachesim/cache.h"
#include "core/map_options.h"
#include "util/types.h"

namespace bigmap {

struct MapOpAccessStats {
  std::string op;
  u64 accesses = 0;
  u64 l1_hits = 0;
  u64 l2_hits = 0;
  u64 l3_hits = 0;
  u64 memory = 0;

  double l1_hit_rate() const noexcept {
    return accesses == 0 ? 0.0
                         : static_cast<double>(l1_hits) / accesses;
  }
  double memory_rate() const noexcept {
    return accesses == 0 ? 0.0 : static_cast<double>(memory) / accesses;
  }
};

struct CacheBehaviorReport {
  MapScheme scheme{};
  usize map_size = 0;
  usize used_keys = 0;

  std::vector<MapOpAccessStats> ops;

  // Fraction of each cache level's lines holding map data after the final
  // iteration's scan phase (pollution).
  double l1_map_occupancy = 0.0;
  double l2_map_occupancy = 0.0;
  double l3_map_occupancy = 0.0;

  // Miss rate experienced by the application's own working set across the
  // run — the downstream cost of pollution.
  double app_miss_rate = 0.0;

  const MapOpAccessStats* find(const std::string& op) const noexcept {
    for (const auto& s : ops) {
      if (s.op == op) return &s;
    }
    return nullptr;
  }
};

struct CacheSimParams {
  MapScheme scheme = MapScheme::kFlat;
  usize map_size = 1u << 16;
  usize used_keys = 2000;       // distinct coverage keys the target exercises
  usize edges_per_exec = 4000;  // dynamic edge events per execution
  u32 iterations = 8;           // fuzzing iterations simulated
  u32 hash_every = 4;           // hash op every k-th iteration (interesting)
  usize app_ws_bytes = 24 * 1024;  // target's own working set
  u64 seed = 1;
};

// Runs the access-trace simulation on a fresh Xeon E5645 hierarchy.
CacheBehaviorReport simulate_map_cache_behavior(const CacheSimParams& p);

}  // namespace bigmap
