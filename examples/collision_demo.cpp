// Hash-collision damage, demonstrated mechanically (paper §II-B/§III).
//
// Builds a tiny program with two edges whose coverage keys collide in a
// small map, and shows that the fuzzer's fitness function cannot tell them
// apart — a new edge is reported as "nothing new" because its colliding
// partner was seen first. A larger map separates the keys and restores the
// signal. This is the per-edge mechanism behind the paper's campaign-level
// results.
//
//   ./build/examples/collision_demo
#include <cstdio>

#include "core/two_level_map.h"
#include "core/virgin.h"
#include "instrumentation/metrics.h"
#include "util/rng.h"

using namespace bigmap;

namespace {

// Finds two block pairs whose AFL edge keys collide at `small_size` but
// not at `large_size`.
struct CollidingPair {
  u32 a_prev, a_cur;
  u32 b_prev, b_cur;
};

CollidingPair find_colliding_edges(const BlockIdTable& ids, usize small_size,
                                   usize large_size) {
  const u32 small_mask = static_cast<u32>(small_size - 1);
  const u32 large_mask = static_cast<u32>(large_size - 1);
  for (u32 a = 0; a < ids.size(); ++a) {
    for (u32 b = a + 1; b < ids.size(); ++b) {
      const u32 ka = (ids.id(a) >> 1) ^ ids.id(a + 1 < ids.size() ? a + 1 : 0);
      const u32 kb = (ids.id(b) >> 1) ^ ids.id(b + 1 < ids.size() ? b + 1 : 0);
      if ((ka & small_mask) == (kb & small_mask) &&
          (ka & large_mask) != (kb & large_mask)) {
        return {a, a + 1 < static_cast<u32>(ids.size()) ? a + 1 : 0, b,
                b + 1 < static_cast<u32>(ids.size()) ? b + 1 : 0};
      }
    }
  }
  return {0, 1, 2, 3};
}

NewBits feed_edge(TwoLevelCoverageMap& map, VirginMap& virgin,
                  const BlockIdTable& ids, u32 prev, u32 cur) {
  map.reset();
  EdgeMetric metric(ids);
  metric.begin_execution();
  metric.visit(prev);
  map.update(metric.visit(cur));
  return map.classify_and_compare(virgin);
}

}  // namespace

int main() {
  constexpr usize kSmall = 1u << 10;  // deliberately tiny to force collision
  constexpr usize kLarge = 1u << 20;

  BlockIdTable ids(4096, kLarge, /*seed=*/42);
  const CollidingPair pair = find_colliding_edges(ids, kSmall, kLarge);
  std::printf("edge A: blocks %u->%u, edge B: blocks %u->%u\n", pair.a_prev,
              pair.a_cur, pair.b_prev, pair.b_cur);

  for (usize size : {kSmall, kLarge}) {
    MapOptions o;
    o.map_size = size;
    TwoLevelCoverageMap map(o);
    VirginMap virgin(map.condensed_size());

    const NewBits first =
        feed_edge(map, virgin, ids, pair.a_prev, pair.a_cur);
    const NewBits second =
        feed_edge(map, virgin, ids, pair.b_prev, pair.b_cur);

    std::printf(
        "\nmap %zu bytes:\n  edge A first seen  -> %s\n  edge B first seen  "
        "-> %s %s\n",
        size, first == NewBits::kNewTuple ? "NEW TUPLE (saved)" : "nothing",
        second == NewBits::kNewTuple ? "NEW TUPLE (saved)"
                                     : "nothing new (DISCARDED)",
        second == NewBits::kNewTuple
            ? ""
            : "<- collision: a genuinely new edge is invisible");
  }

  std::printf(
      "\nWith BigMap the large map costs the same as the small one, so "
      "there is no reason to accept the collision.\n");
  return 0;
}
