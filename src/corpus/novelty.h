// NoveltyOracle: virgin-map novelty classification for federation.
//
// The PeerLink's built-in novelty filter is exact but shallow: it drops
// entries whose *content hash* the remote side already announced. Two
// different inputs exercising the same coverage both pass it. The oracle
// is the deeper test the BigMap structure makes cheap: re-execute the
// candidate against a private model of the receiver's virgin maps and ship
// it only when it would actually flip virgin bits there.
//
// A gateway keeps one oracle per peer link as a "remote model": every
// entry shipped to or accepted from that peer is admitted into the model,
// so the model's virgin maps track (a conservative superset of) the
// coverage the peer has seen through this link. admit() returns whether
// the input produced new bits against the model — exactly Executor::run's
// interesting() verdict, which is what the differential test pins.
//
// The oracle is deliberately deterministic: same seed + same admission
// sequence -> same verdicts, so federation drills with the oracle enabled
// still converge to exact find-union equality.
//
// Delta sync: a model can also be (re)built WITHOUT executing anything.
// export_full() emits every virgin-map cell that differs from 0xFF;
// apply_delta() ANDs such cells into another oracle's virgin maps. A
// federation ships the full model whenever a peer (re)joins and then
// keeps both sides' models current by admitting the entries it relays,
// so there is no incremental export. Cells are keyed by ORIGINAL map
// positions (`key & mask`), never by condensed slots — slot assignment
// is execution-order-dependent and therefore meaningless across
// processes, but virgin state over original keys is exactly what admit()
// verdicts depend on. The two-level scheme's dense [0, used_key) layout
// keeps the records tiny: only positions that ever received coverage can
// differ from 0xFF. AND-application is idempotent and order-insensitive,
// so replayed or re-sent deltas are harmless.
#pragma once

#include <concepts>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "core/map_options.h"
#include "instrumentation/metrics.h"
#include "target/program.h"
#include "util/types.h"

namespace bigmap::corpus {

// Map/metric geometry the model executor runs with. Must match the fleet
// the oracle stands in for (same seed => same block-id table as a worker
// with that seed).
struct OracleConfig {
  MapScheme scheme = MapScheme::kTwoLevel;
  MetricKind metric = MetricKind::kEdge;
  MapOptions map;
  u64 seed = 1;
  u64 step_budget = 1u << 16;
  u32 work_per_block = 12;
};

struct OracleStats {
  u64 checked = 0;
  u64 accepted = 0;
  u64 rejected = 0;
  u64 deltas_exported = 0;
  u64 cells_exported = 0;
  u64 deltas_applied = 0;
  u64 cells_applied = 0;

  OracleStats& operator+=(const OracleStats& o) noexcept;
};

// OracleStats' one field list: calls f(name, s.member...) for every
// counter of one or more stats walked in lockstep.
template <class F, class... S>
  requires(std::same_as<std::remove_const_t<S>, OracleStats> && ...)
void for_each_field(F&& f, S&... s) {
  f("checked", s.checked...);
  f("accepted", s.accepted...);
  f("rejected", s.rejected...);
  f("deltas_exported", s.deltas_exported...);
  f("cells_exported", s.cells_exported...);
  f("deltas_applied", s.deltas_applied...);
  f("cells_applied", s.cells_applied...);
}

inline OracleStats& OracleStats::operator+=(const OracleStats& o) noexcept {
  for_each_field([](const char*, u64& a, u64 b) { a += b; }, *this, o);
  return *this;
}

// One changed virgin cell, keyed by the ORIGINAL map position.
struct VirginDeltaCell {
  u32 pos = 0;
  u8 value = 0;
};

// A batch of virgin-map changes for one of the three virgin maps.
// `epoch` is stamped by the federation layer; `seq` counts exports per
// oracle, so monotonicity violations in drill wreckage are detectable.
struct OracleDelta {
  static constexpr u8 kQueue = 0;
  static constexpr u8 kCrash = 1;
  static constexpr u8 kHang = 2;

  u64 epoch = 0;
  u64 seq = 0;
  u8 map_kind = kQueue;
  std::vector<VirginDeltaCell> cells;  // strictly ascending pos
};

// Wire/disk codec for one delta record (also the payload of the persist
// layer's kVirginDelta record and the netfleet kDelta frame). decode
// validates structure: exact length, strictly ascending unique positions.
std::vector<u8> encode_oracle_delta(const OracleDelta& d);
bool decode_oracle_delta(std::span<const u8> bytes, OracleDelta* out);

class NoveltyOracle {
 public:
  virtual ~NoveltyOracle() = default;

  // Runs `input` against the model and updates the model's virgin maps.
  // True = the input flipped virgin bits (queue bits for normal runs,
  // crash/hang bits for faulting runs) and is worth shipping.
  virtual bool admit(std::span<const u8> input) = 0;

  // Covered positions of the model's queue virgin map.
  virtual usize covered() const = 0;

  // Full model state: every cell that differs from virgin 0xFF, for all
  // three map kinds (always emitted, even when empty, so a receiver can
  // distinguish "empty model" from "nothing new"). Never executes
  // anything.
  virtual std::vector<OracleDelta> export_full() = 0;

  // ANDs a delta into this model's virgin maps — the zero-execution
  // rebuild path. False when the delta is malformed for this geometry
  // (position out of range / unknown map kind); nothing is applied then.
  virtual bool apply_delta(const OracleDelta& d) = 0;

  const OracleStats& stats() const noexcept { return stats_; }

 protected:
  OracleStats stats_;
};

// Builds an oracle for the given geometry (dispatching scheme x metric to
// the fully-inlined executor, like run_campaign does).
std::unique_ptr<NoveltyOracle> make_novelty_oracle(const Program& program,
                                                   const OracleConfig& cfg);

}  // namespace bigmap::corpus
