#include "corpus/novelty.h"

#include <algorithm>
#include <utility>

#include "fuzzer/executor.h"
#include "persist/record.h"
#include "util/hash.h"

namespace bigmap::corpus {

std::vector<u8> encode_oracle_delta(const OracleDelta& d) {
  std::vector<u8> out;
  persist::PayloadWriter w(out);
  w.put_u64(d.epoch);
  w.put_u64(d.seq);
  w.put_u8(d.map_kind);
  w.put_u32(static_cast<u32>(d.cells.size()));
  for (const VirginDeltaCell& c : d.cells) {
    w.put_u32(c.pos);
    w.put_u8(c.value);
  }
  return out;
}

bool decode_oracle_delta(std::span<const u8> bytes, OracleDelta* out) {
  persist::PayloadReader r(bytes);
  OracleDelta d;
  u32 count = 0;
  if (!r.get_u64(&d.epoch) || !r.get_u64(&d.seq) || !r.get_u8(&d.map_kind) ||
      !r.get_u32(&count)) {
    return false;
  }
  if (d.map_kind > OracleDelta::kHang) return false;
  d.cells.reserve(count);
  for (u32 i = 0; i < count; ++i) {
    VirginDeltaCell c;
    if (!r.get_u32(&c.pos) || !r.get_u8(&c.value)) return false;
    // Strictly ascending positions: duplicates or disorder mean a buggy
    // (or forged) encoder, not a transport error — CRC framing already
    // rules the latter out.
    if (i > 0 && c.pos <= d.cells.back().pos) return false;
    d.cells.push_back(c);
  }
  if (!r.done()) return false;
  *out = std::move(d);
  return true;
}

namespace {

template <class Map, class Metric>
class OracleImpl final : public NoveltyOracle {
 public:
  OracleImpl(const Program& prog, const OracleConfig& cfg)
      // Same block-id derivation as Campaign: the model sees the exact
      // coverage keys a worker seeded with cfg.seed would.
      : ids_(prog.blocks.size(), cfg.map.map_size,
             mix64(cfg.seed ^ 0xB10C1D5ULL)),
        ex_(prog, cfg.map, ids_, cfg.step_budget, cfg.work_per_block) {}

  bool admit(std::span<const u8> input) override {
    ++stats_.checked;
    OpTimeBreakdown timing;
    const auto out = ex_.run(input, timing);
    const bool novel = out.new_bits != NewBits::kNone ||
                       out.outcome_new_bits != NewBits::kNone;
    if (novel) {
      ++stats_.accepted;
    } else {
      ++stats_.rejected;
    }
    return novel;
  }

  usize covered() const override {
    return ex_.virgin_queue().count_covered();
  }

  std::vector<OracleDelta> export_full() override {
    // Two-level positions without a condensed slot have never been
    // touched, so they still read 0xFF. The walk over the slot->key log
    // (saturated keys that alias the final slot included) costs what the
    // coverage does; sorting it keeps the cells in position order.
    std::vector<std::pair<u32, u32>> live;  // (position, virgin index)
    if constexpr (Map::kScheme == MapScheme::kTwoLevel) {
      const Map& m = ex_.map();
      for (const u32 pos : m.slot_keys()) {
        live.emplace_back(pos, m.slot_of(pos));
      }
      std::sort(live.begin(), live.end());
    }
    std::vector<OracleDelta> out;
    for (u8 kind = 0; kind <= OracleDelta::kHang; ++kind) {
      const VirginMap& v = virgin_of(kind);
      OracleDelta d;
      d.map_kind = kind;
      const auto emit = [&](u32 pos, u32 i) {
        if (v.data()[i] != 0xFF) d.cells.push_back({pos, v.data()[i]});
      };
      if constexpr (Map::kScheme == MapScheme::kTwoLevel) {
        for (const auto& [pos, i] : live) emit(pos, i);
      } else {
        const u32 n = static_cast<u32>(ex_.map().map_size());
        for (u32 p = 0; p < n; ++p) emit(p, p);
      }
      d.seq = export_seq_++;
      stats_.deltas_exported++;
      stats_.cells_exported += d.cells.size();
      out.push_back(std::move(d));
    }
    return out;
  }

  bool apply_delta(const OracleDelta& d) override {
    if (d.map_kind > OracleDelta::kHang) return false;
    const usize n = ex_.map().map_size();
    for (const VirginDeltaCell& c : d.cells) {
      if (c.pos >= n) return false;  // wrong geometry; apply nothing
    }
    VirginMap& v = mutable_virgin_of(d.map_kind);
    for (const VirginDeltaCell& c : d.cells) {
      if constexpr (Map::kScheme == MapScheme::kTwoLevel) {
        // Force a condensed slot for the original position. The scratch
        // count this bumps is reset before any run; the slot assignment
        // itself is the importer's own, which is all admit() depends on.
        // A fresh slot may lie past the virgin maps' filled prefix.
        ex_.map().update(c.pos);
        ex_.sync_virgin();
        const u32 slot = ex_.map().slot_of(c.pos);
        v.data()[slot] &= c.value;
      } else {
        v.data()[c.pos] &= c.value;
      }
    }
    stats_.deltas_applied++;
    stats_.cells_applied += d.cells.size();
    return true;
  }

 private:
  const VirginMap& virgin_of(u8 kind) const {
    switch (kind) {
      case OracleDelta::kCrash: return ex_.virgin_crash();
      case OracleDelta::kHang: return ex_.virgin_hang();
      default: return ex_.virgin_queue();
    }
  }

  VirginMap& mutable_virgin_of(u8 kind) {
    switch (kind) {
      case OracleDelta::kCrash: return ex_.mutable_virgin_crash();
      case OracleDelta::kHang: return ex_.mutable_virgin_hang();
      default: return ex_.mutable_virgin_queue();
    }
  }

  BlockIdTable ids_;
  Executor<Map, Metric> ex_;
  u64 export_seq_ = 0;
};

}  // namespace

std::unique_ptr<NoveltyOracle> make_novelty_oracle(const Program& program,
                                                   const OracleConfig& cfg) {
  return dispatch_map_metric(
      cfg.scheme, cfg.metric,
      [&]<class Map, class Metric>() -> std::unique_ptr<NoveltyOracle> {
        return std::make_unique<OracleImpl<Map, Metric>>(program, cfg);
      });
}

}  // namespace bigmap::corpus
