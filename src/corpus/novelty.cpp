#include "corpus/novelty.h"

#include <algorithm>

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
    const usize n = ex_.map().map_size();
    std::vector<OracleDelta> out;
    for (u8 kind = 0; kind <= OracleDelta::kHang; ++kind) {
      const VirginMap& v = virgin_of(kind);
      OracleDelta d;
      d.map_kind = kind;
      // One O(map_size) scan per export. The dense two-level layout means
      // nearly every probe is a one-branch slot_of miss; a gateway exports
      // only when it ships its whole model to a (re)joined peer, so this
      // never shows against exec cost.
      for (u32 p = 0; p < n; ++p) {
        const u8 cur = current_virgin(v, p);
        if (cur != 0xFF) d.cells.push_back({p, cur});
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

  // Current virgin byte for an ORIGINAL map position. Two-level positions
  // without a condensed slot have never been touched: still 0xFF.
  u8 current_virgin(const VirginMap& v, u32 pos) const {
    if constexpr (Map::kScheme == MapScheme::kTwoLevel) {
      const u32 slot = ex_.map().slot_of(pos);
      return slot == Map::kUnassigned ? 0xFF : v.data()[slot];
    } else {
      return v.data()[pos];
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
