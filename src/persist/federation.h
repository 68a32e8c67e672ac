// Federation WAL records: the epoch-transition journal the self-healing
// federation tier (fuzzer/netfleet/gateway.h) appends alongside the fleet
// state, and statecheck audits after chaos drills.
//
// The WAL is a plain BMSP record journal (file header + CRC-framed
// records, torn tails recovered by parse_records):
//
//   kFederationEpoch  one epoch transition: who leads, why, as seen by the
//                     journaling node. Epochs must be monotone within a
//                     file — a regression means split brain.
//   kVirginDelta      one oracle virgin-map delta record (payload encoded
//                     by corpus::encode_oracle_delta), journaled when
//                     shipped or applied so drill wreckage shows exactly
//                     what state crossed the wire. Epoch stamps must be
//                     monotone too.
#pragma once

#include <span>
#include <string>

#include "persist/record.h"
#include "util/types.h"

namespace bigmap::persist {

// Why an epoch transition was journaled.
enum class EpochReason : u8 {
  kInit = 0,     // node start (first epoch this node participates in)
  kElected = 1,  // leader death detected; deterministic successor chosen
  kRejoin = 2,   // observed a newer epoch and re-homed into it
  kFenced = 3,   // observed a newer epoch and latched stale-fatal
  kResumed = 4,  // probe found no newer epoch; resumed prior leadership
};

const char* epoch_reason_name(EpochReason r) noexcept;

struct FederationEpochRecord {
  u64 epoch = 0;
  u32 leader = 0;  // rank leading this epoch (from this node's view)
  u32 rank = 0;    // the journaling node
  u8 reason = static_cast<u8>(EpochReason::kInit);
};

inline void put_federation_epoch(PayloadWriter& w,
                                 const FederationEpochRecord& rec) {
  w.put_u64(rec.epoch);
  w.put_u32(rec.leader);
  w.put_u32(rec.rank);
  w.put_u8(rec.reason);
}

inline bool parse_federation_epoch(std::span<const u8> payload,
                                   FederationEpochRecord* out) {
  PayloadReader r(payload);
  FederationEpochRecord rec;
  if (!r.get_u64(&rec.epoch) || !r.get_u32(&rec.leader) ||
      !r.get_u32(&rec.rank) || !r.get_u8(&rec.reason) || !r.done()) {
    return false;
  }
  if (rec.reason > static_cast<u8>(EpochReason::kResumed)) return false;
  *out = rec;
  return true;
}

inline const char* epoch_reason_name(EpochReason r) noexcept {
  switch (r) {
    case EpochReason::kInit: return "init";
    case EpochReason::kElected: return "elected";
    case EpochReason::kRejoin: return "rejoin";
    case EpochReason::kFenced: return "fenced";
    case EpochReason::kResumed: return "resumed";
  }
  return "unknown";
}

// Conventional WAL filename inside a node's persist directory.
inline const char* kFederationWalName = "federation.wal";

inline std::string federation_wal_path(const std::string& dir) {
  return dir + "/" + kFederationWalName;
}

}  // namespace bigmap::persist
