// CheckpointStore: rotating, crash-consistent snapshot storage for one
// campaign instance.
//
// Layout: <dir>/snap-<seq>.bms, atomically committed (temp + rename) and
// rotated so the newest `keep` snapshots survive. Loading walks snapshots
// newest-first and returns the first one that decodes cleanly — a torn
// tail, bad checksum, stale/foreign version, or structurally bad payload
// causes a fall-back to the previous good snapshot, and exhausting them
// all is a cold start. Every recovery decision is counted so drills can
// assert the exact path taken.
//
// Thread ownership: a store belongs to one campaign attempt at a time (the
// supervisor hands it to the instance thread); stats are atomics so the
// supervisor may aggregate them after joining.
#pragma once

#include <atomic>
#include <optional>
#include <string>

#include "persist/io.h"
#include "persist/snapshot.h"
#include "util/types.h"

namespace bigmap::persist {

// Plain-value persistence accounting, aggregatable across stores. Also the
// shape SupervisorResult reports.
struct PersistStats {
  u64 checkpoints_written = 0;
  u64 checkpoint_bytes = 0;
  u64 save_failures = 0;
  u64 checkpoints_loaded = 0;
  u64 recovered_torn_tail = 0;       // fell past a torn snapshot
  u64 recovered_bad_crc = 0;         // fell past a checksum mismatch
  u64 recovered_version_mismatch = 0;  // fell past a foreign/stale format
  u64 recovered_other = 0;           // missing file / bad payload / mismatch
  u64 fallbacks = 0;                 // loads served by a non-newest snapshot
  u64 cold_starts = 0;               // loads with no usable snapshot
  u64 journal_events = 0;            // fleet journal records replayed
  u64 journal_tail_dropped = 0;      // torn journal tails discarded

  void add(const PersistStats& o) noexcept;
  u64 recoveries_total() const noexcept {
    return recovered_torn_tail + recovered_bad_crc +
           recovered_version_mismatch + recovered_other;
  }
};

// The snapshot file-name rule: "snap-<seq>.bms" with <seq> a decimal u64.
// Returns false for any other name, a sequence number that overflows u64
// included. Everything that lists snapshots (the store, statecheck, the
// drill's pin scan) goes through it, so they all see the same files.
bool parse_snap_name(const std::string& name, u64* seq);

class CheckpointStore {
 public:
  // Creates `dir` if needed. `fresh` wipes any snapshots already there
  // (new campaign); resume paths pass fresh = false.
  CheckpointStore(std::string dir, FaultCtx fault, bool fresh);

  const std::string& dir() const noexcept { return dir_; }

  // Encodes and atomically commits `s` as the next snapshot, stamped with
  // the next sequence number (s.checkpoint_seq is not read), then prunes
  // old ones down to `keep`. Returns false (with *err) on real or injected
  // I/O failure; previously committed snapshots are never damaged by a
  // failed save. A committed save is a FaultSite::kSelfKill commit point
  // (FaultInjector::commit_point), consulted before the prune.
  bool save(const CampaignSnapshot& s, u32 keep, std::string* err);

  struct LoadOutcome {
    std::optional<CampaignSnapshot> snapshot;  // empty == cold start
    LoadStatus last_failure = LoadStatus::kOk;
    u32 snapshots_skipped = 0;  // damaged snapshots walked past
  };

  // Loads the newest snapshot that decodes cleanly, recording recovery
  // causes in stats(). Missing directory or no usable snapshot is a cold
  // start, not an error.
  LoadOutcome load_latest();

  // Next sequence number save() will use (monotone across a resumed
  // process: initialized past the newest file present on disk).
  u64 next_seq() const noexcept {
    return next_seq_.load(std::memory_order_relaxed);
  }

  // Newest snapshot sequence currently on disk (0 when none). Re-scans the
  // directory every call: in a process fleet the *workers* write snapshots
  // into this store's directory from their own processes, so in-memory
  // counters here can be stale — and next_seq()-1 may name a save that
  // failed. This is the authoritative value for journal checkpoint refs.
  u64 newest_seq_on_disk() const;

  PersistStats stats() const noexcept;

  // Adjusts the fault context (the supervisor binds the instance id).
  void set_fault(FaultCtx fault) noexcept { fault_ = fault; }

 private:
  std::string snap_path(u64 seq) const;
  void classify_failure(LoadStatus s) noexcept;

  std::string dir_;
  FaultCtx fault_;
  std::atomic<u64> next_seq_{1};

  std::atomic<u64> checkpoints_written_{0};
  std::atomic<u64> checkpoint_bytes_{0};
  std::atomic<u64> save_failures_{0};
  std::atomic<u64> checkpoints_loaded_{0};
  std::atomic<u64> recovered_torn_tail_{0};
  std::atomic<u64> recovered_bad_crc_{0};
  std::atomic<u64> recovered_version_mismatch_{0};
  std::atomic<u64> recovered_other_{0};
  std::atomic<u64> fallbacks_{0};
  std::atomic<u64> cold_starts_{0};
};

}  // namespace bigmap::persist
