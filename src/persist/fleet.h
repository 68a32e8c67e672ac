// FleetStore: fleet-level persistence for the supervisor.
//
// Directory layout:
//
//   <dir>/fleet.journal    append-only event log (record format, no commit
//                          marker: each event is independently committed)
//   <dir>/instance-<i>/    per-instance CheckpointStore (snap-<seq>.bms)
//
// The journal starts with a kFleetHeader fingerprint of the supervisor
// configuration; resuming against a directory written by a differently
// shaped fleet is refused rather than silently merged. Each instance
// lifecycle transition (attempt finished, restart scheduled, instance
// completed/failed) appends one kFleetEvent record carrying that
// instance's health counters, so a SIGKILL'd process can rebuild exactly
// which instances still owe execs. A torn tail — the process died
// mid-append — drops only the final partial event.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "persist/checkpoint.h"
#include "persist/io.h"
#include "persist/journal.h"
#include "persist/record.h"
#include "util/types.h"

namespace bigmap::persist {

// Configuration identity a resume must match. All fields are compared.
struct FleetFingerprint {
  u32 num_instances = 0;
  u64 base_seed = 0;
  u64 seed_stride = 0;
  u64 max_execs = 0;
  u32 scheme = 0;
  u32 metric = 0;
  u64 map_size = 0;

  bool operator==(const FleetFingerprint&) const = default;
};

// One instance lifecycle event. `final_state` mirrors the supervisor's
// view: 0 = still owed budget (restarting), 1 = completed, 2 = failed,
// 3 = quarantined (parked by the procfleet coordinator; its remaining
// budget was redistributed and nothing will resume it).
//
// Both drivers write the base_* fields as 0 and neither acts on them when
// resuming. They would carry counters charged to earlier cold budget
// segments, but cold restarts happen only without a persist_dir, and
// without one there is no journal. The fields stay so the record layout
// (and every journal byte) is unchanged. segment_max_execs is the exec
// budget of the segment in flight; a resuming process must continue that
// budget, not restart it.
struct InstanceEvent {
  u32 instance = 0;
  u32 final_state = 0;
  u32 attempts = 0;
  u32 restarts = 0;
  u32 stalls = 0;
  u32 kills = 0;
  u32 alloc_failures = 0;
  u32 warm_restarts = 0;
  u64 execs = 0;
  u64 interesting = 0;
  u64 crashes_total = 0;
  u64 faulted_execs = 0;
  u64 injected_hangs = 0;
  u64 base_execs = 0;
  u64 base_interesting = 0;
  u64 base_crashes = 0;
  u64 base_faulted_execs = 0;
  u64 base_injected_hangs = 0;
  u64 segment_max_execs = 0;
  // Sequence number of the newest snapshot the instance's checkpoint store
  // had committed when this event was journaled (0 = none yet). statecheck
  // cross-validates it: the instance directory must still hold a snapshot
  // at least this new, otherwise the journal references state that no
  // longer exists (a dangling checkpoint reference).
  u64 checkpoint_seq = 0;
};

inline constexpr u32 kEventRunning = 0;
inline constexpr u32 kEventCompleted = 1;
inline constexpr u32 kEventFailed = 2;
inline constexpr u32 kEventQuarantined = 3;

// Raw payload decoders for journal records, shared by FleetStore's replay
// and the statecheck CLI (which inspects journals without opening a store,
// so it can validate directories whose fingerprint it does not know).
bool decode_fleet_fingerprint(std::span<const u8> payload,
                              FleetFingerprint* fp);
bool decode_instance_event(std::span<const u8> payload, InstanceEvent* ev);

class FleetStore {
 public:
  // Fresh open wipes the directory and writes a new journal header.
  // Resume open replays the existing journal (truncating a torn tail) and
  // verifies the fingerprint; a missing, unreadable or empty journal
  // degrades to a cold start. A fingerprint from a different fleet shape,
  // a foreign file, or a torn tail that cannot be truncated is an error
  // (ok() == false) — resuming would corrupt budget accounting.
  FleetStore(std::string dir, FleetFingerprint fp, FaultCtx fault,
             bool resume);

  bool ok() const noexcept { return error_.empty(); }
  const std::string& error() const noexcept { return error_; }

  // True when resume was requested and a usable journal was replayed.
  bool resumed() const noexcept { return resumed_; }

  // Latest replayed event for `instance`, if the journal had any.
  std::optional<InstanceEvent> last_event(u32 instance) const;

  // Appends one event record. Failures (real or injected) are reported but
  // non-fatal: the run continues, the journal just loses granularity.
  bool append_event(const InstanceEvent& ev, std::string* err);

  // Per-instance checkpoint store, created on first use. Fresh fleets get
  // fresh stores; resumed fleets keep snapshots on disk.
  CheckpointStore& instance_store(u32 instance);

  // Journal-level stats plus the stats of every instance store created so
  // far.
  PersistStats stats() const;

  const std::string& dir() const noexcept { return dir_; }

 private:
  void open_fresh();
  void open_resume();
  void wipe_instances();

  std::string dir_;
  FleetFingerprint fp_;
  FaultCtx fault_;
  Journal journal_;
  bool fresh_stores_ = true;
  bool resumed_ = false;
  std::string error_;
  std::map<u32, InstanceEvent> last_events_;
  std::map<u32, std::unique_ptr<CheckpointStore>> stores_;

  u64 journal_events_ = 0;
  u64 journal_tail_dropped_ = 0;
  u64 journal_cold_starts_ = 0;
};

}  // namespace bigmap::persist
