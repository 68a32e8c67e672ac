// Crash-consistent corpus database: the single source of truth for queue
// entries, crash-triage artifacts, and federation exchange.
//
// On disk a store is one directory with two BMSP files (persist/framing.h):
//
//   corpus.pack   immutable, committed via temp + rename. Canonical form:
//                 kCorpusMeta, then live entries sorted by content hash,
//                 then crash rows sorted by stack hash, then kCommit.
//                 Because the encoding is a pure function of the live set,
//                 two stores holding the same corpus produce byte-identical
//                 packs — the property the corpus chaos drill checks.
//   corpus.wal    append-only journal (persist/journal.h) of everything
//                 since the last compaction: new entries, crash events,
//                 trim tombstones. A torn tail is physically truncated on
//                 open, exactly like the fleet journal and federation WAL.
//
// Recovery = load pack, replay WAL. Every WAL record is idempotent under
// replay, which is what makes the two-file commit protocol safe:
//
//   - entries are keyed by fnv1a64(content); re-adding is a dedup hit,
//     and duplicate observations min-merge their metadata under a total
//     order, so the stored row is independent of arrival order
//   - tombstones for absent hashes are no-ops
//   - crash events carry (instance, exec_seq) and are dropped when the
//     row already covers that instance up to exec_seq
//
// so a crash at ANY point of compaction (before the pack rename, or after
// the rename but before the WAL reset) reopens to the same logical state.
//
// Crash triage rows aggregate per (stack_hash): per-instance first/last
// exec and occurrence counts, plus one witness input (from the smallest
// instance id that saw the stack — an order-independent rule, so the row
// is deterministic no matter how instance threads interleave WAL appends).
//
// Trimming (trim()) is the FairFuzz-motivated retention pass: for every
// covered map position keep the cheapest witness (min exec_ns * len), pin
// rare-edge witnesses (positions with a single coverer), and drop entries
// whose whole position set is covered by pinned entries. Callers pass the
// hashes their live queues still reference; those are never dropped.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "persist/io.h"
#include "persist/journal.h"
#include "persist/record.h"
#include "util/types.h"

namespace bigmap::corpus {

// One deduplicated corpus input. `positions` is the sparse set of coverage
// map positions the entry touched when first recorded (sorted, unique) —
// the rarity signal trimming works from.
struct CorpusEntry {
  u64 content_hash = 0;
  std::vector<u8> data;
  u64 exec_ns = 0;
  u32 bitmap_hash = 0;
  u32 depth = 0;
  std::vector<u32> positions;
};

// Per-instance slice of one crash-triage row. All three fields are exec
// sequence numbers / counts in that instance's deterministic exec stream.
struct CrashSighting {
  u64 first_exec = 0;
  u64 last_exec = 0;
  u64 count = 0;
};

// One crash-triage index row, keyed by call-stack hash.
struct CrashRow {
  u64 stack_hash = 0;
  u32 bug_id = 0;
  u32 witness_instance = 0;  // valid when has_witness
  bool has_witness = false;
  std::vector<u8> witness;
  std::map<u32, CrashSighting> sightings;  // instance -> stats (ordered)

  u64 occurrences() const noexcept {
    u64 n = 0;
    for (const auto& [id, s] : sightings) n += s.count;
    return n;
  }
};

struct CorpusStats {
  u64 wal_appends = 0;
  u64 wal_bytes = 0;
  u64 wal_append_failures = 0;
  u64 dedup_hits = 0;
  u64 crash_dedup_hits = 0;
  u64 entries_trimmed = 0;
  u64 compactions = 0;
  u64 pack_entries_loaded = 0;
  u64 wal_records_replayed = 0;
  u64 torn_tail_truncations = 0;
};

struct TrimReport {
  u64 scanned = 0;
  u64 dropped = 0;
  u64 kept = 0;
  u64 rare_positions = 0;  // positions with exactly one covering entry
};

// How open() found the two files. `ok` means the store is usable (a torn
// WAL tail that was truncated away still counts as usable).
struct OpenReport {
  bool ok = false;
  persist::LoadStatus pack_status = persist::LoadStatus::kOk;
  persist::LoadStatus wal_status = persist::LoadStatus::kOk;
  u64 entries = 0;
  u64 crash_rows = 0;
  std::string error;
};

// What a read-only fsck() pass found. `ok` mirrors open()'s notion of
// loadable: structural pack damage or undecodable records fail, a torn
// WAL tail is a recoverable warning (reported via torn_tail_bytes).
struct FsckReport {
  bool ok = false;
  bool pack_present = false;
  bool wal_present = false;
  persist::LoadStatus pack_status = persist::LoadStatus::kOk;
  persist::LoadStatus wal_status = persist::LoadStatus::kOk;
  u64 entries = 0;     // live entries after replay (pack + WAL - tombstones)
  u64 crash_rows = 0;
  u64 wal_records = 0;
  u64 torn_tail_bytes = 0;  // WAL bytes past the valid prefix
  u64 generation = 0;
  std::vector<std::string> errors;
  std::vector<u64> live_hashes;  // sorted live content hashes
};

// Compaction phases handed to the crash hook (see set_compact_hook).
enum class CompactPhase : u8 {
  kBeforePackWrite = 0,  // pack bytes built, temp file not yet written
  kAfterPackRename = 1,  // new pack committed, WAL not yet reset
};

class CorpusStore {
 public:
  // `fault` gates every disk touch through the shared persist fault sites
  // (kNoSpace / kShortWrite / kRenameFail / kCorruptRead).
  explicit CorpusStore(std::string dir, persist::FaultCtx fault = {});

  // Loads (or, with `fresh`, wipes and re-creates) the store directory.
  // Must be called before any other method; returns ok=false on a damaged
  // pack (packs are committed atomically, so damage means real corruption,
  // not a crash mid-write).
  OpenReport open(bool fresh);

  // Adds one input. Returns true when the entry is new (false = dedup
  // hit). `durable_out` (optional) reports whether the WAL append reached
  // disk; a failed append leaves the entry in memory and queued for
  // flush_pending(). `hash_out` (optional) receives the content hash.
  bool add_entry(std::span<const u8> data, u64 exec_ns, u32 bitmap_hash,
                 u32 depth, std::span<const u32> positions,
                 u64* hash_out = nullptr, bool* durable_out = nullptr);

  // Records one crash occurrence from `instance`'s exec stream. Events at
  // or before the row's recorded last_exec for that instance are dropped —
  // this makes checkpoint-resume replay idempotent. `witness` is kept only
  // per the smallest-instance rule. Returns true when the event advanced
  // the row.
  bool record_crash(u64 stack_hash, u32 bug_id, u32 instance, u64 exec_seq,
                    std::span<const u8> witness, bool* durable_out = nullptr);

  // Copies the entry for `hash` into *out. False when absent.
  bool fetch(u64 hash, CorpusEntry* out) const;
  bool contains(u64 hash) const;

  // True when the entry is live AND its WAL/pack record reached disk — the
  // gate for encoding a checkpoint queue entry as a store ref.
  bool durable(u64 hash) const;

  // Retries WAL appends that previously failed (injected faults). Returns
  // true when nothing remains pending.
  bool flush_pending(std::string* err);

  // FairFuzz-style retention pass; `pinned` hashes are never dropped.
  // Dropped entries get WAL tombstones and leave the pack at the next
  // compaction.
  TrimReport trim(const std::unordered_set<u64>& pinned);

  // Rewrites the pack from live state (temp + rename), then resets the
  // WAL. Safe against crashes at either phase; see file comment.
  bool compact(std::string* err);

  // Writes the canonical pack encoding of the live state to `path` (temp +
  // rename), with the generation counter pinned to zero. The bytes are a
  // pure function of the live entry/crash sets, so two stores holding the
  // same corpus export byte-identical files however they got there — the
  // corpus chaos drill's comparison artifact.
  bool export_canonical(const std::string& path, std::string* err);

  // Read-only structural check of the directory: CRC framing of both
  // files, per-record payload decode, content-hash verification, commit
  // marker. Unlike open() it never truncates, repairs, or creates
  // anything — the fsck statecheck mode runs this on stores it does not
  // own. Resets this instance's in-memory state; use a dedicated probe
  // instance, not one that is mid-campaign.
  FsckReport fsck();

  // Test/drill hook called at each CompactPhase. Returning false aborts
  // the compaction at that point (simulating a crash); a drill hook may
  // instead raise SIGKILL and never return.
  using CompactHook = std::function<bool(CompactPhase)>;
  void set_compact_hook(CompactHook hook);

  usize size() const;
  usize crash_row_count() const;
  u64 generation() const;
  CorpusStats stats() const;

  // Live content hashes / crash rows in canonical (sorted) order.
  std::vector<u64> entry_hashes() const;
  std::vector<CrashRow> crash_rows() const;

  // Digest of the live corpus (order-independent): fnv1a64 folded over
  // sorted entry hashes. Two stores with equal digests hold the same
  // entry set.
  u64 corpus_digest() const;

  const std::string& dir() const noexcept { return dir_; }
  std::string wal_path() const;
  std::string pack_path() const;

 private:
  template <class Fill>
  bool append_wal_locked(persist::RecordType type, Fill&& fill,
                         std::string* err);
  bool append_entry_locked(const CorpusEntry& e, std::string* err);
  bool append_crash_locked(u64 stack_hash, u32 bug_id, u32 instance,
                           u64 exec_seq, std::span<const u8> witness,
                           std::string* err);
  bool apply_entry_record(persist::PayloadReader& r, bool from_pack);
  bool apply_crash_record(persist::PayloadReader& r);
  bool apply_tombstone_record(persist::PayloadReader& r);
  std::vector<u8> build_pack_locked(u64 generation) const;
  bool replay_file(const persist::ParsedFile& parsed, bool is_pack,
                   persist::LoadStatus* status, std::string* err);

  std::string dir_;
  persist::FaultCtx fault_;
  persist::Journal wal_;
  mutable std::mutex mu_;

  std::unordered_map<u64, CorpusEntry> entries_;
  std::unordered_map<u64, CrashRow> crashes_;
  std::vector<u64> pending_entries_;  // hashes whose WAL append failed
  struct PendingCrash {
    u64 stack_hash;
    u32 instance;
    u64 exec_seq;
    bool with_witness;
  };
  std::vector<PendingCrash> pending_crashes_;
  u64 generation_ = 0;
  bool opened_ = false;
  CorpusStats stats_{};
  CompactHook compact_hook_;
};

}  // namespace bigmap::corpus
