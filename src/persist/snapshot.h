// CampaignSnapshot: the full resumable state of one campaign instance,
// plus its versioned record encoding.
//
// A snapshot captures everything a warm restart needs to continue a
// campaign exactly where it stopped instead of re-running from scratch:
// the seed queue with its top_rated/favored scheduling metadata, all three
// virgin maps, the BigMap index + used_key bump allocator, both RNG stream
// positions, the crash-triage identity sets, and the lifetime result
// counters the exec budget is charged against. The struct is plain data so
// tests can build arbitrary states and round-trip them.
//
// Live prefix (BigMap §IV applied to checkpoints). A two-level campaign
// only ever writes positions [0, used_key) of its virgin maps and
// top_rated arrays, so the snapshot carries just that prefix plus the
// used_key slot->key assignments: its size follows the edges found, not
// the map size. A flat map has no such bound and carries whole arrays.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "persist/record.h"
#include "util/types.h"

namespace bigmap::persist {

struct QueueEntrySnap {
  std::vector<u8> data;
  u64 exec_ns = 0;
  u32 bitmap_hash = 0;
  u32 depth = 0;
  bool favored = false;
  bool was_fuzzed = false;
  u64 times_selected = 0;
  // Corpus-store reference. When `in_store` the entry is encoded as a
  // kQueueEntryRef record — content hash + metadata, no bytes — and the
  // restore path resolves the bytes through the campaign's CorpusStore.
  // `stored_len` is the expected byte count, cross-checked on resolve.
  // Entries whose WAL append failed (injected I/O faults) fall back to the
  // inline kQueueEntry form so a checkpoint is always self-sufficient.
  u64 content_hash = 0;
  u64 stored_len = 0;
  bool in_store = false;
};

// The lifetime counters a campaign charges its exec budget and its find
// rates against. CampaignResult and CampaignSnapshot both inherit them, so
// a checkpoint copies them whole and a restore hands them back whole; the
// kCounters and kTracingState records below carry them. Invariant:
// tracing_untraced_execs + tracing_traced_execs == execs (an exec counts as
// traced when it ran a map pipeline: seeds, oracle-fire re-executions,
// crash/hang replays, trim executions, and every exec under
// TracingMode::kAlways or on the two-level scheme).
struct CampaignCounters {
  u64 execs = 0;
  u64 seed_execs = 0;       // execs spent processing the initial corpus
  double seed_seconds = 0.0;  // wall time of the seed phase
  u64 interesting = 0;      // test cases that produced new bits
  u64 hangs = 0;
  u64 trim_execs = 0;
  u64 trimmed_bytes = 0;
  u64 faulted_execs = 0;    // executions lost to an injected kExecAbort
  u64 injected_hangs = 0;   // injected kTransientHang stalls served

  // Coverage-guided tracing: the untraced/traced split, untraced runs the
  // oracle flagged, and wall time spent in traced re-executions. A
  // snapshot without the kTracingState record restores these as zero —
  // only lifetime accounting is affected, never correctness, because the
  // oracle's breakpoint set is derived from the virgin maps + index.
  u64 tracing_untraced_execs = 0;
  u64 tracing_traced_execs = 0;
  u64 tracing_oracle_fires = 0;
  u64 tracing_reexec_ns = 0;
};

struct CampaignSnapshot : CampaignCounters {
  // --- identity: a snapshot only restores into the same configuration ----
  u32 scheme = 0;  // MapScheme as u32
  u32 metric = 0;  // MetricKind as u32
  u64 seed = 0;
  u32 instance_id = 0;
  u64 map_size = 0;
  u64 virgin_size = 0;  // condensed size for BigMap, map_size for flat
  u64 checkpoint_seq = 0;

  // --- crash-triage totals (the rest of the counters are inherited) ------
  u64 crashes_total = 0;
  u64 crashes_afl_unique = 0;

  // --- RNG stream positions ----------------------------------------------
  std::array<u64, 4> rng_state{};
  std::array<u64, 4> mutator_rng_state{};

  // --- seed queue ----------------------------------------------------------
  std::vector<QueueEntrySnap> entries;
  // Per-position arrays: top_entry/top_factor and the three virgin maps
  // below each hold a prefix [0, live) of the virgin_size positions (one
  // length for the pair, one for the three maps); every position past it
  // holds its initial value (kNoEntry / 0 / 0xFF). A checkpoint writes
  // live = used_key on two-level maps and virgin_size on flat ones.
  std::vector<u32> top_entry;   // per-position winner (kNoEntry when none)
  std::vector<u64> top_factor;  // per-position winning fav factor
  u64 top_covered = 0;

  // --- main-loop cycle cursor ----------------------------------------------
  // Checkpoints are committed only at queue-entry boundaries, so restoring
  // this cursor re-enters the cycle exactly where the snapshot left off and
  // the post-resume mutation stream is byte-identical to an uninterrupted
  // run (the corpus chaos drill depends on this). A snapshot without the
  // cursor record restores to a cycle restart — the old, stream-inexact
  // behavior.
  bool in_cycle = false;  // true: resume at entry cycle_qi of the open cycle
  u64 cycle_qi = 0;       // next entry index within the cycle
  u64 cycle_len = 0;      // queue length captured at cycle start
  u64 cycle_avg_ns = 0;   // average exec_ns captured at cycle start

  // --- coverage state ------------------------------------------------------
  std::vector<u8> virgin_queue;
  std::vector<u8> virgin_crash;
  std::vector<u8> virgin_hang;
  bool has_two_level = false;
  // The two-level index as its slot->key log (TwoLevelCoverageMap::
  // slot_keys()): the key of each slot allocation in order, used_key +
  // saturated_updates entries. Restore replays it to rebuild the index.
  std::vector<u32> map_keys;
  // The same index as a whole key->slot table (map_size entries), for
  // callers that export it with TwoLevelCoverageMap::export_state. The
  // encoder derives map_keys from it when map_keys is empty; decoding
  // never fills it.
  std::vector<u32> index_bitmap;
  u32 used_key = 0;
  u64 saturated_updates = 0;

  // --- crash triage identities --------------------------------------------
  std::vector<u32> bug_ids;
  std::vector<u64> stack_hashes;
};

// Serializes the snapshot in the v2 layout (file header, records, trailing
// commit marker): per-position arrays as kTopRatedPrefix/kVirginPrefix
// records over [0, live), the index as a kMapKeys record. The second form
// stamps `checkpoint_seq` in place of s.checkpoint_seq.
std::vector<u8> encode_snapshot(const CampaignSnapshot& s);
std::vector<u8> encode_snapshot(const CampaignSnapshot& s,
                                u64 checkpoint_seq);

// Decodes a v2 snapshot file. Any damage — bad magic/version, torn tail,
// CRC mismatch, structurally invalid payload, missing commit — yields a
// status other than kOk and no snapshot. Never reads out of bounds. A
// file of the retired v1 layout (whole-map kTopRated/kVirginMap/kMapState
// records) is refused with kBadVersion.
struct DecodeResult {
  LoadStatus status = LoadStatus::kOk;
  std::optional<CampaignSnapshot> snapshot;
};

DecodeResult decode_snapshot(std::span<const u8> file);

}  // namespace bigmap::persist
