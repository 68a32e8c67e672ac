// Crash-consistent on-disk record format for campaign persistence.
//
// Every persisted file — per-instance checkpoint snapshots, the corpus
// pack and the three journals (persist/journal.h) — is a sequence of
// self-checking records behind a fixed file header, in the style of
// CalicoDB/RocksDB WALs:
//
//   file   := [u32 magic "BMSP"][u32 format_version] record*
//   record := [u32 type][u32 payload_len][payload][u32 crc]
//
// The framing and the CRC rule are the BMSP codec in persist/framing.h;
// this header adds the record types, the payload builder/reader, and the
// whole-file writer and parser built on that codec. Readers stop at the
// first incomplete or corrupt record and report how far the valid prefix
// reached — the "truncated tail" recovery rule: everything before the
// damage is usable, everything after is discarded.
//
// Snapshot files additionally end with a kCommit record; a snapshot whose
// valid prefix lacks the commit marker was torn mid-write and is rejected
// as a whole (checkpoint.h then falls back to the previous snapshot).
// Journals have no commit marker: each record is an independent event and
// a torn tail simply drops the last partial event.
#pragma once

#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "persist/framing.h"
#include "util/types.h"

namespace bigmap::persist {

// The framing itself (magic, version, header/trailer sizes, CRC rule)
// lives in persist/framing.h and is shared with the netfleet wire format.
inline constexpr usize kFileHeaderSize = bmsp::kFileHeaderSize;
inline constexpr usize kRecordHeaderSize = bmsp::kRecordHeaderSize;
inline constexpr usize kRecordTrailerSize = bmsp::kRecordTrailerSize;

// Record types. Values are part of the on-disk format — append only.
// kTopRated, kVirginMap and kMapState are the retired v1 snapshot layout's
// whole-map records: never written, refused by the decoder, and their
// numbers stay reserved (snapshot.h).
enum class RecordType : u32 {
  kCampaignHeader = 1,  // scheme/metric/seed/map geometry/sequence number
  kCounters = 2,        // resumable CampaignResult counters
  kRngState = 3,        // campaign + mutator xoshiro256 streams
  kQueueMeta = 4,       // entry count, top_rated geometry
  kQueueEntry = 5,      // one SeedQueue entry (repeated)
  kTopRated = 6,        // v1: whole-map top_entry/top_factor arrays
  kVirginMap = 7,       // v1: one whole virgin map (repeated)
  kMapState = 8,        // v1: two-level index bitmap + used_key/saturated
  kTriage = 9,          // found bug ids + crashwalk stack hashes
  kCommit = 10,         // snapshot completeness marker (always last)
  kFleetHeader = 11,    // fleet journal: config fingerprint
  kFleetEvent = 12,     // fleet journal: one instance lifecycle event
  kCorpusEntry = 13,    // corpus store: one deduplicated input (WAL + pack)
  kCorpusCrash = 14,    // corpus store: one crash-triage index row
  kCorpusTombstone = 15,  // corpus store WAL: entry dropped by trimming
  kCorpusMeta = 16,     // corpus pack: live entry/crash counts
  kQueueEntryRef = 17,  // snapshot: queue entry by corpus content hash
  kCycleCursor = 18,    // snapshot: main-loop cycle cursor (stream-exact resume)
  kTracingState = 19,   // snapshot: coverage-guided tracing lifetime counters
  kFederationEpoch = 20,  // federation WAL: epoch transition (election/rejoin)
  kVirginDelta = 21,    // federation WAL: one oracle virgin-map delta record
  kTopRatedPrefix = 22,  // snapshot v2: top_entry/top_factor over [0, live)
  kVirginPrefix = 23,   // snapshot v2: one virgin map over [0, live)
  kMapKeys = 24,        // snapshot v2: two-level slot->key log
};

const char* record_type_name(RecordType t) noexcept;

// Why a load (of a whole file or of one snapshot) did not produce a clean
// result. Ordered so "worse" causes don't shadow "clean" ones in tests.
enum class LoadStatus : u8 {
  kOk = 0,
  kMissing,          // file does not exist / cannot be read
  kBadMagic,         // not a BMSP file
  kBadVersion,       // format_version from a different (future) layout
  kTruncatedTail,    // valid prefix, then an incomplete record
  kBadCrc,           // valid prefix, then a checksum mismatch
  kNoCommit,         // snapshot parsed but the commit marker is absent
  kBadPayload,       // a record's payload failed structural decoding
  kMismatch,         // decoded fine but belongs to a different campaign
};

const char* load_status_name(LoadStatus s) noexcept;

// --- encoding ---------------------------------------------------------------

// The append-only little-endian payload builder frames are filled with.
using bmsp::PayloadWriter;

// Bounds-checked little-endian payload reader. Every getter returns false
// (and leaves the output untouched) past the end — decoding never reads out
// of bounds, whatever the payload contains.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const u8> data) : data_(data) {}

  bool get_u8(u8* v);
  bool get_u32(u32* v);
  bool get_u64(u64* v);
  bool get_f64(double* v);
  bool get_bytes(usize n, std::span<const u8>* out);
  // Reads n little-endian elements into out[0, n) in one copy; false (out
  // untouched) when fewer than n * sizeof(T) bytes remain.
  template <class T>
  bool get_le_array(usize n, T* out) {
    if (n > remaining() / sizeof(T)) return false;
    if (n == 0) return true;  // `out` may be null
    std::memcpy(out, data_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return true;
  }
  bool done() const noexcept { return pos_ == data_.size(); }
  usize remaining() const noexcept { return data_.size() - pos_; }

 private:
  std::span<const u8> data_;
  usize pos_ = 0;
};

// Serializes records into one contiguous buffer, starting with the file
// header. finish() returns the buffer; the writer is then exhausted.
class RecordWriter {
 public:
  RecordWriter() { bmsp::append_header(buf_); }

  // Appends one record; `fill` receives a PayloadWriter positioned at the
  // record's payload.
  template <class Fill>
  void append(RecordType type, Fill&& fill) {
    bmsp::append_frame(buf_, static_cast<u32>(type), fill);
  }

  std::vector<u8> finish() { return std::move(buf_); }

 private:
  std::vector<u8> buf_;
};

struct RecordView {
  RecordType type{};
  std::span<const u8> payload;
};

// Parses the valid prefix of a record file. `records` holds every record
// up to the first damage; `status` explains why parsing stopped (kOk when
// the whole buffer was consumed cleanly). `valid_bytes` is the offset the
// valid prefix reaches — a journal can be safely truncated to it.
struct ParsedFile {
  LoadStatus status = LoadStatus::kOk;
  std::vector<RecordView> records;
  usize valid_bytes = 0;
};

ParsedFile parse_records(std::span<const u8> file);

}  // namespace bigmap::persist
