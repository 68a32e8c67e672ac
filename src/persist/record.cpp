#include "persist/record.h"

#include <cstring>

namespace bigmap::persist {

const char* record_type_name(RecordType t) noexcept {
  switch (t) {
    case RecordType::kCampaignHeader: return "campaign-header";
    case RecordType::kCounters: return "counters";
    case RecordType::kRngState: return "rng-state";
    case RecordType::kQueueMeta: return "queue-meta";
    case RecordType::kQueueEntry: return "queue-entry";
    case RecordType::kTopRated: return "top-rated";
    case RecordType::kVirginMap: return "virgin-map";
    case RecordType::kMapState: return "map-state";
    case RecordType::kTriage: return "triage";
    case RecordType::kCommit: return "commit";
    case RecordType::kFleetHeader: return "fleet-header";
    case RecordType::kFleetEvent: return "fleet-event";
    case RecordType::kCorpusEntry: return "corpus-entry";
    case RecordType::kCorpusCrash: return "corpus-crash";
    case RecordType::kCorpusTombstone: return "corpus-tombstone";
    case RecordType::kCorpusMeta: return "corpus-meta";
    case RecordType::kQueueEntryRef: return "queue-entry-ref";
    case RecordType::kCycleCursor: return "cycle-cursor";
    case RecordType::kTracingState: return "tracing-state";
    case RecordType::kFederationEpoch: return "federation-epoch";
    case RecordType::kVirginDelta: return "virgin-delta";
    case RecordType::kTopRatedPrefix: return "top-rated-prefix";
    case RecordType::kVirginPrefix: return "virgin-prefix";
    case RecordType::kMapKeys: return "map-keys";
  }
  return "unknown";
}

const char* load_status_name(LoadStatus s) noexcept {
  switch (s) {
    case LoadStatus::kOk: return "ok";
    case LoadStatus::kMissing: return "missing";
    case LoadStatus::kBadMagic: return "bad-magic";
    case LoadStatus::kBadVersion: return "bad-version";
    case LoadStatus::kTruncatedTail: return "truncated-tail";
    case LoadStatus::kBadCrc: return "bad-crc";
    case LoadStatus::kNoCommit: return "no-commit";
    case LoadStatus::kBadPayload: return "bad-payload";
    case LoadStatus::kMismatch: return "mismatch";
  }
  return "unknown";
}

bool PayloadReader::get_u8(u8* v) {
  if (pos_ + 1 > data_.size()) return false;
  *v = data_[pos_++];
  return true;
}

bool PayloadReader::get_u32(u32* v) { return get_le_array(1, v); }

bool PayloadReader::get_u64(u64* v) { return get_le_array(1, v); }

bool PayloadReader::get_f64(double* v) {
  u64 bits;
  if (!get_u64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

bool PayloadReader::get_bytes(usize n, std::span<const u8>* out) {
  if (pos_ + n > data_.size() || pos_ + n < pos_) return false;
  *out = data_.subspan(pos_, n);
  pos_ += n;
  return true;
}

ParsedFile parse_records(std::span<const u8> file) {
  ParsedFile out;
  switch (bmsp::check_header(file)) {
    case bmsp::HeaderStatus::kOk: break;
    case bmsp::HeaderStatus::kBadVersion:
      out.status = LoadStatus::kBadVersion;
      return out;
    case bmsp::HeaderStatus::kIncomplete:
    case bmsp::HeaderStatus::kBadMagic:
      out.status = LoadStatus::kBadMagic;
      return out;
  }
  usize pos = kFileHeaderSize;
  out.valid_bytes = pos;
  while (pos < file.size()) {
    bmsp::FrameView f;
    switch (bmsp::parse_frame(file.subspan(pos), &f)) {
      case bmsp::FrameStatus::kComplete: break;
      case bmsp::FrameStatus::kBadCrc:
        out.status = LoadStatus::kBadCrc;
        return out;
      case bmsp::FrameStatus::kIncomplete:
      case bmsp::FrameStatus::kTooLong:
        // A length that runs past the buffer is indistinguishable from a
        // torn write of a longer record.
        out.status = LoadStatus::kTruncatedTail;
        return out;
    }
    out.records.push_back(
        RecordView{static_cast<RecordType>(f.type), f.payload});
    pos += f.size();
    out.valid_bytes = pos;
  }
  return out;
}

}  // namespace bigmap::persist
