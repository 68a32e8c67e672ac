#include "persist/record.h"

#include <bit>
#include <cstring>

#include "util/hash.h"

namespace bigmap::persist {

using bmsp::read_u32_le;

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

void PayloadWriter::put_f64(double v) {
  u64 bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(bits);
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

RecordWriter::RecordWriter() {
  PayloadWriter w(buf_);
  w.put_u32(kMagic);
  w.put_u32(kFormatVersion);
}

void RecordWriter::begin_record(RecordType type) {
  header_start_ = buf_.size();
  PayloadWriter w(buf_);
  w.put_u32(static_cast<u32>(type));
  w.put_u32(0);  // payload_len backpatched in end_record
  payload_start_ = buf_.size();
}

void RecordWriter::end_record() {
  const usize len = buf_.size() - payload_start_;
  const u32 len32 = static_cast<u32>(len);
  buf_[header_start_ + 4] = static_cast<u8>(len32);
  buf_[header_start_ + 5] = static_cast<u8>(len32 >> 8);
  buf_[header_start_ + 6] = static_cast<u8>(len32 >> 16);
  buf_[header_start_ + 7] = static_cast<u8>(len32 >> 24);
  // CRC covers type + payload_len + payload.
  const u32 crc = bmsp::frame_crc(buf_.data() + header_start_, len);
  PayloadWriter w(buf_);
  w.put_u32(crc);
}

ParsedFile parse_records(std::span<const u8> file) {
  ParsedFile out;
  if (file.size() < kFileHeaderSize) {
    out.status = LoadStatus::kBadMagic;
    return out;
  }
  if (read_u32_le(file.data()) != kMagic) {
    out.status = LoadStatus::kBadMagic;
    return out;
  }
  if (read_u32_le(file.data() + 4) != kFormatVersion) {
    out.status = LoadStatus::kBadVersion;
    return out;
  }
  usize pos = kFileHeaderSize;
  out.valid_bytes = pos;
  while (pos < file.size()) {
    if (pos + kRecordHeaderSize > file.size()) {
      out.status = LoadStatus::kTruncatedTail;
      return out;
    }
    const u32 type = read_u32_le(file.data() + pos);
    const u32 len = read_u32_le(file.data() + pos + 4);
    // A length that runs past the buffer is indistinguishable from a torn
    // write of a longer record.
    const usize total = kRecordHeaderSize + static_cast<usize>(len) +
                        kRecordTrailerSize;
    if (len > file.size() || pos + total > file.size()) {
      out.status = LoadStatus::kTruncatedTail;
      return out;
    }
    const u32 stored_crc =
        read_u32_le(file.data() + pos + kRecordHeaderSize + len);
    const u32 actual_crc = bmsp::frame_crc(file.data() + pos, len);
    if (stored_crc != actual_crc) {
      out.status = LoadStatus::kBadCrc;
      return out;
    }
    out.records.push_back(RecordView{
        static_cast<RecordType>(type),
        file.subspan(pos + kRecordHeaderSize, len)});
    pos += total;
    out.valid_bytes = pos;
  }
  return out;
}

}  // namespace bigmap::persist
