// The BMSP codec: the one place a BMSP byte is framed or checked, on disk
// (persist/record.h: snapshots, the corpus pack; persist/journal.h: the
// fleet journal, the corpus WAL, the federation WAL) and on the wire
// (fuzzer/netfleet/wire.cpp: PeerLink frames).
//
//   stream := [u32 magic "BMSP"][u32 format_version] frame*
//   frame  := [u32 type][u32 payload_len][payload][u32 crc]
//
// All integers are little-endian; the CRC-32 (IEEE) covers type +
// payload_len + payload. The codec is one header writer (append_header),
// one header check (check_header), one frame encoder (append_frame, whose
// payload is filled through a PayloadWriter) and one frame parser
// (parse_frame). Every reader and writer of the format is a thin user of
// these four, so the disk and wire formats cannot drift apart.
#pragma once

#include <bit>
#include <limits>
#include <span>
#include <vector>

#include "util/hash.h"
#include "util/types.h"

namespace bigmap::bmsp {

inline constexpr u32 kMagic = 0x50534D42u;  // "BMSP" little-endian
inline constexpr u32 kFormatVersion = 1;
inline constexpr usize kFileHeaderSize = 8;    // magic + format_version
inline constexpr usize kRecordHeaderSize = 8;  // type + payload_len
inline constexpr usize kRecordTrailerSize = 4;  // crc

// The format is little-endian and so is every supported host: integers
// and integer arrays are copied as raw bytes, one bulk copy per array.
static_assert(std::endian::native == std::endian::little);

// Append-only little-endian payload builder.
class PayloadWriter {
 public:
  explicit PayloadWriter(std::vector<u8>& out) : out_(out) {}

  void put_u8(u8 v) { out_.push_back(v); }
  void put_u32(u32 v) { put_le_array(std::span<const u32>(&v, 1)); }
  void put_u64(u64 v) { put_le_array(std::span<const u64>(&v, 1)); }
  void put_f64(double v) { put_u64(std::bit_cast<u64>(v)); }
  void put_bytes(std::span<const u8> b) {
    out_.insert(out_.end(), b.begin(), b.end());
  }
  // The elements of `v` back to back, little-endian, in one copy.
  template <class T>
  void put_le_array(std::span<const T> v) {
    const u8* p = reinterpret_cast<const u8*>(v.data());
    out_.insert(out_.end(), p, p + v.size_bytes());
  }

 private:
  std::vector<u8>& out_;
};

inline u32 read_u32_le(const u8* p) noexcept {
  return static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
         (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
}

inline void put_u32_le(std::vector<u8>& out, u32 v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<u8>(v >> (8 * i)));
}

// Appends the 8-byte stream header (file header / connection preamble).
inline void append_header(std::vector<u8>& out) {
  put_u32_le(out, kMagic);
  put_u32_le(out, kFormatVersion);
}

enum class HeaderStatus : u8 { kOk, kIncomplete, kBadMagic, kBadVersion };

// Checks the stream header at the start of `bytes`.
inline HeaderStatus check_header(std::span<const u8> bytes) noexcept {
  if (bytes.size() < kFileHeaderSize) return HeaderStatus::kIncomplete;
  if (read_u32_le(bytes.data()) != kMagic) return HeaderStatus::kBadMagic;
  if (read_u32_le(bytes.data() + 4) != kFormatVersion) {
    return HeaderStatus::kBadVersion;
  }
  return HeaderStatus::kOk;
}

// Appends one frame to `out`: `fill` receives a PayloadWriter positioned
// at the payload, then the length is backpatched and the CRC appended.
template <class Fill>
void append_frame(std::vector<u8>& out, u32 type, Fill&& fill) {
  const usize start = out.size();
  put_u32_le(out, type);
  put_u32_le(out, 0);  // payload_len, backpatched below
  PayloadWriter w(out);
  fill(w);
  const u32 len = static_cast<u32>(out.size() - start - kRecordHeaderSize);
  for (int i = 0; i < 4; ++i) {
    out[start + 4 + i] = static_cast<u8>(len >> (8 * i));
  }
  put_u32_le(out, crc32({out.data() + start, kRecordHeaderSize + len}));
}

enum class FrameStatus : u8 {
  kComplete,    // one whole frame with a matching CRC
  kIncomplete,  // more bytes needed (a torn tail, if no more will come)
  kBadCrc,      // the stored CRC does not match the frame
  kTooLong,     // payload_len exceeds the caller's limit
};

// One frame as parse_frame found it. type and payload_len are set once
// the frame header is complete; payload only for kComplete.
struct FrameView {
  u32 type = 0;
  u32 payload_len = 0;
  std::span<const u8> payload;

  usize size() const noexcept {
    return kRecordHeaderSize + payload_len + kRecordTrailerSize;
  }
};

// Parses the frame at the start of `bytes`.
inline FrameStatus parse_frame(
    std::span<const u8> bytes, FrameView* out,
    usize max_payload = std::numeric_limits<usize>::max()) noexcept {
  if (bytes.size() < kRecordHeaderSize) return FrameStatus::kIncomplete;
  out->type = read_u32_le(bytes.data());
  out->payload_len = read_u32_le(bytes.data() + 4);
  if (out->payload_len > max_payload) return FrameStatus::kTooLong;
  if (bytes.size() < out->size()) return FrameStatus::kIncomplete;
  const usize len = out->payload_len;
  const u32 stored = read_u32_le(bytes.data() + kRecordHeaderSize + len);
  if (stored != crc32(bytes.first(kRecordHeaderSize + len))) {
    return FrameStatus::kBadCrc;
  }
  out->payload = bytes.subspan(kRecordHeaderSize, len);
  return FrameStatus::kComplete;
}

}  // namespace bigmap::bmsp
