// Netfleet wire format: length-prefixed BMSP records over a byte stream.
//
// The federation socket speaks the exact record framing the persistence
// layer puts on disk (persist/record.h): a connection starts with the
// 8-byte BMSP file header (magic + format version) and then carries
// self-checking records
//
//   record := [u32 type][u32 payload_len][payload][u32 crc]
//
// with the CRC-32 covering type, payload_len, and payload. A torn frame
// (short write, mid-frame reset) or a bit-flipped byte can therefore never
// be mistaken for a valid message: the incremental FrameDecoder detects the
// damage, the link tears the connection down, and the session-resume
// cursor replays whatever the peer provably never accepted. Reusing the
// on-disk framing means the same golden CRC rule guards both failure
// domains — disks that lie and networks that lie.
//
// Message types (netfleet protocol v2, independent of the on-disk
// RecordType space — the streams never mix):
//
//   kHello      session (re)establishment: protocol version, config
//               fingerprint, node id, the receiver's entry cursor (the
//               peer resumes replay exactly there), plus the federation
//               epoch + rank (stale-hub fencing, successor election) and
//               the sender's replay-log base (full-resync detection)
//   kEntry      one novelty-filtered corpus entry, tagged with its
//               absolute sequence number in the sender's lifetime stream
//   kHeartbeat  liveness + cumulative ack (receiver's entry cursor)
//   kBye        orderly goodbye carrying the final cursor
//   kDelta      one opaque oracle-delta blob riding the same reliable
//               sequence space as kEntry (virgin-map delta sync)
//   kResync     the sender's replay log evicted entries the receiver never
//               accepted; carries the new stream base — the receiver
//               fast-forwards its cursor, counting the gap as lost, and
//               exchange resumes (the documented full-resync path)
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fuzzer/queue.h"
#include "util/types.h"

namespace bigmap::netfleet {

inline constexpr u32 kProtocolVersion = 2;

enum class NetMsg : u32 {
  kHello = 1,
  kEntry = 2,
  kHeartbeat = 3,
  kBye = 4,
  kDelta = 5,
  kResync = 6,
};

const char* net_msg_name(NetMsg m) noexcept;

struct HelloMsg {
  u32 proto_version = kProtocolVersion;
  u64 fingerprint = 0;  // both sides must agree (config identity)
  u64 node_id = 0;
  u64 recv_cursor = 0;  // records this side has accepted from the peer
  u64 epoch = 0;        // federation epoch
  u32 rank = 0;         // sender's position in the static rank table
  u64 log_base = 0;     // sender's replay-log eviction frontier
};

// One decoded frame; `payload` is an owned copy so frames outlive the
// decoder's internal buffer.
struct Frame {
  NetMsg type{};
  std::vector<u8> payload;
};

// Appends the 8-byte BMSP stream preamble (sent once per connection).
void append_preamble(std::vector<u8>& out);

// Appends one framed record: header, payload, CRC.
void append_frame(std::vector<u8>& out, NetMsg type,
                  std::span<const u8> payload);

// Typed encoders. kEntry and kDelta share one payload shape — a sequence
// number plus an opaque length-prefixed blob — so both ride the replay log.
void append_hello(std::vector<u8>& out, const HelloMsg& hello);
void append_entry(std::vector<u8>& out, u64 seq, std::span<const u8> data);
void append_delta(std::vector<u8>& out, u64 seq, std::span<const u8> data);
void append_cursor(std::vector<u8>& out, NetMsg type, u64 cursor);

// Typed decoders; false on structural mismatch.
bool parse_hello(std::span<const u8> payload, HelloMsg* out);
bool parse_entry(std::span<const u8> payload, u64* seq, Input* data);
bool parse_delta(std::span<const u8> payload, u64* seq, Input* data);
bool parse_cursor(std::span<const u8> payload, u64* cursor);

// Incremental stream parser: feed() raw socket bytes, next() complete
// frames. The first 8 bytes of a stream must be the BMSP preamble. Any
// damage — wrong magic, impossible length, CRC mismatch — puts the decoder
// into a sticky broken state; the owning link must drop the connection
// (there is no way to re-synchronize a byte stream after a torn frame).
class FrameDecoder {
 public:
  explicit FrameDecoder(usize max_payload = 1u << 20)
      : max_payload_(max_payload) {}

  void feed(std::span<const u8> bytes);
  // Extracts the next complete frame; std::nullopt when more bytes are
  // needed or the stream is broken.
  std::optional<Frame> next();

  bool broken() const noexcept { return broken_; }
  const std::string& error() const noexcept { return error_; }

  // Forgets all buffered state (new connection, same decoder object).
  void reset();

 private:
  void fail(std::string why);

  const usize max_payload_;
  std::vector<u8> buf_;
  usize pos_ = 0;  // consumed prefix of buf_
  bool preamble_done_ = false;
  bool broken_ = false;
  std::string error_;
};

}  // namespace bigmap::netfleet
