#include "fuzzer/netfleet/wire.h"

#include "persist/record.h"

namespace bigmap::netfleet {

const char* net_msg_name(NetMsg m) noexcept {
  switch (m) {
    case NetMsg::kHello: return "hello";
    case NetMsg::kEntry: return "entry";
    case NetMsg::kHeartbeat: return "heartbeat";
    case NetMsg::kBye: return "bye";
    case NetMsg::kDelta: return "delta";
    case NetMsg::kResync: return "resync";
  }
  return "unknown";
}

void append_preamble(std::vector<u8>& out) { bmsp::append_header(out); }

void append_frame(std::vector<u8>& out, NetMsg type,
                  std::span<const u8> payload) {
  bmsp::append_frame(out, static_cast<u32>(type),
                     [&](persist::PayloadWriter& w) { w.put_bytes(payload); });
}

void append_hello(std::vector<u8>& out, const HelloMsg& hello) {
  bmsp::append_frame(out, static_cast<u32>(NetMsg::kHello),
                     [&](persist::PayloadWriter& w) {
                       w.put_u32(hello.proto_version);
                       w.put_u64(hello.fingerprint);
                       w.put_u64(hello.node_id);
                       w.put_u64(hello.recv_cursor);
                       w.put_u64(hello.epoch);
                       w.put_u32(hello.rank);
                       w.put_u64(hello.log_base);
                     });
}

namespace {

void append_seq_blob(std::vector<u8>& out, NetMsg type, u64 seq,
                     std::span<const u8> data) {
  bmsp::append_frame(out, static_cast<u32>(type),
                     [&](persist::PayloadWriter& w) {
                       w.put_u64(seq);
                       w.put_u32(static_cast<u32>(data.size()));
                       w.put_bytes(data);
                     });
}

bool parse_seq_blob(std::span<const u8> payload, u64* seq, Input* data) {
  persist::PayloadReader r(payload);
  u64 s = 0;
  u32 n = 0;
  std::span<const u8> bytes;
  if (!r.get_u64(&s) || !r.get_u32(&n) || !r.get_bytes(n, &bytes) ||
      !r.done()) {
    return false;
  }
  *seq = s;
  data->assign(bytes.begin(), bytes.end());
  return true;
}

}  // namespace

void append_entry(std::vector<u8>& out, u64 seq, std::span<const u8> data) {
  append_seq_blob(out, NetMsg::kEntry, seq, data);
}

void append_delta(std::vector<u8>& out, u64 seq, std::span<const u8> data) {
  append_seq_blob(out, NetMsg::kDelta, seq, data);
}

void append_cursor(std::vector<u8>& out, NetMsg type, u64 cursor) {
  bmsp::append_frame(out, static_cast<u32>(type),
                     [&](persist::PayloadWriter& w) { w.put_u64(cursor); });
}

bool parse_hello(std::span<const u8> payload, HelloMsg* out) {
  persist::PayloadReader r(payload);
  HelloMsg h;
  if (!r.get_u32(&h.proto_version) || !r.get_u64(&h.fingerprint) ||
      !r.get_u64(&h.node_id) || !r.get_u64(&h.recv_cursor) ||
      !r.get_u64(&h.epoch) || !r.get_u32(&h.rank) ||
      !r.get_u64(&h.log_base) || !r.done()) {
    return false;
  }
  *out = h;
  return true;
}

bool parse_entry(std::span<const u8> payload, u64* seq, Input* data) {
  return parse_seq_blob(payload, seq, data);
}

bool parse_delta(std::span<const u8> payload, u64* seq, Input* data) {
  return parse_seq_blob(payload, seq, data);
}

bool parse_cursor(std::span<const u8> payload, u64* cursor) {
  persist::PayloadReader r(payload);
  u64 c = 0;
  if (!r.get_u64(&c) || !r.done()) return false;
  *cursor = c;
  return true;
}

void FrameDecoder::feed(std::span<const u8> bytes) {
  if (broken_) return;
  // Compact the consumed prefix before growing; keeps the buffer bounded
  // by one partial frame plus whatever arrived in this feed.
  if (pos_ > 0) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

std::optional<Frame> FrameDecoder::next() {
  if (broken_) return std::nullopt;
  if (!preamble_done_) {
    switch (bmsp::check_header({buf_.data() + pos_, buf_.size() - pos_})) {
      case bmsp::HeaderStatus::kIncomplete: return std::nullopt;
      case bmsp::HeaderStatus::kBadMagic:
        fail("stream preamble: bad magic");
        return std::nullopt;
      case bmsp::HeaderStatus::kBadVersion:
        fail("stream preamble: unsupported format version");
        return std::nullopt;
      case bmsp::HeaderStatus::kOk: break;
    }
    pos_ += bmsp::kFileHeaderSize;
    preamble_done_ = true;
  }

  bmsp::FrameView f;
  switch (bmsp::parse_frame({buf_.data() + pos_, buf_.size() - pos_}, &f,
                            max_payload_)) {
    case bmsp::FrameStatus::kIncomplete: return std::nullopt;
    case bmsp::FrameStatus::kTooLong:
      fail("frame length " + std::to_string(f.payload_len) +
           " exceeds limit");
      return std::nullopt;
    case bmsp::FrameStatus::kBadCrc:
      fail("frame crc mismatch");
      return std::nullopt;
    case bmsp::FrameStatus::kComplete: break;
  }
  pos_ += f.size();
  return Frame{static_cast<NetMsg>(f.type),
               std::vector<u8>(f.payload.begin(), f.payload.end())};
}

void FrameDecoder::reset() {
  buf_.clear();
  pos_ = 0;
  preamble_done_ = false;
  broken_ = false;
  error_.clear();
}

void FrameDecoder::fail(std::string why) {
  broken_ = true;
  error_ = std::move(why);
}

}  // namespace bigmap::netfleet
