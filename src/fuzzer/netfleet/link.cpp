#include "fuzzer/netfleet/link.h"

#include <unistd.h>

#include <algorithm>

#include "fuzzer/netfleet/transport.h"
#include "util/hash.h"
#include "util/syscall.h"

namespace bigmap::netfleet {
namespace {

constexpr u64 kMsNs = 1'000'000ull;
constexpr usize kRecvChunk = 16u * 1024;

}  // namespace

PeerLink::PeerLink(const NetPeerConfig& config, FaultInjector* fault,
                   u32 fault_instance)
    : cfg_(config), fault_(fault), fault_instance_(fault_instance) {
  if (cfg_.listener) {
    if (cfg_.listen_fd >= 0) {
      listen_fd_ = cfg_.listen_fd;
      owns_listen_fd_ = false;
      listen_port_ = cfg_.port;
      if (!set_nonblocking(listen_fd_)) {
        fatal_ = true;
        error_ = "netfleet: fcntl(O_NONBLOCK) on inherited listener failed";
      }
    } else {
      u16 port = cfg_.port;
      std::string err;
      listen_fd_ = tcp_listen(cfg_.host, &port, &err);
      if (listen_fd_ < 0) {
        fatal_ = true;
        error_ = "netfleet: " + err;
      } else {
        owns_listen_fd_ = true;
        listen_port_ = port;
      }
    }
  }
}

PeerLink::~PeerLink() {
  if (fd_ >= 0) xclose(fd_);
  if (listen_fd_ >= 0 && owns_listen_fd_) xclose(listen_fd_);
}

void PeerLink::push_record(OutRecord rec) {
  log_.push_back(std::move(rec));
  send_next_++;
  // Evict from the front when the replay log overflows its bound. Never
  // evict past send_pos_: dropping an un-transmitted record would silently
  // lose corpus. An un-shippable backlog that large means the peer is gone
  // for good anyway (timeout will fire long before).
  while (log_.size() > cfg_.send_log_max && log_base_ < send_pos_) {
    log_.pop_front();
    log_base_++;
    stats_.log_evicted++;
  }
}

bool PeerLink::offer(Input input) {
  if (fatal_) return false;
  if (input.size() > cfg_.max_entry_size) return false;
  stats_.entries_offered++;
  const u64 h = fnv1a64(input);
  if (!remote_known_.insert(h).second) {
    stats_.novelty_filtered++;
    return false;
  }
  push_record({OutRecord::kEntry, std::move(input)});
  return true;
}

bool PeerLink::offer_delta(Input blob) {
  if (fatal_) return false;
  push_record({OutRecord::kDelta, std::move(blob)});
  return true;
}

std::vector<Input> PeerLink::take_received() {
  std::vector<Input> out;
  out.swap(received_);
  return out;
}

std::vector<Input> PeerLink::take_received_deltas() {
  std::vector<Input> out;
  out.swap(received_deltas_);
  return out;
}

std::vector<OutRecord> PeerLink::unacked_records() const {
  std::vector<OutRecord> out;
  const u64 from = std::max(peer_acked_, log_base_);
  for (u64 s = from; s < send_next_; ++s) {
    out.push_back(log_[static_cast<usize>(s - log_base_)]);
  }
  return out;
}

u64 PeerLink::backoff_ns(u32 attempt) const noexcept {
  double ms = static_cast<double>(cfg_.reconnect_initial_ms);
  for (u32 i = 0; i < attempt; ++i) ms *= cfg_.reconnect_multiplier;
  const double cap = static_cast<double>(cfg_.reconnect_cap_ms);
  if (ms > cap) ms = cap;
  return static_cast<u64>(ms) * kMsNs;
}

void PeerLink::establish(int fd, u64 now_ns) {
  fd_ = fd;
  connect_pending_ = false;
  hello_sent_ = false;
  hello_received_ = false;
  decoder_.reset();
  outbox_.clear();
  stats_.connects++;
  if (stats_.connects > 1) {
    stats_.reconnects++;
  }
  reconnect_attempts_ = 0;
  last_rx_ns_ = now_ns;
  last_hb_tx_ns_ = now_ns;
  have_hb_cursor_ = false;
  // Stream preamble + hello open every session; the hello's cursor tells
  // the peer exactly where to resume its replay.
  append_preamble(outbox_);
  HelloMsg hello;
  hello.proto_version = kProtocolVersion;
  hello.fingerprint = cfg_.session_fingerprint;
  hello.node_id = cfg_.node_id;
  hello.recv_cursor = recv_cursor_;
  hello.epoch = cfg_.epoch;
  hello.rank = cfg_.rank;
  hello.log_base = log_base_;
  append_hello(outbox_, hello);
  hello_sent_ = true;
}

void PeerLink::drop_connection(u64 now_ns, const char* why,
                               bool count_error) {
  (void)why;
  if (fd_ >= 0) {
    xclose(fd_);
    fd_ = -1;
  }
  connect_pending_ = false;
  hello_sent_ = false;
  hello_received_ = false;
  outbox_.clear();
  decoder_.reset();
  if (count_error) {
    stats_.conn_errors++;
  }
  // Anything past the peer's last ack is in doubt; the hello on the next
  // session tells us precisely where to resume, but rewinding now keeps
  // the invariant send_pos_ >= peer_acked_ trivially true.
  send_pos_ = peer_acked_;
  have_hb_cursor_ = false;
  if (cfg_.max_reconnects != 0 &&
      reconnect_attempts_ >= cfg_.max_reconnects) {
    gave_up_ = true;
    return;
  }
  next_reconnect_ns_ = now_ns + backoff_ns(reconnect_attempts_);
  reconnect_attempts_++;
}

void PeerLink::enter_partition(u64 now_ns) {
  stats_.injected_partitions++;
  stats_.partition_ms_total += cfg_.partition_ms;
  partitioned_until_ns_ = now_ns + static_cast<u64>(cfg_.partition_ms) * kMsNs;
  if (fd_ >= 0) {
    close_with_reset(fd_);
    fd_ = -1;
  }
  drop_connection(now_ns, "partition", /*count_error=*/false);
}

// Announces the eviction frontier: the peer's cursor points at sequences
// the bounded log no longer holds, so tell it to fast-forward. This is the
// documented full-resync path — the gap is counted, never silent.
void PeerLink::announce_resync() {
  append_cursor(outbox_, NetMsg::kResync, log_base_);
  stats_.resyncs_sent++;
}

// Receiver-side in-order acceptance shared by kEntry and kDelta: true when
// `seq` is exactly the next expected record. Anything below the cursor was
// provably already accepted (exactly-once); anything above is a gap the
// sender's go-back-N rewind (or a kResync) must close.
bool PeerLink::accept_in_order(u64 seq) {
  if (seq < recv_cursor_) {
    stats_.duplicates_dropped++;
    return false;
  }
  if (seq > recv_cursor_) {
    stats_.out_of_order_dropped++;
    return false;
  }
  recv_cursor_++;
  stats_.records_received++;
  return true;
}

void PeerLink::handle_ack(u64 cursor) {
  if (cursor > peer_acked_) {
    peer_acked_ = std::min(cursor, send_next_);
    if (send_pos_ < peer_acked_) send_pos_ = peer_acked_;
    // Acked entries will never be replayed again; trim the log.
    while (log_base_ < peer_acked_ && !log_.empty()) {
      log_.pop_front();
      log_base_++;
    }
  }
}

void PeerLink::handle_frame(const Frame& f, u64 now_ns) {
  switch (f.type) {
    case NetMsg::kHello: {
      HelloMsg h;
      if (!parse_hello(f.payload, &h)) {
        drop_connection(now_ns, "bad hello", /*count_error=*/true);
        return;
      }
      if (h.proto_version != kProtocolVersion ||
          h.fingerprint != cfg_.session_fingerprint) {
        // A peer from a different campaign (or protocol era) can never
        // become compatible; stop retrying entirely.
        stats_.hello_rejected++;
        fatal_ = true;
        error_ = "netfleet: peer hello rejected (version/fingerprint)";
        drop_connection(now_ns, "hello rejected", /*count_error=*/true);
        gave_up_ = true;
        return;
      }
      // Epoch fencing. An OLDER epoch is dropped: the stale side sees our
      // higher epoch in our own hello and must rejoin or die — we never
      // exchange with the past. A NEWER epoch is recorded for the owner
      // (re-elect / re-home / latch stale-fatal) and likewise refused:
      // this link's epoch is immutable.
      if (h.epoch < cfg_.epoch) {
        // Fence the FRAME, not the connection: our own hello (queued at
        // establish, flushed after this handler) must still reach the stale
        // peer so it can observe the newer epoch and rejoin or die. Closing
        // here would race the close ahead of that flush and leave the stale
        // side blind forever. Without a valid hello the session never
        // exchanges records, and the heartbeat timeout reaps it if the
        // peer lingers.
        stats_.stale_hellos_dropped++;
        return;
      }
      if (h.epoch > cfg_.epoch) {
        if (h.epoch > observed_epoch_) {
          observed_epoch_ = h.epoch;
          observed_rank_ = h.rank;
        }
        stats_.epoch_ahead_seen++;
        // This side must close, but hand over our own hello first. A side
        // that reads the newer hello in the pump that establishes (a dialer
        // whose connect just completed, a listener whose accept found the
        // peer's hello waiting) has not flushed yet, and drop_connection
        // clears the outbox: the newer side would never see the older
        // epoch it must fence. Before the handshake the outbox holds only
        // the preamble and hello, which a fresh socket takes whole; best
        // effort, no injected chaos.
        if (!outbox_.empty()) {
          const ssize_t r = sock_send(fd_, outbox_.data(), outbox_.size());
          if (r > 0) {
            stats_.bytes_sent += static_cast<u64>(r);
          }
        }
        drop_connection(now_ns, "epoch ahead", /*count_error=*/false);
        return;
      }
      hello_received_ = true;
      stats_.peer_epoch = h.epoch;
      stats_.peer_rank = h.rank;
      // Session resume: the peer's cursor is authoritative for where
      // replay restarts. A cursor behind the eviction frontier means the
      // bounded log already dropped records it needed — count the gap,
      // announce the resync, and resume from what we still have.
      u64 resume = h.recv_cursor;
      handle_ack(resume);
      if (resume < log_base_) {
        stats_.lost_to_eviction += log_base_ - resume;
        resume = log_base_;
        announce_resync();
      }
      if (resume > send_next_) resume = send_next_;  // peer claims too much
      send_pos_ = resume;
      // Mirror image: the peer's log base is ahead of what we have
      // accepted — the records between recv_cursor_ and its base are gone
      // for good. Fast-forward rather than dropping its replay forever.
      if (h.log_base > recv_cursor_) {
        stats_.resync_skipped += h.log_base - recv_cursor_;
        recv_cursor_ = h.log_base;
      }
      break;
    }
    case NetMsg::kEntry: {
      u64 seq = 0;
      Input data;
      if (!parse_entry(f.payload, &seq, &data)) {
        drop_connection(now_ns, "bad entry", /*count_error=*/true);
        return;
      }
      if (!accept_in_order(seq)) return;
      // Anything the peer sent us is by definition known to it.
      remote_known_.insert(fnv1a64(data));
      received_.push_back(std::move(data));
      break;
    }
    case NetMsg::kDelta: {
      u64 seq = 0;
      Input data;
      if (!parse_delta(f.payload, &seq, &data)) {
        drop_connection(now_ns, "bad delta", /*count_error=*/true);
        return;
      }
      if (!accept_in_order(seq)) return;
      stats_.deltas_received++;
      received_deltas_.push_back(std::move(data));
      break;
    }
    case NetMsg::kResync: {
      u64 new_base = 0;
      if (!parse_cursor(f.payload, &new_base)) {
        drop_connection(now_ns, "bad resync", /*count_error=*/true);
        return;
      }
      // The sender's bounded log evicted records we never accepted; the
      // gap is unrecoverable by rewind. Fast-forward over it (counted,
      // never silent) so the stream flows again.
      if (new_base > recv_cursor_) {
        stats_.resync_skipped += new_base - recv_cursor_;
        recv_cursor_ = new_base;
      }
      break;
    }
    case NetMsg::kHeartbeat: {
      u64 cursor = 0;
      if (!parse_cursor(f.payload, &cursor)) {
        drop_connection(now_ns, "bad heartbeat", /*count_error=*/true);
        return;
      }
      // Go-back-N: two consecutive heartbeats stuck at the same cursor
      // while we believe we sent further means frames were lost in
      // flight — rewind and resend the suffix.
      if (have_hb_cursor_ && cursor == last_hb_cursor_ &&
          cursor < send_pos_) {
        u64 target = std::max(cursor, log_base_);
        // The stalled cursor points below our eviction frontier: no rewind
        // can reach it. Re-announce the resync (the original kResync frame
        // may itself have been lost to chaos) so the peer fast-forwards.
        if (cursor < log_base_) announce_resync();
        if (target < send_pos_) {
          send_pos_ = target;
          stats_.rewinds++;
        }
        have_hb_cursor_ = false;  // re-arm: need two fresh stalled beats
      } else {
        last_hb_cursor_ = cursor;
        have_hb_cursor_ = true;
      }
      handle_ack(cursor);
      break;
    }
    case NetMsg::kBye: {
      u64 cursor = 0;
      if (parse_cursor(f.payload, &cursor)) handle_ack(cursor);
      peer_said_bye_ = true;
      drop_connection(now_ns, "peer bye", /*count_error=*/false);
      break;
    }
  }
}

void PeerLink::queue_entries(u64 now_ns) {
  if (!hello_received_) return;  // never ship records before the handshake
  while (send_pos_ < send_next_ && outbox_.size() < cfg_.outbox_max) {
    if (send_pos_ < log_base_) {  // evicted beneath us; skip the gap
      stats_.lost_to_eviction += log_base_ - send_pos_;
      send_pos_ = log_base_;
      announce_resync();
      continue;
    }
    const OutRecord& rec = log_[static_cast<usize>(send_pos_ - log_base_)];
    const u64 seq = send_pos_;
    send_pos_++;
    if (fire(FaultSite::kNetDrop)) {
      // Chaos: lose this frame in flight. send_pos_ already advanced, so
      // recovery is exactly the stalled-heartbeat rewind path.
      stats_.injected_drops++;
      continue;
    }
    if (fire(FaultSite::kNetDelay)) {
      // Chaos: hold this frame (and everything after it) until the next
      // pump. In-order delivery is preserved; only latency is injected.
      stats_.injected_delays++;
      send_pos_ = seq;
      break;
    }
    if (rec.kind == OutRecord::kDelta) {
      append_delta(outbox_, seq, rec.data);
      stats_.deltas_sent++;
    } else {
      append_entry(outbox_, seq, rec.data);
    }
    stats_.records_sent++;
  }
  (void)now_ns;
}

void PeerLink::flush(u64 now_ns) {
  if (outbox_.empty() || fd_ < 0) return;
  usize limit = outbox_.size();
  bool short_write = false;
  if (fire(FaultSite::kNetShortWrite)) {
    // Chaos: deliver only half the pending bytes, then kill the
    // connection — the classic torn frame. The receiver's CRC framing
    // must absorb it.
    stats_.injected_short_writes++;
    limit = limit / 2;
    short_write = true;
  }
  usize sent = 0;
  while (sent < limit) {
    const ssize_t r = sock_send(fd_, outbox_.data() + sent, limit - sent);
    if (r == kWouldBlock) break;
    if (r == kErr) {
      drop_connection(now_ns, "send error", /*count_error=*/true);
      return;
    }
    sent += static_cast<usize>(r);
  }
  stats_.bytes_sent += sent;
  outbox_.erase(outbox_.begin(), outbox_.begin() + static_cast<std::ptrdiff_t>(sent));
  if (short_write) {
    close_with_reset(fd_);
    fd_ = -1;
    drop_connection(now_ns, "short write", /*count_error=*/true);
  }
}

void PeerLink::pump(u64 now_ns) {
  if (fatal_ || gave_up_) return;

  // Partition window: stay dark until it elapses.
  if (partitioned_until_ns_ != 0) {
    if (now_ns < partitioned_until_ns_) {
      stats_.partitioned = true;
      return;
    }
    partitioned_until_ns_ = 0;
    stats_.partitioned = false;
  }

  // Connection (re)establishment.
  if (fd_ < 0) {
    if (now_ns < next_reconnect_ns_) return;
    if (cfg_.listener) {
      const int fd = tcp_accept(listen_fd_);
      if (fd >= 0) {
        establish(fd, now_ns);
      } else if (fd == static_cast<int>(kErr)) {
        drop_connection(now_ns, "accept error", /*count_error=*/true);
        return;
      } else {
        return;  // nothing pending
      }
    } else {
      std::string err;
      const int fd = tcp_connect_start(cfg_.host, cfg_.port, &err);
      if (fd < 0) {
        drop_connection(now_ns, "connect start", /*count_error=*/true);
        return;
      }
      fd_ = fd;
      connect_pending_ = true;
      last_rx_ns_ = now_ns;  // start the connect-timeout clock
    }
  }

  if (connect_pending_) {
    const int st = tcp_connect_poll(fd_);
    if (st == 0) {
      // Still connecting; a hung connect is bounded by the peer timeout.
      if (now_ns - last_rx_ns_ >
          static_cast<u64>(cfg_.peer_timeout_ms) * kMsNs) {
        drop_connection(now_ns, "connect timeout", /*count_error=*/true);
      }
      return;
    }
    if (st < 0) {
      drop_connection(now_ns, "connect failed", /*count_error=*/true);
      return;
    }
    establish(fd_, now_ns);
  }

  // Injected whole-connection failures, checked once per connected pump.
  if (fd_ >= 0) {
    if (fire(FaultSite::kNetConnReset)) {
      stats_.injected_resets++;
      close_with_reset(fd_);
      fd_ = -1;
      drop_connection(now_ns, "injected reset", /*count_error=*/true);
      return;
    }
    if (fire(FaultSite::kNetPartition)) {
      enter_partition(now_ns);
      return;
    }
  }

  // Drain the socket.
  u8 chunk[kRecvChunk];
  for (;;) {
    const ssize_t r = sock_recv(fd_, chunk, sizeof(chunk));
    if (r == kWouldBlock) break;
    if (r == kErr || r == 0) {
      drop_connection(now_ns, r == 0 ? "peer eof" : "recv error",
                      /*count_error=*/r != 0);
      return;
    }
    stats_.bytes_received += static_cast<u64>(r);
    last_rx_ns_ = now_ns;
    decoder_.feed({chunk, static_cast<usize>(r)});
    if (static_cast<usize>(r) < sizeof(chunk)) break;
  }
  while (auto f = decoder_.next()) {
    handle_frame(*f, now_ns);
    if (fd_ < 0) return;  // frame handling dropped the connection
  }
  if (decoder_.broken()) {
    // Torn or corrupted stream — no resynchronization possible; the
    // session-resume cursor recovers everything on reconnect.
    drop_connection(now_ns, "broken stream", /*count_error=*/true);
    return;
  }

  // Peer-liveness check: no bytes for peer_timeout_ms → declare it down.
  if (now_ns - last_rx_ns_ >
      static_cast<u64>(cfg_.peer_timeout_ms) * kMsNs) {
    stats_.heartbeat_timeouts++;
    drop_connection(now_ns, "peer timeout", /*count_error=*/false);
    return;
  }

  // Heartbeat (liveness + cumulative ack of what we accepted).
  if (hello_received_ &&
      now_ns - last_hb_tx_ns_ >=
          static_cast<u64>(cfg_.heartbeat_ms) * kMsNs) {
    append_cursor(outbox_, NetMsg::kHeartbeat, recv_cursor_);
    last_hb_tx_ns_ = now_ns;
  }

  queue_entries(now_ns);
  flush(now_ns);
}

void PeerLink::shutdown(u64 now_ns) {
  if (fatal_ || fd_ < 0) {
    if (fd_ >= 0) {
      xclose(fd_);
      fd_ = -1;
    }
    return;
  }
  // Suppress chaos during the drain: shutdown is about delivering what is
  // owed, and the drill's equality check depends on the backlog landing.
  FaultInjector* saved = fault_;
  fault_ = nullptr;
  const u64 deadline =
      now_ns + static_cast<u64>(cfg_.shutdown_linger_ms) * kMsNs;
  u64 t = now_ns;
  while (t < deadline) {
    pump(t);
    if (fd_ < 0 || gave_up_) break;
    const bool drained = outbox_.empty() && send_pos_ >= send_next_ &&
                         peer_acked_ >= send_next_;
    if (drained) break;
    ::usleep(1000);
    t += kMsNs;
  }
  if (fd_ >= 0) {
    outbox_.clear();
    std::vector<u8> bye;
    append_cursor(bye, NetMsg::kBye, recv_cursor_);
    usize sent = 0;
    while (sent < bye.size()) {
      const ssize_t r = sock_send(fd_, bye.data() + sent, bye.size() - sent);
      if (r == kWouldBlock) {
        ::usleep(1000);
        continue;
      }
      if (r == kErr) break;
      sent += static_cast<usize>(r);
      stats_.bytes_sent += static_cast<u64>(r);
    }
    xclose(fd_);
    fd_ = -1;
  }
  fault_ = saved;
}

LinkStats PeerLink::stats() const {
  LinkStats s = stats_;
  s.send_next = send_next_;
  s.peer_acked = peer_acked_;
  s.recv_cursor = recv_cursor_;
  s.connected = fd_ >= 0 && hello_received_;
  s.partitioned = partitioned_until_ns_ != 0;
  s.gave_up = gave_up_;
  return s;
}

}  // namespace bigmap::netfleet
