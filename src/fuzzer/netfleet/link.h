// PeerLink: partition-tolerant corpus-exchange session with one remote
// coordinator.
//
// The link is the robustness core of the federation tier. It is a
// single-threaded, non-blocking state machine (pumped from the
// coordinator's event loop behind its gateway's mutex, gateway.h) that keeps
// exactly one session with one peer and survives every partial failure a
// socket can produce:
//
//  - framing: BMSP CRC records (wire.h) — torn or bit-flipped frames are
//    detected, the connection is dropped, and the session resumes;
//  - novelty filter: a maintained remote-virgin summary (the content
//    hashes of everything ever sent to or received from the peer) gates
//    offer() — only entries the remote provably has not seen are shipped,
//    AFL-style, so the wire carries novelty, not the whole corpus again;
//  - session resume: offered records get absolute sequence numbers in a
//    bounded replay log. Each hello (and each heartbeat) carries the
//    receiver's cumulative record cursor; on (re)connect the sender replays
//    exactly the suffix the peer missed — never a duplicate, because the
//    receiver accepts strictly in cursor order and drops everything else;
//  - full resync: when the bounded log evicted records a resuming peer
//    still needed, the sender counts them lost and announces the new
//    stream base (hello log_base + an explicit kResync frame); the
//    receiver fast-forwards its cursor over the gap instead of waiting
//    forever for sequences that no longer exist;
//  - epoch fencing: a hello from an older epoch is dropped (the stale side
//    sees our higher epoch in our own hello and must rejoin or die); a
//    hello from a NEWER epoch is surfaced via observed_epoch() so the owner
//    can re-elect/re-home, and the link closes after handing over its own
//    hello so the newer side sees the fence too — the link never adopts an
//    epoch;
//  - delta records: offer_delta() ships opaque oracle-delta blobs through
//    the same replay log and sequence space as entries, so virgin-map
//    delta sync inherits the exactly-once guarantees for free;
//  - loss recovery: an injected kNetDrop loses one frame; the receiver's
//    cursor stops advancing, and two consecutive heartbeats with the same
//    stale cursor rewind the send position to it (go-back-N). Frames
//    resent this way are either accepted in order or dropped as
//    duplicates — accepted-entry streams are exactly-once by construction;
//  - liveness: heartbeats every heartbeat_ms; silence past peer_timeout_ms
//    declares the peer down, tears the connection, and schedules a
//    reconnect under exponential backoff with an optional retry budget;
//  - partitions: the kNetPartition chaos site cuts the link for
//    partition_ms. During the cut both sides keep fuzzing on local sync
//    (offer() keeps logging), and the heal replays the backlog through the
//    normal resume path — graceful degradation, then reconciliation;
//  - accounting: every event is counted once, in LinkStats. Its field
//    table (for_each_field) drives the per-gateway sum, the node-report
//    pipe, the drill diagnostics and the netfleet.* registry gauges the
//    fleet driver publishes at each fleet stamp (gateway.h).
#pragma once

#include <concepts>
#include <deque>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "fuzzer/netfleet/wire.h"
#include "fuzzer/queue.h"
#include "util/fault.h"
#include "util/types.h"

namespace bigmap::netfleet {

struct NetPeerConfig {
  // Exactly one side listens; the other dials. The listener binds
  // host:port (port 0 picks an ephemeral port, readable via
  // PeerLink::listen_port()) unless a pre-bound listening socket is handed
  // in via listen_fd (run_federation does this so the port is known
  // before forking).
  bool listener = false;
  std::string host = "127.0.0.1";
  u16 port = 0;
  int listen_fd = -1;

  // Session identity: hellos with a different fingerprint are refused
  // permanently (a federation of differently-configured campaigns would
  // exchange meaningless corpora). node_id only labels telemetry.
  u64 session_fingerprint = 0;
  u64 node_id = 0;

  // Federation epoch + rank carried in our hello. The epoch is immutable
  // per link — a new epoch always means a new PeerLink (promotion or
  // re-home).
  u64 epoch = 0;
  u32 rank = 0;

  // Liveness and reconnect policy.
  u32 heartbeat_ms = 50;
  u32 peer_timeout_ms = 1000;
  u32 reconnect_initial_ms = 10;
  double reconnect_multiplier = 2.0;
  u32 reconnect_cap_ms = 500;
  // Consecutive failed reconnect attempts before giving up permanently
  // (0 = never give up). Giving up is graceful: the fleet keeps fuzzing
  // on local sync alone.
  u32 max_reconnects = 0;

  // Duration of one injected kNetPartition cut.
  u32 partition_ms = 500;

  // Entries larger than this are rejected at offer() (mirrors the hubs'
  // max_input_size gate).
  usize max_entry_size = 1u << 12;
  // Bounded session-resume replay log; the oldest entries are evicted
  // when it overflows, and a peer whose cursor fell behind the eviction
  // frontier has the gap counted as lost, never silently skipped.
  usize send_log_max = 1u << 12;
  // Bound on bytes queued to the socket before entry shipping pauses.
  usize outbox_max = 256u * 1024;

  // How long shutdown() keeps pumping to drain the outbox and deliver the
  // goodbye before closing unconditionally.
  u32 shutdown_linger_ms = 500;
};

struct LinkStats {
  // Counters, listed in for_each_field below and summed by +=.
  u64 bytes_sent = 0;
  u64 bytes_received = 0;
  u64 records_sent = 0;      // entry+delta frames queued to the wire
  u64 records_received = 0;  // entry+delta frames accepted (in order)
  u64 deltas_sent = 0;       // delta frames queued to the wire
  u64 deltas_received = 0;   // delta frames accepted (in order)
  u64 entries_offered = 0;   // offer() calls that passed the size gate
  u64 novelty_filtered = 0;  // offers suppressed by the remote-virgin set
  u64 duplicates_dropped = 0;     // received entries below our cursor
  u64 out_of_order_dropped = 0;   // received entries above our cursor
  u64 rewinds = 0;                // go-back-N send-position rewinds
  u64 connects = 0;               // sessions established (incl. first)
  u64 reconnects = 0;             // sessions established after the first
  u64 heartbeat_timeouts = 0;     // peers declared down by silence
  u64 conn_errors = 0;            // resets, EOFs, torn/undecodable frames
  u64 hello_rejected = 0;         // fingerprint/version refusals
  u64 injected_drops = 0;
  u64 injected_delays = 0;
  u64 injected_short_writes = 0;
  u64 injected_resets = 0;
  u64 injected_partitions = 0;
  u64 partition_ms_total = 0;
  u64 log_evicted = 0;       // replay-log entries evicted by the bound
  u64 lost_to_eviction = 0;  // entries a resuming peer needed but were gone
  u64 resyncs_sent = 0;      // kResync announcements of an evicted gap
  u64 resync_skipped = 0;    // sequences we fast-forwarded over as receiver
  u64 stale_hellos_dropped = 0;  // hellos fenced out for an older epoch
  u64 epoch_ahead_seen = 0;  // hellos observed from a NEWER epoch
  // Per-link session state: meaningful on PeerLink::stats() only, never
  // summed (a sum of cursors across links means nothing).
  u64 send_next = 0;         // next sequence to be assigned by offer()
  u64 peer_acked = 0;        // peer's cumulative record cursor
  u64 recv_cursor = 0;       // records accepted from the peer
  u64 peer_epoch = 0;        // epoch from the last accepted hello
  u64 peer_rank = 0;         // rank from the last accepted hello
  bool connected = false;
  bool partitioned = false;
  bool gave_up = false;      // reconnect retry budget exhausted

  // Adds another link's counters; the session state stays as it is.
  LinkStats& operator+=(const LinkStats& o) noexcept;
};

// LinkStats' one field list: calls f(name, s.member...) for every counter
// of one or more stats (const or not) walked in lockstep, so one walk both
// names fields and zips two structs together.
template <class F, class... S>
  requires(std::same_as<std::remove_const_t<S>, LinkStats> && ...)
void for_each_field(F&& f, S&... s) {
  f("bytes_sent", s.bytes_sent...);
  f("bytes_received", s.bytes_received...);
  f("records_sent", s.records_sent...);
  f("records_received", s.records_received...);
  f("deltas_sent", s.deltas_sent...);
  f("deltas_received", s.deltas_received...);
  f("entries_offered", s.entries_offered...);
  f("novelty_filtered", s.novelty_filtered...);
  f("duplicates_dropped", s.duplicates_dropped...);
  f("out_of_order_dropped", s.out_of_order_dropped...);
  f("rewinds", s.rewinds...);
  f("connects", s.connects...);
  f("reconnects", s.reconnects...);
  f("heartbeat_timeouts", s.heartbeat_timeouts...);
  f("conn_errors", s.conn_errors...);
  f("hello_rejected", s.hello_rejected...);
  f("injected_drops", s.injected_drops...);
  f("injected_delays", s.injected_delays...);
  f("injected_short_writes", s.injected_short_writes...);
  f("injected_resets", s.injected_resets...);
  f("injected_partitions", s.injected_partitions...);
  f("partition_ms_total", s.partition_ms_total...);
  f("log_evicted", s.log_evicted...);
  f("lost_to_eviction", s.lost_to_eviction...);
  f("resyncs_sent", s.resyncs_sent...);
  f("resync_skipped", s.resync_skipped...);
  f("stale_hellos_dropped", s.stale_hellos_dropped...);
  f("epoch_ahead_seen", s.epoch_ahead_seen...);
}

inline LinkStats& LinkStats::operator+=(const LinkStats& o) noexcept {
  for_each_field([](const char*, u64& a, u64 b) { a += b; }, *this, o);
  return *this;
}

// One replay-log record: a corpus entry or an opaque oracle-delta blob.
// Both kinds share the sequence space, so cursor/ack/rewind semantics are
// identical and a delta can never overtake or shadow an entry.
struct OutRecord {
  enum Kind : u8 { kEntry = 0, kDelta = 1 };
  u8 kind = kEntry;
  Input data;
};

class PeerLink {
 public:
  // `fault` (nullable) drives the kNet* chaos sites keyed by
  // `fault_instance`.
  PeerLink(const NetPeerConfig& config, FaultInjector* fault,
           u32 fault_instance);
  ~PeerLink();
  PeerLink(const PeerLink&) = delete;
  PeerLink& operator=(const PeerLink&) = delete;

  // False when the link could never start (listener bind failure, bad
  // address). A dead link degrades to local-only fuzzing; it never throws.
  bool ok() const noexcept { return !fatal_; }
  const std::string& error() const noexcept { return error_; }

  // Actual bound port (listener side; valid when ok()).
  u16 listen_port() const noexcept { return listen_port_; }

  // Queues one locally-found entry for the peer. Returns false when the
  // entry was suppressed (novelty filter, size gate, or dead link).
  bool offer(Input input);

  // Queues one opaque oracle-delta blob. Deltas bypass the novelty filter
  // (they are state, not corpus) but ride the same replay log, so delivery
  // is exactly-once in sequence with the entries around them.
  bool offer_delta(Input blob);

  // Entries accepted from the peer since the last call, in arrival order.
  std::vector<Input> take_received();

  // Delta blobs accepted from the peer since the last call, in order.
  std::vector<Input> take_received_deltas();

  // Snapshot of the not-yet-acked replay-log suffix, for carrying across
  // an epoch boundary: a re-homing spoke re-offers these to the successor
  // hub so nothing the dead hub never acked is lost.
  std::vector<OutRecord> unacked_records() const;

  // Highest epoch seen in a peer hello that is AHEAD of cfg.epoch (0 when
  // none). The owner reacts — rejoin at the new epoch or latch stale-fatal
  // — the link itself only refuses to exchange across epochs.
  u64 observed_epoch() const noexcept { return observed_epoch_; }
  u32 observed_rank() const noexcept { return observed_rank_; }

  // Drives connect/accept, reads, frame handling, heartbeats, fault
  // injection, and writes. Non-blocking; call often (every few ms).
  void pump(u64 now_ns);

  // Bounded drain: pumps until the outbox and replay backlog are
  // delivered (or the linger budget expires), sends kBye, closes.
  void shutdown(u64 now_ns);

  bool connected() const noexcept { return fd_ >= 0 && hello_received_; }
  LinkStats stats() const;

 private:
  void establish(int fd, u64 now_ns);
  void drop_connection(u64 now_ns, const char* why, bool count_error);
  void enter_partition(u64 now_ns);
  void handle_frame(const Frame& f, u64 now_ns);
  void handle_ack(u64 cursor);
  void announce_resync();
  bool accept_in_order(u64 seq);
  void push_record(OutRecord rec);
  void queue_entries(u64 now_ns);
  void flush(u64 now_ns);
  bool fire(FaultSite site) {
    return fault_ != nullptr && fault_->fire(site, fault_instance_);
  }
  u64 backoff_ns(u32 attempt) const noexcept;

  const NetPeerConfig cfg_;
  FaultInjector* fault_;
  const u32 fault_instance_;

  bool fatal_ = false;
  std::string error_;

  int listen_fd_ = -1;
  bool owns_listen_fd_ = false;
  u16 listen_port_ = 0;
  int fd_ = -1;
  bool connect_pending_ = false;
  bool hello_sent_ = false;
  bool hello_received_ = false;
  bool peer_said_bye_ = false;

  FrameDecoder decoder_;
  std::vector<u8> outbox_;

  // Bounded replay log: log_ holds records [log_base_, send_next_);
  // send_pos_ is the next sequence to transmit.
  std::deque<OutRecord> log_;
  u64 log_base_ = 0;
  u64 send_next_ = 0;
  u64 send_pos_ = 0;
  u64 peer_acked_ = 0;
  u64 last_hb_cursor_ = 0;
  bool have_hb_cursor_ = false;

  u64 recv_cursor_ = 0;
  std::vector<Input> received_;
  std::vector<Input> received_deltas_;
  std::unordered_set<u64> remote_known_;
  u64 observed_epoch_ = 0;
  u32 observed_rank_ = 0;

  u64 last_rx_ns_ = 0;
  u64 last_hb_tx_ns_ = 0;
  u64 next_reconnect_ns_ = 0;
  u32 reconnect_attempts_ = 0;
  u64 partitioned_until_ns_ = 0;
  bool gave_up_ = false;

  LinkStats stats_;
};

}  // namespace bigmap::netfleet
