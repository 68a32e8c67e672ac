// The federation gateway: one config, one class.
//
// A federation is a rank table [0, num_nodes) of process-fleet
// coordinators (FederationConfig). Every coordinator wraps its local hub
// in one Gateway — a SyncEndpoint that reserves one extra inner instance,
// the *gateway instance*, as the federation's local identity. Campaigns
// see only the SyncEndpoint interface (sync.h), so federation is a
// wrapper, not a fuzzing-loop change.
//
// Exactly one rank leads an **epoch**; the others follow (spoke role).
// The leader holds one PeerLink per other rank, every follower one link
// to the leader. A pair is a 2-rank federation, a star an N-rank one.
// With failover off the founding leader is pinned: nobody ever elects,
// and the resume probe, stale-fatal latch and WAL are ignored. With
// failover on the same node survives the one fault a pinned leader
// cannot: the death of the leader itself.
//
//   Data flow, with the gateway instance shared by all links:
//
//     local find -> inner.publish(worker) -> pump: inner.fetch_new(gateway)
//                -> every link's offer()  -> wire -> each peer
//     peer find  -> link[i].take_received() -> inner.publish(gateway)
//                                           -> re-offered on links j != i
//
//   The peer-to-peer relay is the leader's whole job: followers only know
//   the leader, yet every follower still receives every other follower's
//   finds, one hop later. fetch_new never returns an instance's own
//   publishes, so imports are never echoed back out through the normal
//   export path — the relay in the import routine is the only forwarding,
//   and it skips the source link.
//
//   Remote models.  Each link may be gated by a corpus::NoveltyOracle
//   modelling the coverage the peer has provably seen through this
//   gateway (everything shipped to it, everything accepted from it): the
//   leader keeps one per follower, a follower one of the whole federation.
//   An entry is shipped only when it would flip virgin bits in that
//   model — a strictly deeper gate than the link's content-hash novelty
//   filter, and the reason a saturated federation's wire goes quiet.
//   Every received entry is folded (admitted) into its source's model
//   before it is relayed, so a model tracks its peer with no extra wire
//   records.
//
//   Delta seeding.  A model that starts empty while its peer already
//   knows coverage — a new leader's, after an election — is seeded
//   instead of rebuilt: on every (re)home the follower ships a full-state
//   virgin-map snapshot of its own model (corpus::OracleDelta over the
//   kDelta frame), which the leader APPLIES with zero re-executions. The
//   fold keeps the model current from there.
//
//   Election (failover on).  Spokes detect leader death locally: the
//   leader link silent (never connected/hello'd) past election_timeout_ms,
//   or its reconnect budget exhausted. There is no gossip round — the
//   successor is the deterministic function succ(leader) = (leader + 1) %
//   num_nodes, and the epoch advances by exactly one, so every live spoke
//   independently computes the same (successor, epoch) pair. If the
//   successor is itself dead, the next election fires one timeout later,
//   walking the ring until a live rank leads. The wiring is pre-bound by
//   the harness: for every ordered pair (leader h, spoke s) there is a
//   listening socket L[h][s] the parent bound before forking, so any rank
//   can assume leadership without coordination.
//
//   Epoch fencing.  Every hello carries the sender's epoch (wire.h).
//   PeerLink refuses cross-epoch sessions both ways; a hello from a NEWER
//   epoch is surfaced here via observed_epoch(). A resurrected stale leader
//   probes (resume_probe), observes the successor's higher epoch, and
//   either latches stale-fatal (fenced out for good, the drill's
//   split-brain proof) or rejoins the new epoch as a spoke.
//
//   Cursor handoff.  Links are per-epoch; the replay log is not. When a
//   spoke re-homes it carries the old link's unacked suffix and re-offers
//   it on the new session, so nothing the dead leader never acked is
//   lost. A cross-epoch content-hash seen-set gates every gateway publish,
//   so nothing is double-accepted either — together: exactly-once across
//   the epoch boundary.
//
//   Journal (failover on).  Epoch transitions and delta records are
//   appended to a federation WAL (a persist::Journal of
//   persist/federation.h records) for resume (a restarted node recovers
//   its last epoch) and for statecheck's post-drill audit. A torn tail is
//   truncated on open; a foreign file leaves the node unjournaled.
//
//   Accounting.  Every event is counted once, in FailoverStats; links and
//   models retired at an epoch boundary fold into carried totals first,
//   so failover_stats() covers the node's whole life.
//
// Thread-safety: endpoint calls pass straight through to the (thread-safe)
// inner hub; links and oracles are single-threaded, so start/pump/
// shutdown serialize behind one mutex.
#pragma once

#include <concepts>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "corpus/novelty.h"
#include "fuzzer/netfleet/link.h"
#include "fuzzer/sync.h"
#include "persist/journal.h"
#include "telemetry/registry.h"

namespace bigmap::netfleet {

struct FederationConfig {
  // Static identity. Ranks are [0, num_nodes); initial_leader leads
  // initial_epoch. num_nodes == 0 means local only (no gateway). Epoch 0
  // means "none observed" (PeerLink::observed_epoch), so initial_epoch
  // must be >= 1.
  u32 rank = 0;
  u32 num_nodes = 0;
  u32 initial_leader = 0;
  u64 initial_epoch = 1;

  // Pre-bound wiring. listen_fds[s] is OUR listener that rank s dials
  // when WE lead (-1 at index == rank). dial_ports[r] is the port WE dial
  // when rank r leads. Both sized num_nodes.
  std::vector<int> listen_fds;
  std::vector<u16> dial_ports;

  // Per-link template: fingerprint, node id, liveness/backoff tuning,
  // chaos wiring. listener/port/epoch/rank fields are overwritten per
  // link.
  NetPeerConfig link;

  // Self-healing: elections, epoch fencing across them, resume probing
  // and the federation WAL. Off: initial_leader leads for good, and every
  // field below is ignored.
  bool failover = false;

  // Leader-link silence (never established) before a spoke declares the
  // leader dead and elects. Must comfortably exceed the link's own
  // peer_timeout + reconnect backoff so transient faults heal in-session.
  u32 election_timeout_ms = 600;

  // Resurrected-node behavior. resume_probe: before acting on the
  // journaled role, dial every other rank and listen for a newer epoch;
  // on silence, resume the prior role. stale_fatal: when a newer epoch is
  // observed, latch fenced (refuse to participate ever again) instead of
  // rejoining it.
  bool resume_probe = false;
  bool stale_fatal = false;
  u32 probe_timeout_ms = 0;  // 0 -> 2 * election_timeout_ms

  // Federation WAL path (empty = no journaling, no epoch resume).
  std::string wal_path;
};

// The link to `remote_rank` from the template: a listener on our
// pre-bound socket for it (`listener`, we lead) or a dialer to its port
// for us (it leads), stamped with `epoch`.
NetPeerConfig federation_link(const FederationConfig& cfg, bool listener,
                              u32 remote_rank, u64 epoch);

// A gateway's accounting. net/oracle sum every link and model the gateway
// ever ran; the election fields stay zero with failover off.
struct FailoverStats {
  u64 epoch = 0;
  u32 role = 0;  // 0 leader, 1 follower, 2 probing, 3 fenced
  u32 leader_rank = 0;
  u64 elections = 0;    // leader deaths this node detected
  u64 promotions = 0;   // elections this node won
  u64 rehomes = 0;      // re-homes to a successor (incl. rejoins)
  u64 rejoins = 0;      // re-homes caused by observing a newer epoch
  u64 fenced = 0;       // 1 when stale-fatal latched
  u64 handoff_reoffered = 0;  // unacked entries re-offered across an epoch
  u64 dup_suppressed = 0;     // cross-epoch duplicate publishes suppressed
  u64 deltas_shipped = 0;     // delta records offered to the wire
  u64 deltas_applied = 0;     // delta records applied to per-peer models
  LinkStats net;              // aggregate over this node's links
  corpus::OracleStats oracle;  // aggregate over this node's models
};

// FailoverStats' one field list for its own scalars (net and oracle have
// their own tables): calls f(name, s.member...) for each.
template <class F, class... S>
  requires(std::same_as<std::remove_const_t<S>, FailoverStats> && ...)
void for_each_field(F&& f, S&... s) {
  f("epoch", s.epoch...);
  f("role", s.role...);
  f("leader_rank", s.leader_rank...);
  f("elections", s.elections...);
  f("promotions", s.promotions...);
  f("rehomes", s.rehomes...);
  f("rejoins", s.rejoins...);
  f("fenced", s.fenced...);
  f("handoff_reoffered", s.handoff_reoffered...);
  f("dup_suppressed", s.dup_suppressed...);
  f("deltas_shipped", s.deltas_shipped...);
  f("deltas_applied", s.deltas_applied...);
}

// Every field of a FailoverStats through the three tables, as
// f(key, member) with key = prefix + field name: the own scalars under
// `own`, the link counters under `net`, the oracle counters under
// `oracle`.
struct StatsPrefixes {
  const char* own;
  const char* net;
  const char* oracle;
};
template <class S, class F>
  requires std::same_as<std::remove_const_t<S>, FailoverStats>
void for_each_prefixed_field(S& s, const StatsPrefixes& p, F&& f) {
  const auto under = [&f](const char* prefix) {
    return [&f, prefix](const char* name, auto& v) {
      f(std::string(prefix) + name, v);
    };
  };
  for_each_field(under(p.own), s);
  for_each_field(under(p.net), s.net);
  for_each_field(under(p.oracle), s.oracle);
}

// Writes `s` into `reg` as one gauge per table field: failover.<field>,
// netfleet.<field> and oracle.<field>. The fleet driver calls it at each
// fleet stamp, so the registry is a published view of the struct.
void publish(const FailoverStats& s, telemetry::MetricRegistry& reg);

class Gateway final : public SyncEndpoint {
 public:
  using OracleFactory =
      std::function<std::unique_ptr<corpus::NoveltyOracle>()>;

  // `inner` must outlive the gateway and must have been created with one
  // more instance than the fleet's workers; the extra (highest) id,
  // `gateway_instance`, is the gateway instance. `factory` builds one
  // fresh remote model per peer (may be null / return null: content-hash
  // filtering only). `fault` drives the kNet* chaos sites.
  Gateway(SyncEndpoint* inner, u32 gateway_instance, FederationConfig cfg,
          OracleFactory factory, FaultInjector* fault);

  u32 num_instances() const noexcept override {
    return inner_->num_instances();
  }
  bool publish(u32 instance, Input input) override {
    return inner_->publish(instance, std::move(input));
  }
  std::vector<Input> fetch_new(u32 instance) override {
    return inner_->fetch_new(instance);
  }
  void reset_cursor(u32 instance) override { inner_->reset_cursor(instance); }
  u64 total_published() const override { return inner_->total_published(); }
  SyncHubStats stats() const override { return inner_->stats(); }

  // Takes up the founding role (probe, leader or follower) and opens its
  // links; the first pump() does it when nobody called start(). Returns
  // the first founding link's error, "" when every link started.
  std::string start(u64 now_ns);

  // Moves novelty between the inner hub and the wire, and drives
  // elections and epoch reactions; call from the coordinator loop every
  // few milliseconds.
  void pump(u64 now_ns);

  // Final export sweep, link drains, goodbye. Fenced nodes no-op.
  void shutdown(u64 now_ns);

  FailoverStats failover_stats() const;

 private:
  enum class Role { kLeader, kFollower, kProbing, kFenced };

  struct Peer {
    u32 rank = 0;
    std::unique_ptr<PeerLink> link;
    std::unique_ptr<corpus::NoveltyOracle> oracle;  // leader-side model
  };

  void start_locked(u64 now_ns);
  void journal_epoch(u8 reason);
  void journal_delta(const Input& blob);
  void load_wal();
  std::unique_ptr<corpus::NoveltyOracle> make_model() const;
  corpus::NoveltyOracle* model_of(usize i) const;
  void publish_once(Input in);
  void export_to(usize i, const Input& in);
  void export_local();
  void import_from(usize i, bool relay);
  void start_probe(u64 now_ns);
  void promote(bool resumed);
  void rehome(u32 new_leader, u64 now_ns, bool rejoin);
  void elect(u64 now_ns);
  void react_to_newer_epoch(u64 now_ns);
  void fence();
  void capture_handoff(Peer& p);
  void retire_links();
  void ship_full_state(Peer& p);
  void exchange(u64 now_ns);
  void pump_follower(u64 now_ns);
  void pump_probe(u64 now_ns);

  SyncEndpoint* const inner_;
  const u32 gateway_;
  const FederationConfig cfg_;
  OracleFactory factory_;
  FaultInjector* fault_;

  Role role_ = Role::kFollower;
  u64 epoch_ = 1;
  u32 leader_ = 0;

  std::vector<Peer> peers_;
  // Follower-side model of everything this node has seen through the
  // federation (gates exports; the source of the shipped full state).
  // Owned for the node's whole life — it is the state that crosses
  // epochs.
  std::unique_ptr<corpus::NoveltyOracle> my_oracle_;

  // Cross-epoch exactly-once: content hashes of every entry this node has
  // published under the gateway or exported from its own fleet.
  std::unordered_set<u64> seen_hashes_;
  // Entries carried over an epoch boundary, awaiting re-offer (leader:
  // broadcast to every spoke; set only at promotion).
  std::vector<Input> pending_broadcast_;

  u64 last_leader_seen_ns_ = 0;
  u64 probe_deadline_ns_ = 0;
  std::optional<persist::Journal> wal_;  // set when the WAL opened cleanly
  bool started_ = false;

  // Accounting of links/models already destroyed by role transitions, so
  // re-homing never erases the old epoch's stats.
  LinkStats net_carried_;
  corpus::OracleStats oracle_carried_;

  FailoverStats fstats_;
  mutable std::mutex mu_;
};

}  // namespace bigmap::netfleet
