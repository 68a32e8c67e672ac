// The federation gateway: one config, one interface, and MeshHub, the
// gateway for static topologies.
//
// A federation is a rank table [0, num_nodes) of process-fleet
// coordinators (FederationConfig). Every coordinator wraps its local hub
// in one Gateway — a SyncEndpoint that reserves one extra inner instance,
// the *gateway instance*, as the federation's local identity. Campaigns
// see only the SyncEndpoint interface (sync.h), so federation is a
// wrapper, not a fuzzing-loop change. Two gateways implement it:
//
//  - MeshHub (below): a static topology. The leader holds one PeerLink
//    per other rank, every follower one link to the leader. A pair is a
//    2-rank federation, a star an N-rank one.
//  - FailoverMesh (failover.h): the same rank table with failover on —
//    elections, epoch fencing, oracle delta sync and a federation WAL.
//
// MeshHub data flow, with the gateway instance shared by all links:
//
//   local find   -> inner.publish(worker) -> pump: inner.fetch_new(gateway)
//                -> every link's offer()  -> wire -> each peer
//   peer find    -> link[i].take_received() -> inner.publish(gateway)
//                                           -> re-offered on links j != i
//
// The peer-to-peer relay is the leader's whole job: followers only know
// the leader, yet every follower still receives every other follower's
// finds, one hop later. fetch_new never returns an instance's own
// publishes, so imports are never echoed back out through the normal
// export path — the relay in the import routine is the only forwarding,
// and it skips the source link.
//
// Each link may carry a corpus::NoveltyOracle as its "remote model": the
// oracle's virgin maps track the coverage that peer has provably seen
// through this gateway (everything shipped to it, everything accepted
// from it). With an oracle attached, an entry is shipped on a link only
// when it would flip virgin bits in that peer's model — a strictly deeper
// gate than the link's built-in content-hash novelty filter, and the
// reason a saturated federation's wire goes quiet instead of re-shipping
// coverage duplicates.
//
// Thread-safety: the inner hub is thread-safe; links and oracles are
// single-threaded, so pump/shutdown serialize behind one mutex and
// endpoint calls pass straight through.
#pragma once

#include <concepts>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "corpus/novelty.h"
#include "fuzzer/netfleet/link.h"
#include "fuzzer/sync.h"
#include "telemetry/registry.h"

namespace bigmap::netfleet {

struct FederationConfig {
  // Static identity. Ranks are [0, num_nodes); initial_leader leads
  // initial_epoch. num_nodes == 0 means local only (no gateway). Epoch 0
  // is reserved (epoch-agnostic links), so initial_epoch must be >= 1.
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

  // Self-healing (FailoverMesh): elections, epoch fencing, oracle delta
  // sync, resume probing and the federation WAL. Off: a static MeshHub
  // around initial_leader, and every field below is ignored.
  bool failover = false;

  // Leader-link silence (never established) before a spoke declares the
  // leader dead and elects. Must comfortably exceed the link's own
  // peer_timeout + reconnect backoff so transient faults heal in-session.
  u32 election_timeout_ms = 600;

  // Steady-state oracle delta cadence on follower links (0 = only the
  // full-state snapshot at (re)home time).
  u32 delta_interval_ms = 40;

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
// for us (it leads), stamped with `epoch` (0 = epoch-agnostic).
NetPeerConfig federation_link(const FederationConfig& cfg, bool listener,
                              u32 remote_rank, u64 epoch);

// A gateway's accounting. net/oracle sum every link and model the gateway
// ever ran; the election fields stay zero on a static MeshHub.
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

// What the coordinator drives: a SyncEndpoint that forwards every
// endpoint call to the wrapped inner hub, plus the pump/shutdown cycle.
class Gateway : public SyncEndpoint {
 public:
  // `inner` must outlive the gateway and must have been created with one
  // more instance than the fleet's workers; the extra (highest) id is the
  // gateway instance.
  Gateway(SyncEndpoint* inner, u32 gateway_instance)
      : inner_(inner), gateway_(gateway_instance) {}

  u32 num_instances() const noexcept final {
    return inner_->num_instances();
  }
  bool publish(u32 instance, Input input) final {
    return inner_->publish(instance, std::move(input));
  }
  std::vector<Input> fetch_new(u32 instance) final {
    return inner_->fetch_new(instance);
  }
  void reset_cursor(u32 instance) final { inner_->reset_cursor(instance); }
  u64 total_published() const final { return inner_->total_published(); }
  SyncHubStats stats() const final { return inner_->stats(); }

  // Moves novelty between the inner hub and the wire; call from the
  // coordinator loop every few milliseconds.
  virtual void pump(u64 now_ns) = 0;

  // Final export sweep, then drains and closes every link.
  virtual void shutdown(u64 now_ns) = 0;

  virtual FailoverStats failover_stats() const = 0;

 protected:
  SyncEndpoint* const inner_;
  const u32 gateway_;
};

class MeshHub final : public Gateway {
 public:
  using Gateway::Gateway;

  // Attaches one peer session (owned). `oracle` may be null (content-hash
  // novelty only). Attach every link before the first pump().
  void add_link(std::unique_ptr<PeerLink> link,
                std::unique_ptr<corpus::NoveltyOracle> oracle);

  void pump(u64 now_ns) override;
  void shutdown(u64 now_ns) override;
  FailoverStats failover_stats() const override;

 private:
  struct Peer {
    std::unique_ptr<PeerLink> link;
    std::unique_ptr<corpus::NoveltyOracle> oracle;
  };

  // Offers `in` on one link, gated by its oracle when present.
  void export_to(Peer& peer, const Input& in);
  // Offers everything workers published since the last sweep to every
  // peer.
  void export_local();
  // Publishes what peer `i` delivered, folding each entry into that
  // peer's model first; `relay` also re-offers it to every other peer.
  void import_from(usize i, bool relay);

  std::vector<Peer> peers_;
  mutable std::mutex mu_;
};

}  // namespace bigmap::netfleet
