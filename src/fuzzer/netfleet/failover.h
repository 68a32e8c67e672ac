// FailoverMesh: the self-healing federation node — the Gateway (mesh.h)
// for a FederationConfig with failover on. It survives the one fault a
// static MeshHub cannot: the death of the hub itself.
//
// Every node in the federation runs one FailoverMesh over a static rank
// table [0, num_nodes). Exactly one rank leads an **epoch**; the others
// follow (spoke role). The wiring is pre-bound by the harness: for every
// ordered pair (leader h, spoke s) there is a listening socket L[h][s] the
// parent bound before forking, so any rank can assume leadership without
// coordination — its listeners already exist, and re-homing spokes simply
// dial the successor's well-known port.
//
//   Election.  Spokes detect hub death locally: the leader link silent
//   (never connected/hello'd) past election_timeout_ms, or its reconnect
//   budget exhausted. There is no gossip round — the successor is the
//   deterministic function succ(leader) = (leader + 1) % num_nodes, and
//   the epoch advances by exactly one, so every live spoke independently
//   computes the same (successor, epoch) pair. If the successor is itself
//   dead, the new epoch's leader link stays silent and the next election
//   fires, walking the ring until a live rank leads. The lowest-rank LIVE
//   node therefore ends up leading, one election-timeout per dead rank.
//
//   Epoch fencing.  Every hello carries the sender's epoch (wire.h v2).
//   PeerLink refuses cross-epoch sessions both ways; a hello from a NEWER
//   epoch is surfaced here via observed_epoch(). A resurrected stale hub
//   probes (resume_probe), observes the successor's higher epoch, and
//   either latches stale-fatal (stale_fatal=true: fenced out for good, the
//   drill's split-brain proof) or rejoins the new epoch as a spoke.
//
//   Cursor handoff.  Links are per-epoch; the replay log is not. When a
//   spoke re-homes it carries the old link's unacked suffix and re-offers
//   it on the new session, so nothing the dead hub never acked is lost.
//   A cross-epoch content-hash seen-set gates every gateway publish, so
//   nothing is double-accepted either — together: exactly-once across the
//   epoch boundary.
//
//   Oracle delta sync.  Followers ship compact virgin-map deltas of their
//   own federation model (corpus::OracleDelta over the kDelta frame) on a
//   steady cadence, and a full-state snapshot on every (re)home. The
//   leader rebuilds its per-peer NoveltyOracle models by APPLYING those
//   records — zero candidate re-executions — instead of the MeshHub
//   scheme of admit()-folding every received entry, which also cuts the
//   steady-state hub executor load. Leader-side models gate relays the
//   same way MeshHub's do.
//
//   Journal.  Epoch transitions and delta records are appended to a
//   federation WAL (a persist::Journal of persist/federation.h records)
//   for resume (a restarted node recovers its last epoch) and for
//   statecheck's post-drill audit. A torn tail is truncated on open; a
//   foreign file leaves the node unjournaled.
//
//   Accounting.  Every event is counted once, in FailoverStats (mesh.h);
//   links and models retired at an epoch boundary fold into carried
//   totals first, so failover_stats() covers the node's whole life.
//
// Thread-safety: like MeshHub — endpoint calls pass through to the inner
// hub; offer/take/pump/shutdown serialize behind one mutex.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_set>
#include <vector>

#include "corpus/novelty.h"
#include "fuzzer/netfleet/link.h"
#include "fuzzer/netfleet/mesh.h"
#include "fuzzer/sync.h"
#include "persist/journal.h"

namespace bigmap::netfleet {

class FailoverMesh final : public Gateway {
 public:
  using OracleFactory =
      std::function<std::unique_ptr<corpus::NoveltyOracle>()>;

  // `inner` as in Gateway (one extra instance, the gateway). `cfg` must
  // have failover on. `factory` builds one fresh remote model per peer
  // link (may be null / return null: content-hash filtering only, no
  // delta sync). `fault` drives the kNet* chaos sites.
  FailoverMesh(SyncEndpoint* inner, u32 gateway_instance,
               FederationConfig cfg, OracleFactory factory,
               FaultInjector* fault);
  ~FailoverMesh() override;

  // Drives links, elections, delta sync, and epoch reactions.
  void pump(u64 now_ns) override;

  // Final export sweep, link drains, goodbye. Fenced nodes no-op.
  void shutdown(u64 now_ns) override;

  FailoverStats failover_stats() const override;

 private:
  enum class Role { kLeader, kFollower, kProbing, kFenced };

  struct Peer {
    u32 rank = 0;
    std::unique_ptr<PeerLink> link;
    std::unique_ptr<corpus::NoveltyOracle> oracle;  // leader-side model
  };

  void journal_epoch(u8 reason);
  void journal_delta(const Input& blob);
  void load_wal();
  std::unique_ptr<corpus::NoveltyOracle> make_model() const;
  void publish_once(Input in);
  void export_gated(Peer& p, const Input& in);
  void start_probe(u64 now_ns);
  void promote(u64 now_ns, bool resumed);
  void rehome(u32 new_leader, u64 now_ns, bool rejoin);
  void elect(u64 now_ns);
  void react_to_newer_epoch(u64 now_ns);
  void fence(u64 now_ns);
  void capture_handoff(Peer& p);
  void retire_links();
  void ship_deltas(Peer& p, bool full);
  void pump_leader(u64 now_ns);
  void pump_follower(u64 now_ns);
  void pump_probe(u64 now_ns);

  const FederationConfig cfg_;
  OracleFactory factory_;
  FaultInjector* fault_;

  Role role_ = Role::kFollower;
  u64 epoch_ = 1;
  u32 leader_ = 0;

  std::vector<Peer> peers_;
  // Follower-side model of everything this node has seen through the
  // federation (gates exports; the source of the shipped deltas). Owned
  // for the node's whole life — it is the state that crosses epochs.
  std::unique_ptr<corpus::NoveltyOracle> my_oracle_;

  // Cross-epoch exactly-once: content hashes of every entry this node has
  // published under the gateway or exported from its own fleet.
  std::unordered_set<u64> seen_hashes_;
  // Entries carried over an epoch boundary, awaiting re-offer (leader:
  // broadcast to every spoke; set only at promotion).
  std::vector<Input> pending_broadcast_;

  u64 last_leader_seen_ns_ = 0;
  u64 last_delta_ns_ = 0;
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
