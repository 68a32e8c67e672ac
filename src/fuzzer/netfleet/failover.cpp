#include "fuzzer/netfleet/failover.h"

#include <algorithm>
#include <utility>

#include "persist/federation.h"
#include "util/hash.h"

namespace bigmap::netfleet {
namespace {

constexpr u64 kMsNs = 1'000'000ull;

}  // namespace

FailoverMesh::FailoverMesh(SyncEndpoint* inner, u32 gateway_instance,
                           FederationConfig cfg, OracleFactory factory,
                           FaultInjector* fault)
    : Gateway(inner, gateway_instance),
      cfg_(std::move(cfg)),
      factory_(std::move(factory)),
      fault_(fault),
      epoch_(std::max<u64>(cfg_.initial_epoch, 1)),
      leader_(cfg_.initial_leader) {
  my_oracle_ = make_model();
  load_wal();
}

FailoverMesh::~FailoverMesh() = default;

std::unique_ptr<corpus::NoveltyOracle> FailoverMesh::make_model() const {
  return factory_ ? factory_() : nullptr;
}

// ---- Journal -------------------------------------------------------------

void FailoverMesh::load_wal() {
  if (cfg_.wal_path.empty()) return;
  // The federation WAL is not a chaos site. A foreign file, or a torn
  // tail that cannot be truncated, leaves the node unjournaled rather
  // than appending behind bytes no reader gets past.
  persist::Journal wal(cfg_.wal_path, persist::FaultCtx{});
  const persist::JournalReplay replay = wal.open();
  if (!replay.ok()) return;
  // Resume: the last journaled transition is this node's epoch reality.
  for (const persist::RecordView& r : replay.records) {
    if (r.type != persist::RecordType::kFederationEpoch) continue;
    persist::FederationEpochRecord rec;
    if (persist::parse_federation_epoch(r.payload, &rec)) {
      epoch_ = std::max(epoch_, rec.epoch);
      leader_ = rec.leader;
    }
  }
  wal_.emplace(std::move(wal));
}

void FailoverMesh::journal_epoch(u8 reason) {
  if (!wal_) return;
  persist::FederationEpochRecord rec;
  rec.epoch = epoch_;
  rec.leader = leader_;
  rec.rank = cfg_.rank;
  rec.reason = reason;
  std::string err;
  (void)wal_->append(persist::RecordType::kFederationEpoch,
                     [&](persist::PayloadWriter& w) {
                       persist::put_federation_epoch(w, rec);
                     },
                     &err);
}

void FailoverMesh::journal_delta(const Input& blob) {
  if (!wal_) return;
  std::string err;
  (void)wal_->append(persist::RecordType::kVirginDelta,
                     [&](persist::PayloadWriter& w) { w.put_bytes(blob); },
                     &err);
}

// ---- Role transitions ----------------------------------------------------

// Folds the stats of every current link/model into the carried totals and
// destroys the links — re-homing must not erase the old epoch's accounting.
void FailoverMesh::capture_handoff(Peer& p) {
  for (OutRecord& rec : p.link->unacked_records()) {
    // Entries the dead leader never acked get re-offered in the new
    // epoch. Deltas are NOT carried: the full-state snapshot shipped at
    // re-home supersedes every lost incremental.
    if (rec.kind == OutRecord::kEntry) {
      fstats_.handoff_reoffered++;
      pending_broadcast_.push_back(std::move(rec.data));
    }
  }
}

void FailoverMesh::promote(u64 now_ns, bool resumed) {
  role_ = Role::kLeader;
  leader_ = cfg_.rank;
  fstats_.promotions++;
  for (u32 r = 0; r < cfg_.num_nodes; ++r) {
    if (r == cfg_.rank) continue;
    Peer p;
    p.rank = r;
    p.link = std::make_unique<PeerLink>(
        federation_link(cfg_, /*listener=*/true, r, epoch_), fault_, gateway_);
    p.oracle = make_model();
    peers_.push_back(std::move(p));
  }
  journal_epoch(static_cast<u8>(resumed ? persist::EpochReason::kResumed
                                        : persist::EpochReason::kElected));
  (void)now_ns;
}

void FailoverMesh::rehome(u32 new_leader, u64 now_ns, bool rejoin) {
  role_ = Role::kFollower;
  leader_ = new_leader;
  fstats_.rehomes++;
  if (rejoin) fstats_.rejoins++;
  Peer p;
  p.rank = new_leader;
  p.link = std::make_unique<PeerLink>(
      federation_link(cfg_, /*listener=*/false, new_leader, epoch_), fault_,
      gateway_);
  peers_.push_back(std::move(p));
  last_leader_seen_ns_ = now_ns;
  last_delta_ns_ = now_ns;
  journal_epoch(static_cast<u8>(rejoin ? persist::EpochReason::kRejoin
                                       : persist::EpochReason::kElected));
  // Seed the successor's model of us with everything we provably know,
  // without it executing anything: full-state delta first, then the
  // entries the dead leader never acked.
  ship_deltas(peers_[0], /*full=*/true);
  for (Input& in : pending_broadcast_) {
    (void)peers_[0].link->offer(std::move(in));
  }
  pending_broadcast_.clear();
}

void FailoverMesh::retire_links() {
  for (Peer& p : peers_) {
    net_carried_ += p.link->stats();
    if (p.oracle != nullptr) oracle_carried_ += p.oracle->stats();
  }
  peers_.clear();
}

// A spoke's leader link went silent past the election timeout (or gave
// up). Successor selection is a pure function of the dead leader's rank,
// so every live spoke converges on the same new epoch without a single
// coordination message. A dead successor just means the next election
// fires one timeout later, walking the ring to the lowest live rank.
void FailoverMesh::elect(u64 now_ns) {
  fstats_.elections++;
  for (Peer& p : peers_) capture_handoff(p);
  retire_links();
  const u32 successor = (leader_ + 1) % cfg_.num_nodes;
  epoch_ += 1;
  if (successor == cfg_.rank) {
    promote(now_ns, /*resumed=*/false);
  } else {
    rehome(successor, now_ns, /*rejoin=*/false);
  }
}

void FailoverMesh::fence(u64 now_ns) {
  role_ = Role::kFenced;
  fstats_.fenced = 1;
  retire_links();
  journal_epoch(static_cast<u8>(persist::EpochReason::kFenced));
  (void)now_ns;
}

// A peer hello carried an epoch ahead of ours: the federation moved on
// without us (we are the resurrected stale node, or we slept through an
// election). Policy decides: fence out forever, or adopt the new epoch
// and re-home to its leader as a spoke.
void FailoverMesh::react_to_newer_epoch(u64 now_ns) {
  u64 observed = 0;
  u32 observed_rank = 0;
  for (const Peer& p : peers_) {
    if (p.link->observed_epoch() > observed) {
      observed = p.link->observed_epoch();
      observed_rank = p.link->observed_rank();
    }
  }
  if (observed <= epoch_) return;
  if (cfg_.stale_fatal) {
    fence(now_ns);
    return;
  }
  for (Peer& p : peers_) capture_handoff(p);
  retire_links();
  epoch_ = observed;
  if (observed_rank == cfg_.rank) {
    // Degenerate (a peer claims we lead an epoch we never saw); take the
    // leadership it expects rather than deadlocking.
    promote(now_ns, /*resumed=*/true);
    return;
  }
  rehome(observed_rank, now_ns, /*rejoin=*/true);
}

void FailoverMesh::start_probe(u64 now_ns) {
  role_ = Role::kProbing;
  const u32 timeout_ms = cfg_.probe_timeout_ms != 0
                             ? cfg_.probe_timeout_ms
                             : 2 * cfg_.election_timeout_ms;
  probe_deadline_ns_ = now_ns + static_cast<u64>(timeout_ms) * kMsNs;
  // Dial every other rank's listener-for-us. Only a rank currently
  // LEADING accepts on that socket, and its hello carries its epoch: a
  // higher one triggers the stale reaction, silence means the federation
  // never elected past us.
  for (u32 r = 0; r < cfg_.num_nodes; ++r) {
    if (r == cfg_.rank) continue;
    Peer p;
    p.rank = r;
    p.link = std::make_unique<PeerLink>(
        federation_link(cfg_, /*listener=*/false, r, epoch_), fault_, gateway_);
    peers_.push_back(std::move(p));
  }
}

// ---- Steady-state pumping ------------------------------------------------

void FailoverMesh::publish_once(Input in) {
  if (!seen_hashes_.insert(fnv1a64(in)).second) {
    fstats_.dup_suppressed++;
    return;
  }
  inner_->publish(gateway_, std::move(in));
}

void FailoverMesh::export_gated(Peer& p, const Input& in) {
  // The oracle verdict also advances the remote model: a shipped entry is
  // coverage the peer now has, a rejected one is coverage it already had.
  if (p.oracle != nullptr && !p.oracle->admit(in)) return;
  (void)p.link->offer(in);
}

void FailoverMesh::ship_deltas(Peer& p, bool full) {
  if (my_oracle_ == nullptr) return;
  const std::vector<corpus::OracleDelta> deltas =
      full ? my_oracle_->export_full() : my_oracle_->export_delta();
  for (corpus::OracleDelta d : deltas) {
    d.epoch = epoch_;
    Input blob = corpus::encode_oracle_delta(d);
    journal_delta(blob);
    if (p.link->offer_delta(std::move(blob))) fstats_.deltas_shipped++;
  }
}

void FailoverMesh::pump_leader(u64 now_ns) {
  // Export: local finds plus anything carried across the epoch boundary,
  // each gated by the per-peer model.
  for (Input& in : inner_->fetch_new(gateway_)) {
    seen_hashes_.insert(fnv1a64(in));
    for (Peer& p : peers_) export_gated(p, in);
  }
  for (Input& in : pending_broadcast_) {
    for (Peer& p : peers_) export_gated(p, in);
  }
  pending_broadcast_.clear();
  for (Peer& p : peers_) p.link->pump(now_ns);
  for (usize i = 0; i < peers_.size(); ++i) {
    for (Input& in : peers_[i].link->take_received()) {
      // The spoke's delta stream keeps its model fresh; unlike MeshHub,
      // the hub does NOT execute received entries against the source
      // model — that is the executor load delta sync removes.
      for (usize j = 0; j < peers_.size(); ++j) {
        if (j != i) export_gated(peers_[j], in);
      }
      publish_once(std::move(in));
    }
    for (Input& blob : peers_[i].link->take_received_deltas()) {
      corpus::OracleDelta d;
      if (!corpus::decode_oracle_delta(blob, &d)) continue;
      if (peers_[i].oracle != nullptr && peers_[i].oracle->apply_delta(d)) {
        fstats_.deltas_applied++;
        journal_delta(blob);
      }
    }
  }
}

void FailoverMesh::pump_follower(u64 now_ns) {
  Peer& p = peers_[0];
  for (Input& in : inner_->fetch_new(gateway_)) {
    seen_hashes_.insert(fnv1a64(in));
    // Gate exports on our own federation model: what the model already
    // knows, the federation has already seen through this node.
    if (my_oracle_ == nullptr || my_oracle_->admit(in)) {
      (void)p.link->offer(std::move(in));
    }
  }
  if (my_oracle_ != nullptr && cfg_.delta_interval_ms != 0 &&
      now_ns - last_delta_ns_ >=
          static_cast<u64>(cfg_.delta_interval_ms) * kMsNs) {
    last_delta_ns_ = now_ns;
    ship_deltas(p, /*full=*/false);
  }
  p.link->pump(now_ns);
  if (p.link->connected()) last_leader_seen_ns_ = now_ns;
  for (Input& in : p.link->take_received()) {
    // Fold receipts into our model (they are now coverage we have), then
    // publish exactly once across all epochs.
    if (my_oracle_ != nullptr) (void)my_oracle_->admit(in);
    publish_once(std::move(in));
  }
  for (Input& blob : p.link->take_received_deltas()) {
    // Not part of the leader->spoke protocol today, but applying is
    // idempotent and strictly informative.
    corpus::OracleDelta d;
    if (my_oracle_ != nullptr && corpus::decode_oracle_delta(blob, &d)) {
      (void)my_oracle_->apply_delta(d);
    }
  }
  const bool gave_up = p.link->stats().gave_up;
  if (gave_up || now_ns - last_leader_seen_ns_ >
                     static_cast<u64>(cfg_.election_timeout_ms) * kMsNs) {
    elect(now_ns);
  }
}

void FailoverMesh::pump_probe(u64 now_ns) {
  for (Peer& p : peers_) p.link->pump(now_ns);
  // A probe that ESTABLISHES at our own epoch means that rank still leads
  // the epoch we remember — adopt it as leader and re-home for real (the
  // probe link is at the right epoch but has not shipped our state).
  for (Peer& p : peers_) {
    if (p.link->connected()) {
      const u32 r = p.rank;
      retire_links();
      rehome(r, now_ns, /*rejoin=*/false);
      fstats_.rehomes--;  // a probe resolution, not a new failover
      return;
    }
  }
  if (now_ns >= probe_deadline_ns_) {
    // Silence everywhere: no newer epoch exists. Resume the journaled
    // role at the journaled epoch.
    retire_links();
    if (leader_ == cfg_.rank) {
      promote(now_ns, /*resumed=*/true);
    } else {
      rehome(leader_, now_ns, /*rejoin=*/false);
      journal_epoch(static_cast<u8>(persist::EpochReason::kResumed));
    }
  }
}

void FailoverMesh::pump(u64 now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (role_ == Role::kFenced) return;
  if (!started_) {
    started_ = true;
    journal_epoch(static_cast<u8>(persist::EpochReason::kInit));
    if (cfg_.resume_probe) {
      start_probe(now_ns);
    } else if (leader_ == cfg_.rank) {
      promote(now_ns, /*resumed=*/false);
      fstats_.promotions--;  // founding leadership, not a failover win
    } else {
      rehome(leader_, now_ns, /*rejoin=*/false);
      fstats_.rehomes--;  // founding membership, not a failover
    }
  }
  react_to_newer_epoch(now_ns);
  if (role_ == Role::kFenced) return;
  switch (role_) {
    case Role::kLeader: pump_leader(now_ns); break;
    case Role::kFollower: pump_follower(now_ns); break;
    case Role::kProbing: pump_probe(now_ns); break;
    case Role::kFenced: break;
  }
}

void FailoverMesh::shutdown(u64 now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_ || role_ == Role::kFenced || role_ == Role::kProbing) {
    retire_links();
    return;
  }
  // One last export sweep so finds from the final sync interval still
  // reach the federation before the goodbyes.
  if (role_ == Role::kLeader) {
    for (Input& in : inner_->fetch_new(gateway_)) {
      seen_hashes_.insert(fnv1a64(in));
      for (Peer& p : peers_) export_gated(p, in);
    }
  } else if (!peers_.empty()) {
    for (Input& in : inner_->fetch_new(gateway_)) {
      seen_hashes_.insert(fnv1a64(in));
      if (my_oracle_ == nullptr || my_oracle_->admit(in)) {
        (void)peers_[0].link->offer(std::move(in));
      }
    }
    ship_deltas(peers_[0], /*full=*/false);
  }
  for (Peer& p : peers_) p.link->shutdown(now_ns);
  // Entries that arrived during the drain still reach local workers.
  for (Peer& p : peers_) {
    for (Input& in : p.link->take_received()) {
      if (role_ == Role::kFollower && my_oracle_ != nullptr) {
        (void)my_oracle_->admit(in);
      }
      publish_once(std::move(in));
    }
  }
}

FailoverStats FailoverMesh::failover_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  FailoverStats s = fstats_;
  s.epoch = epoch_;
  s.role = static_cast<u32>(role_);
  s.leader_rank = leader_;
  s.net = net_carried_;
  s.oracle = oracle_carried_;
  for (const Peer& p : peers_) {
    s.net += p.link->stats();
    if (p.oracle != nullptr) s.oracle += p.oracle->stats();
  }
  if (my_oracle_ != nullptr) s.oracle += my_oracle_->stats();
  return s;
}

}  // namespace bigmap::netfleet
