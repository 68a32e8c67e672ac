#include "fuzzer/netfleet/gateway.h"

#include <algorithm>
#include <utility>

#include "persist/federation.h"
#include "util/hash.h"

namespace bigmap::netfleet {
namespace {

constexpr u64 kMsNs = 1'000'000ull;

// With failover off the founding leader is pinned: the self-healing
// fields mean nothing, so they are cleared up front.
FederationConfig pinned(FederationConfig cfg) {
  if (!cfg.failover) {
    cfg.resume_probe = false;
    cfg.stale_fatal = false;
    cfg.wal_path.clear();
  }
  return cfg;
}

}  // namespace

void publish(const FailoverStats& s, telemetry::MetricRegistry& reg) {
  for_each_prefixed_field(
      s, {"failover.", "netfleet.", "oracle."},
      [&reg](const std::string& key, auto v) { reg.gauge(key).set(v); });
}

NetPeerConfig federation_link(const FederationConfig& cfg, bool listener,
                              u32 remote_rank, u64 epoch) {
  NetPeerConfig c = cfg.link;
  c.epoch = epoch;
  c.rank = cfg.rank;
  c.listener = listener;
  if (listener) {
    c.listen_fd = remote_rank < cfg.listen_fds.size()
                      ? cfg.listen_fds[remote_rank]
                      : -1;
    c.port = 0;
  } else {
    c.listen_fd = -1;
    c.port = remote_rank < cfg.dial_ports.size()
                 ? cfg.dial_ports[remote_rank]
                 : 0;
  }
  return c;
}

Gateway::Gateway(SyncEndpoint* inner, u32 gateway_instance,
                 FederationConfig cfg, OracleFactory factory,
                 FaultInjector* fault)
    : inner_(inner),
      gateway_(gateway_instance),
      cfg_(pinned(std::move(cfg))),
      factory_(std::move(factory)),
      fault_(fault),
      epoch_(std::max<u64>(cfg_.initial_epoch, 1)),
      leader_(cfg_.initial_leader) {
  my_oracle_ = make_model();
  load_wal();
}

std::unique_ptr<corpus::NoveltyOracle> Gateway::make_model() const {
  return factory_ ? factory_() : nullptr;
}

// ---- Journal -------------------------------------------------------------

void Gateway::load_wal() {
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

void Gateway::journal_epoch(u8 reason) {
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

void Gateway::journal_delta(const Input& blob) {
  if (!wal_) return;
  std::string err;
  (void)wal_->append(persist::RecordType::kVirginDelta,
                     [&](persist::PayloadWriter& w) { w.put_bytes(blob); },
                     &err);
}

// ---- Role transitions ----------------------------------------------------

void Gateway::start_locked(u64 now_ns) {
  if (started_) return;
  started_ = true;
  journal_epoch(static_cast<u8>(persist::EpochReason::kInit));
  if (cfg_.resume_probe) {
    start_probe(now_ns);
  } else if (leader_ == cfg_.rank) {
    promote(/*resumed=*/false);
    fstats_.promotions--;  // founding leadership, not a failover win
  } else {
    rehome(leader_, now_ns, /*rejoin=*/false);
    fstats_.rehomes--;  // founding membership, not a failover
  }
}

// Queues the unacked suffix of a link about to be retired for re-offer in
// the next epoch, so nothing the dead leader never acked is lost.
void Gateway::capture_handoff(Peer& p) {
  for (OutRecord& rec : p.link->unacked_records()) {
    // Delta records are not carried: re-homing ships a fresh full state.
    if (rec.kind == OutRecord::kEntry) {
      fstats_.handoff_reoffered++;
      pending_broadcast_.push_back(std::move(rec.data));
    }
  }
}

void Gateway::promote(bool resumed) {
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
}

void Gateway::rehome(u32 new_leader, u64 now_ns, bool rejoin) {
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
  journal_epoch(static_cast<u8>(rejoin ? persist::EpochReason::kRejoin
                                       : persist::EpochReason::kElected));
  // The leader's model of us starts empty: seed it with everything we
  // provably know, without it executing anything — full state first,
  // then the entries the dead leader never acked.
  ship_full_state(peers_[0]);
  for (Input& in : pending_broadcast_) {
    (void)peers_[0].link->offer(std::move(in));
  }
  pending_broadcast_.clear();
}

// Folds the stats of every current link/model into the carried totals and
// destroys the links — re-homing must not erase the old epoch's accounting.
void Gateway::retire_links() {
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
void Gateway::elect(u64 now_ns) {
  fstats_.elections++;
  for (Peer& p : peers_) capture_handoff(p);
  retire_links();
  const u32 successor = (leader_ + 1) % cfg_.num_nodes;
  epoch_ += 1;
  if (successor == cfg_.rank) {
    promote(/*resumed=*/false);
  } else {
    rehome(successor, now_ns, /*rejoin=*/false);
  }
}

void Gateway::fence() {
  role_ = Role::kFenced;
  fstats_.fenced = 1;
  retire_links();
  journal_epoch(static_cast<u8>(persist::EpochReason::kFenced));
}

// A peer hello carried an epoch ahead of ours: the federation moved on
// without us (we are the resurrected stale node, or we slept through an
// election). Policy decides: fence out forever, or adopt the new epoch
// and re-home to its leader as a spoke.
void Gateway::react_to_newer_epoch(u64 now_ns) {
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
    fence();
    return;
  }
  for (Peer& p : peers_) capture_handoff(p);
  retire_links();
  epoch_ = observed;
  if (observed_rank == cfg_.rank) {
    // Degenerate (a peer claims we lead an epoch we never saw); take the
    // leadership it expects rather than deadlocking.
    promote(/*resumed=*/true);
    return;
  }
  rehome(observed_rank, now_ns, /*rejoin=*/true);
}

void Gateway::start_probe(u64 now_ns) {
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

corpus::NoveltyOracle* Gateway::model_of(usize i) const {
  return role_ == Role::kLeader ? peers_[i].oracle.get() : my_oracle_.get();
}

void Gateway::publish_once(Input in) {
  if (!seen_hashes_.insert(fnv1a64(in)).second) {
    fstats_.dup_suppressed++;
    return;
  }
  inner_->publish(gateway_, std::move(in));
}

void Gateway::export_to(usize i, const Input& in) {
  // The oracle verdict also advances the model: a shipped entry is
  // coverage the peer now has, a rejected one is coverage it already had.
  corpus::NoveltyOracle* model = model_of(i);
  if (model != nullptr && !model->admit(in)) return;
  (void)peers_[i].link->offer(in);
}

void Gateway::export_local() {
  // fetch_new on the gateway id excludes the gateway's own imports, so
  // relayed entries are not re-exported here.
  for (Input& in : inner_->fetch_new(gateway_)) {
    seen_hashes_.insert(fnv1a64(in));
    for (usize i = 0; i < peers_.size(); ++i) export_to(i, in);
  }
  for (Input& in : pending_broadcast_) {
    for (usize i = 0; i < peers_.size(); ++i) export_to(i, in);
  }
  pending_broadcast_.clear();
}

void Gateway::import_from(usize i, bool relay) {
  corpus::NoveltyOracle* model = model_of(i);
  // A (re)homed follower's full-state seed rides ahead of its entries, so
  // it lands in the leader's fresh model first.
  for (Input& blob : peers_[i].link->take_received_deltas()) {
    corpus::OracleDelta d;
    if (model != nullptr && corpus::decode_oracle_delta(blob, &d) &&
        model->apply_delta(d)) {
      fstats_.deltas_applied++;
      journal_delta(blob);
    }
  }
  for (Input& in : peers_[i].link->take_received()) {
    // The source peer evidently has this entry: fold it into its model so
    // its coverage is never shipped back.
    if (model != nullptr) (void)model->admit(in);
    if (relay) {
      for (usize j = 0; j < peers_.size(); ++j) {
        if (j != i) export_to(j, in);
      }
    }
    publish_once(std::move(in));
  }
}

void Gateway::ship_full_state(Peer& p) {
  if (my_oracle_ == nullptr) return;
  for (corpus::OracleDelta d : my_oracle_->export_full()) {
    d.epoch = epoch_;
    Input blob = corpus::encode_oracle_delta(d);
    journal_delta(blob);
    if (p.link->offer_delta(std::move(blob))) fstats_.deltas_shipped++;
  }
}

void Gateway::exchange(u64 now_ns) {
  export_local();
  for (Peer& p : peers_) p.link->pump(now_ns);
  // Accepted entries become local publishes under the gateway identity
  // AND are relayed to the other peers — the leader hop that makes a
  // star behave like a full mesh.
  for (usize i = 0; i < peers_.size(); ++i) import_from(i, /*relay=*/true);
}

void Gateway::pump_follower(u64 now_ns) {
  exchange(now_ns);
  const PeerLink& link = *peers_[0].link;
  if (link.connected()) last_leader_seen_ns_ = now_ns;
  if (!cfg_.failover) return;  // the founding leader is pinned
  if (link.stats().gave_up ||
      now_ns - last_leader_seen_ns_ >
          static_cast<u64>(cfg_.election_timeout_ms) * kMsNs) {
    elect(now_ns);
  }
}

void Gateway::pump_probe(u64 now_ns) {
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
      promote(/*resumed=*/true);
    } else {
      rehome(leader_, now_ns, /*rejoin=*/false);
      journal_epoch(static_cast<u8>(persist::EpochReason::kResumed));
    }
  }
}

std::string Gateway::start(u64 now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  start_locked(now_ns);
  for (const Peer& p : peers_) {
    if (!p.link->ok()) return p.link->error();
  }
  return {};
}

void Gateway::pump(u64 now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  start_locked(now_ns);
  react_to_newer_epoch(now_ns);
  switch (role_) {
    case Role::kLeader: exchange(now_ns); break;
    case Role::kFollower: pump_follower(now_ns); break;
    case Role::kProbing: pump_probe(now_ns); break;
    case Role::kFenced: break;
  }
}

void Gateway::shutdown(u64 now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_ || role_ == Role::kFenced || role_ == Role::kProbing) {
    retire_links();
    return;
  }
  // One last export sweep so finds from the final sync interval still
  // reach the federation before the goodbyes.
  export_local();
  for (Peer& p : peers_) p.link->shutdown(now_ns);
  // Entries that arrived during the drain still reach local workers; the
  // links are closed, so there is no relay for them anymore.
  for (usize i = 0; i < peers_.size(); ++i) import_from(i, /*relay=*/false);
}

FailoverStats Gateway::failover_stats() const {
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
