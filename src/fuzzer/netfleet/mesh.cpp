#include "fuzzer/netfleet/mesh.h"

#include <utility>

namespace bigmap::netfleet {

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

void MeshHub::add_link(std::unique_ptr<PeerLink> link,
                       std::unique_ptr<corpus::NoveltyOracle> oracle) {
  std::lock_guard<std::mutex> lock(mu_);
  peers_.push_back(Peer{std::move(link), std::move(oracle)});
}

void MeshHub::export_to(Peer& peer, const Input& in) {
  // The oracle verdict also advances the remote model: a shipped entry is
  // coverage the peer now has, a rejected one is coverage it already had.
  if (peer.oracle != nullptr && !peer.oracle->admit(in)) return;
  peer.link->offer(in);
}

void MeshHub::export_local() {
  // fetch_new on the gateway id excludes the gateway's own imports, so
  // relayed entries are not re-exported here.
  for (Input& in : inner_->fetch_new(gateway_)) {
    for (Peer& p : peers_) export_to(p, in);
  }
}

void MeshHub::import_from(usize i, bool relay) {
  for (Input& in : peers_[i].link->take_received()) {
    // The source peer evidently has this entry: fold it into that peer's
    // remote model so we never ship its coverage back.
    if (peers_[i].oracle != nullptr) (void)peers_[i].oracle->admit(in);
    if (relay) {
      for (usize j = 0; j < peers_.size(); ++j) {
        if (j != i) export_to(peers_[j], in);
      }
    }
    inner_->publish(gateway_, std::move(in));
  }
}

void MeshHub::pump(u64 now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  export_local();
  for (Peer& p : peers_) p.link->pump(now_ns);
  // Accepted entries become local publishes under the gateway identity
  // AND are relayed to the other peers — the leader hop that makes a
  // star behave like a full mesh.
  for (usize i = 0; i < peers_.size(); ++i) import_from(i, /*relay=*/true);
}

void MeshHub::shutdown(u64 now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  // One last export sweep so finds from the final sync interval still
  // reach every peer before the goodbyes.
  export_local();
  for (Peer& p : peers_) p.link->shutdown(now_ns);
  // Entries that arrived during the drain still reach local workers; the
  // links are closed, so there is no relay for them anymore.
  for (usize i = 0; i < peers_.size(); ++i) import_from(i, /*relay=*/false);
}

FailoverStats MeshHub::failover_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  FailoverStats s;
  for (const Peer& p : peers_) {
    s.net += p.link->stats();
    if (p.oracle != nullptr) s.oracle += p.oracle->stats();
  }
  return s;
}

}  // namespace bigmap::netfleet
