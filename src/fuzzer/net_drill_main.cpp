// net_drill: driver for the federated network-chaos drill
// (scripts/net_chaos_drill.sh). Modes over one fixed campaign shape —
// 4 worker processes, planted-bug target, deterministic timing — arranged
// either as one local fleet or as two federated coordinator processes
// (2 workers each) joined by a loopback PeerLink:
//
//   net_drill single <dir>          one 4-worker fleet, no network — the
//                                   reference find-union and exec total
//   net_drill pair <dir>            federated pair, clean network
//   net_drill pair-storm <dir>      federated pair under the full network
//                                   storm: seeded frame drops, delays,
//                                   torn-frame short writes, connection
//                                   resets, and a partition (campaign
//                                   stretched so the partition fires) —
//                                   the federation union must still match
//                                   the single fleet exactly
//   net_drill pair-partition <dir>  federated pair with a long
//                                   mid-campaign partition-and-heal: both
//                                   sides keep fuzzing on local sync
//                                   during the cut, reconcile on heal
//
// Star (3-rank) modes over a 6-worker budget, with the virgin-map
// novelty oracle gating every gateway link. Pair and star are one code
// path: a 2-rank or 3-rank run_federation around rank 0.
//
//   net_drill single-wide <dir>     one 6-worker fleet, no network — the
//                                   reference for the star modes
//   net_drill star <dir>            hub (2 workers) + 2 spokes (2 workers
//                                   each), clean network; the merged
//                                   find-union must match single-wide
//   net_drill star-storm <dir>      the same star under the network storm
//                                   on the hub's links
//
// Every mode prints sorted found_bug_ids / found_stack_hashes,
// total_execs, and all_completed in the same diff-friendly format as
// fleet_drill; link diagnostics go to stderr. The chaos modes self-check
// that the storm actually engaged (injected faults, reconnects) and exit
// non-zero if the network never hurt.
#include <algorithm>
#include <cstdio>
#include <string>

#include "fuzzer/netfleet/federate.h"
#include "fuzzer/procfleet/coordinator.h"
#include "target/generator.h"

using namespace bigmap;
using namespace bigmap::procfleet;
using namespace bigmap::netfleet;

namespace {

GeneratedTarget make_target() {
  GeneratorParams gp;
  gp.seed = 33;
  gp.live_blocks = 200;
  gp.num_bugs = 3;
  gp.bug_min_depth = 1;
  gp.bug_max_depth = 1;
  return generate_target(gp);
}

// The per-coordinator fleet shape. The single baseline runs it with 4
// workers and base seed 501; the federated halves run 2 workers each with
// base seeds 501 (A) and 503 (B), so the union of campaign seeds across
// the federation is exactly the baseline's set {501..504}.
ProcFleetConfig make_config(const std::string& dir, u32 workers, u64 seed) {
  ProcFleetConfig fc;
  fc.num_workers = workers;
  fc.base.scheme = MapScheme::kTwoLevel;
  fc.base.map.map_size = 1u << 16;
  fc.base.map.huge_pages = false;
  fc.base.max_execs = 10000;
  fc.base.seed = seed;
  fc.base.sync_interval = 1024;
  fc.base.deterministic_timing = true;
  fc.poll_ms = 2;
  fc.stall_deadline_ms = 600;
  fc.max_restarts_per_worker = 10;
  fc.backoff_initial_ms = 5;
  fc.backoff_cap_ms = 50;
  fc.checkpoint_interval = 512;
  fc.persist_dir = dir;
  fc.quarantine_deaths = 0;  // equality drill: no degraded parking
  return fc;
}

// The network storm: sustained frame loss and delay on every gateway, plus
// deterministic torn-frame short writes, abrupt resets, and one partition
// per side. All seeded — the schedule replays identically.
FaultPlan make_net_storm_plan() {
  FaultPlan plan;
  // ~15% of entry frames vanish in flight; ~10% are deferred a pump.
  plan.rates.push_back(
      {FaultSite::kNetDrop, 150000, FaultRate::kAllInstances});
  plan.rates.push_back(
      {FaultSite::kNetDelay, 100000, FaultRate::kAllInstances});
  // Torn frames (write half, then die) early and mid-stream.
  plan.triggers.push_back({FaultSite::kNetShortWrite, 2, 1});
  plan.triggers.push_back({FaultSite::kNetShortWrite, 2, 4});
  // Abrupt RSTs: checked once per connected pump.
  plan.triggers.push_back({FaultSite::kNetConnReset, 2, 40});
  plan.triggers.push_back({FaultSite::kNetConnReset, 2, 200});
  // One short partition in the middle of the storm.
  plan.triggers.push_back({FaultSite::kNetPartition, 2, 120});
  return plan;
}

// The partition drill: a single long cut, no other interference, landing
// mid-campaign so both sides demonstrably keep fuzzing through it.
FaultPlan make_partition_plan() {
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kNetPartition, 2, 60});
  return plan;
}

void print_union(const std::vector<u32>& bugs_in,
                 const std::vector<u64>& hashes_in, u64 execs,
                 bool completed) {
  std::vector<u32> bugs = bugs_in;
  std::sort(bugs.begin(), bugs.end());
  std::vector<u64> hashes = hashes_in;
  std::sort(hashes.begin(), hashes.end());
  std::printf("bug_ids:");
  for (u32 b : bugs) std::printf(" %u", b);
  std::printf("\nstack_hashes:");
  for (u64 h : hashes) {
    std::printf(" %llx", static_cast<unsigned long long>(h));
  }
  std::printf("\ntotal_execs: %llu\n", static_cast<unsigned long long>(execs));
  std::printf("all_completed: %d\n", completed ? 1 : 0);
  std::fflush(stdout);
}

void print_link_diag(const char* who, const LinkStats& n) {
  std::fprintf(
      stderr,
      "[%s] sent=%llu recv=%llu offered=%llu novelty_filtered=%llu "
      "dups=%llu ooo=%llu rewinds=%llu connects=%llu reconnects=%llu "
      "timeouts=%llu conn_errors=%llu drops=%llu delays=%llu "
      "short_writes=%llu resets=%llu partitions=%llu partition_ms=%llu "
      "lost_to_eviction=%llu bytes_tx=%llu bytes_rx=%llu\n",
      who, static_cast<unsigned long long>(n.records_sent),
      static_cast<unsigned long long>(n.records_received),
      static_cast<unsigned long long>(n.entries_offered),
      static_cast<unsigned long long>(n.novelty_filtered),
      static_cast<unsigned long long>(n.duplicates_dropped),
      static_cast<unsigned long long>(n.out_of_order_dropped),
      static_cast<unsigned long long>(n.rewinds),
      static_cast<unsigned long long>(n.connects),
      static_cast<unsigned long long>(n.reconnects),
      static_cast<unsigned long long>(n.heartbeat_timeouts),
      static_cast<unsigned long long>(n.conn_errors),
      static_cast<unsigned long long>(n.injected_drops),
      static_cast<unsigned long long>(n.injected_delays),
      static_cast<unsigned long long>(n.injected_short_writes),
      static_cast<unsigned long long>(n.injected_resets),
      static_cast<unsigned long long>(n.injected_partitions),
      static_cast<unsigned long long>(n.partition_ms_total),
      static_cast<unsigned long long>(n.lost_to_eviction),
      static_cast<unsigned long long>(n.bytes_sent),
      static_cast<unsigned long long>(n.bytes_received));
}

// Every federated mode: rank 0 leads, every rank runs 2 workers. Rank r
// starts at seed 501 + 2r, so the union of campaign seeds across the
// federation is exactly its single baseline's set at the same total exec
// budget.
int run_federated(const GeneratedTarget& target,
                  const std::vector<Input>& seeds, const std::string& mode,
                  const std::string& dir) {
  const bool star = mode == "star" || mode == "star-storm";
  const usize ranks = star ? 3 : 2;
  std::vector<ProcFleetConfig> nodes;
  for (usize i = 0; i < ranks; ++i) {
    ProcFleetConfig fc =
        make_config(dir + "/r" + std::to_string(i), 2, 501 + 2 * i);
    // Fast liveness so injected failures are detected and healed well
    // within the drill's runtime.
    fc.federation.link.heartbeat_ms = 20;
    fc.federation.link.peer_timeout_ms = 400;
    fc.federation.link.reconnect_initial_ms = 5;
    fc.federation.link.reconnect_cap_ms = 100;
    // Star: the virgin-map novelty gate on every gateway link (leader and
    // followers) — the drill doubles as proof the oracle never costs a
    // find.
    fc.net_virgin_oracle = star;
    nodes.push_back(fc);
  }

  if (mode == "pair-storm" || mode == "star-storm") {
    // The storm rides the leader's coordinator injector (shared occurrence
    // counters across its links) plus rank 1's own, decorrelated schedule,
    // so dialer-side failures fire too and the sides fail at different
    // times.
    for (usize i = 0; i < 2; ++i) {
      nodes[i].fault_enabled = true;
      nodes[i].fault_seed = 909 + i;
      nodes[i].fault_plan = make_net_storm_plan();
      nodes[i].federation.link.partition_ms = 300;
    }
    // Stretch the pair's campaign so it outlasts the partition trigger's
    // 120th connected pump.
    if (!star) {
      for (ProcFleetConfig& fc : nodes) fc.base.work_per_block = 400;
    }
  } else if (mode == "pair-partition") {
    // Only rank 0 cuts the link; rank 1 experiences the partition as a
    // peer timeout and keeps retrying into the void until the heal.
    nodes[0].fault_enabled = true;
    nodes[0].fault_seed = 911;
    nodes[0].fault_plan = make_partition_plan();
    nodes[0].federation.link.partition_ms = 1000;
    // Stretch the campaign so the cut demonstrably lands mid-run with
    // fuzzing continuing on both sides throughout.
    for (ProcFleetConfig& fc : nodes) fc.base.work_per_block = 400;
  }

  FederationResult fr = run_federation(target.program, seeds, nodes);
  if (!fr.ok) {
    std::fprintf(stderr, "net_drill: %s\n", fr.error.c_str());
    return 1;
  }
  LinkStats net;
  corpus::OracleStats oracle;
  for (usize i = 0; i < fr.nodes.size(); ++i) {
    const NodeReport& r = fr.nodes[i];
    const std::string who = "rank-" + std::to_string(i);
    print_link_diag(who.c_str(), r.net);
    std::fprintf(stderr,
                 "[%s] oracle checked=%llu accepted=%llu rejected=%llu\n",
                 who.c_str(),
                 static_cast<unsigned long long>(r.oracle.checked),
                 static_cast<unsigned long long>(r.oracle.accepted),
                 static_cast<unsigned long long>(r.oracle.rejected));
    net = sum_link_stats(net, r.net);
    oracle += r.oracle;
  }
  print_union(fr.found_bug_ids, fr.found_stack_hashes, fr.total_execs,
              fr.all_completed);

  // Self-checks: the exchange must have happened, and chaos modes must
  // have actually hurt the network (otherwise the drill proves nothing).
  if (net.records_sent == 0) {
    std::fprintf(stderr, "net_drill: no corpus exchange happened\n");
    return 3;
  }
  if (star) {
    if (oracle.checked == 0) {
      std::fprintf(stderr, "net_drill: the novelty oracle never engaged\n");
      return 3;
    }
    std::fprintf(stderr, "[star] oracle_reject_ratio=%.3f\n",
                 static_cast<double>(oracle.rejected) /
                     static_cast<double>(oracle.checked));
  }
  if (mode == "pair-storm" || mode == "star-storm") {
    const u64 injected = net.injected_drops + net.injected_delays +
                         net.injected_short_writes + net.injected_resets +
                         net.injected_partitions;
    if (injected == 0) {
      std::fprintf(stderr, "net_drill: storm injected no faults\n");
      return 3;
    }
    if (net.reconnects == 0) {
      std::fprintf(stderr, "net_drill: storm forced no reconnects\n");
      return 3;
    }
  }
  if (mode == "pair-partition" && net.injected_partitions == 0) {
    std::fprintf(stderr, "net_drill: no partition was injected\n");
    return 3;
  }
  return fr.all_completed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  const std::string dir = argc > 2 ? argv[2] : "";
  const bool known = mode == "single" || mode == "pair" ||
                     mode == "pair-storm" || mode == "pair-partition" ||
                     mode == "single-wide" || mode == "star" ||
                     mode == "star-storm";
  if (!known || dir.empty()) {
    std::fprintf(stderr,
                 "usage: net_drill single <dir>\n"
                 "       net_drill pair <dir>\n"
                 "       net_drill pair-storm <dir>\n"
                 "       net_drill pair-partition <dir>\n"
                 "       net_drill single-wide <dir>\n"
                 "       net_drill star <dir>\n"
                 "       net_drill star-storm <dir>\n");
    return 2;
  }

  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);

  if (mode == "single" || mode == "single-wide") {
    ProcFleetConfig fc =
        make_config(dir, mode == "single" ? 4 : 6, 501);
    ProcFleetResult r = run_process_fleet(target.program, seeds, fc);
    print_union(r.found_bug_ids, r.found_stack_hashes, r.total_execs,
                r.all_completed());
    return r.all_completed() ? 0 : 1;
  }

  return run_federated(target, seeds, mode, dir);
}
