// failover_drill: driver for the self-healing federation chaos drill
// (scripts/failover_chaos_drill.sh). One fixed campaign shape — 8 workers
// over a planted-bug target, deterministic timing — arranged either as one
// local fleet or as a 4-rank failover federation (2 workers per rank, the
// virgin-map oracle gating every link, delta sync on):
//
//   failover_drill single <dir>          one 8-worker fleet, no network —
//                                        the reference find-union and exec
//                                        total every other stage must match
//   failover_drill star4 <dir>           4-rank federation, clean network,
//                                        no failures: epoch stays 1, delta
//                                        sync carries the oracle state
//   failover_drill failover-kill <dir>   rank 0 (the initial leader) is
//                                        SIGKILLed -- whole process group,
//                                        coordinator and workers --
//                                        mid-campaign; the survivors elect
//                                        rank 1 into epoch 2 and re-home;
//                                        the victim is relaunched (resume +
//                                        probe) and REJOINS the new epoch
//                                        as a spoke, finishing its budget
//   failover_drill failover-stale <dir>  same kill, but the victim comes
//                                        back stale-fatal: it must observe
//                                        the newer epoch and latch fenced
//                                        (never re-entering the
//                                        federation), while its local
//                                        fleet still completes its budget
//   failover-drill failover-storm <dir>  the kill plus a seeded network
//                                        storm (drops, delays, torn
//                                        frames, resets) on the survivors
//                                        while they elect
//
// Every stage prints sorted found_bug_ids / found_stack_hashes,
// total_execs, and all_completed in the same diff-friendly format as
// net_drill; failover diagnostics go to stderr. Chaos stages self-check
// that the failure actually engaged (elections fired, the epoch advanced,
// deltas rebuilt the models, the stale node fenced) and exit non-zero when
// the drill proved nothing.
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

// Per-rank fleet shape. The single baseline runs 8 workers from seed 501;
// rank r runs 2 workers from seed 501 + 2r, so the union of campaign
// seeds across the federation is exactly the baseline's set {501..508} at
// the same total exec budget. work_per_block stretches the campaign so
// the kill demonstrably lands mid-run and the survivors' election (about
// kill + election_timeout_ms, 1.5 s in) leaves them time to sync deltas
// before they finish: at 300 the ranks could finish ~30 ms after it.
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
  fc.base.work_per_block = 600;
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

// The election storm: sustained frame loss and delay plus torn frames and
// abrupt resets — but NO partition. A partition outlasting
// election_timeout_ms is documented to cause a spurious election (the
// spoke cannot distinguish a cut from a dead leader); the storm stage
// proves elections survive a hostile wire, not that contract.
FaultPlan make_storm_plan() {
  FaultPlan plan;
  plan.rates.push_back({FaultSite::kNetDrop, 100000, FaultRate::kAllInstances});
  plan.rates.push_back(
      {FaultSite::kNetDelay, 80000, FaultRate::kAllInstances});
  plan.triggers.push_back({FaultSite::kNetShortWrite, 2, 3});
  plan.triggers.push_back({FaultSite::kNetConnReset, 2, 60});
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

void print_failover_diag(usize rank, const NodeReport& r) {
  const FailoverStats& f = r.failover;
  std::fprintf(
      stderr,
      "[rank-%zu] epoch=%llu role=%u leader=%u elections=%llu "
      "promotions=%llu rehomes=%llu rejoins=%llu fenced=%llu "
      "handoff=%llu dups=%llu deltas_shipped=%llu deltas_applied=%llu "
      "net: sent=%llu recv=%llu d_sent=%llu d_recv=%llu resyncs=%llu "
      "resync_skipped=%llu stale_hellos=%llu ahead_seen=%llu "
      "reconnects=%llu oracle: checked=%llu applied_cells=%llu\n",
      rank, static_cast<unsigned long long>(f.epoch), f.role, f.leader_rank,
      static_cast<unsigned long long>(f.elections),
      static_cast<unsigned long long>(f.promotions),
      static_cast<unsigned long long>(f.rehomes),
      static_cast<unsigned long long>(f.rejoins),
      static_cast<unsigned long long>(f.fenced),
      static_cast<unsigned long long>(f.handoff_reoffered),
      static_cast<unsigned long long>(f.dup_suppressed),
      static_cast<unsigned long long>(f.deltas_shipped),
      static_cast<unsigned long long>(f.deltas_applied),
      static_cast<unsigned long long>(r.net.records_sent),
      static_cast<unsigned long long>(r.net.records_received),
      static_cast<unsigned long long>(r.net.deltas_sent),
      static_cast<unsigned long long>(r.net.deltas_received),
      static_cast<unsigned long long>(r.net.resyncs_sent),
      static_cast<unsigned long long>(r.net.resync_skipped),
      static_cast<unsigned long long>(r.net.stale_hellos_dropped),
      static_cast<unsigned long long>(r.net.epoch_ahead_seen),
      static_cast<unsigned long long>(r.net.reconnects),
      static_cast<unsigned long long>(r.oracle.checked),
      static_cast<unsigned long long>(r.oracle.cells_applied));
}

int run_drill(const GeneratedTarget& target,
              const std::vector<Input>& seeds, const std::string& mode,
              const std::string& dir) {
  constexpr usize kRanks = 4;
  std::vector<ProcFleetConfig> nodes;
  for (usize i = 0; i < kRanks; ++i) {
    nodes.push_back(
        make_config(dir + "/r" + std::to_string(i), 2, 501 + 2 * i));
  }
  for (ProcFleetConfig& fc : nodes) {
    fc.net_virgin_oracle = true;  // delta sync needs per-peer models
    fc.federation.link.heartbeat_ms = 20;
    fc.federation.link.peer_timeout_ms = 400;
    fc.federation.link.reconnect_initial_ms = 5;
    fc.federation.link.reconnect_cap_ms = 100;
    fc.federation.election_timeout_ms = 600;
    fc.federation.delta_interval_ms = 30;
  }

  FederationPlan plan;
  plan.failover = true;
  if (mode != "star4") {
    plan.kill_rank = 0;  // the initial leader
    plan.kill_after_ms = 900;
    plan.resurrect_after_ms = 600;
    plan.resurrect = mode == "failover-stale"
                         ? FederationPlan::Resurrect::kStale
                         : FederationPlan::Resurrect::kRejoin;
  }
  if (mode == "failover-storm") {
    // Seeded chaos on the survivors' gateways while they detect the death
    // and elect; decorrelated seeds so the ranks fail at different times.
    for (usize i = 1; i < kRanks; ++i) {
      nodes[i].fault_enabled = true;
      nodes[i].fault_seed = 920 + i;
      nodes[i].fault_plan = make_storm_plan();
    }
  }

  FederationResult fr = run_federation(target.program, seeds, nodes, plan);
  if (!fr.ok) {
    std::fprintf(stderr, "failover_drill: %s\n", fr.error.c_str());
    return 1;
  }

  u64 elections = 0, promotions = 0, deltas_applied = 0, records = 0;
  u64 max_epoch = 0, injected = 0;
  for (usize i = 0; i < fr.nodes.size(); ++i) {
    const NodeReport& r = fr.nodes[i];
    print_failover_diag(i, r);
    elections += r.failover.elections;
    promotions += r.failover.promotions;
    deltas_applied += r.failover.deltas_applied;
    records += r.net.records_sent;
    max_epoch = std::max(max_epoch, r.failover.epoch);
    injected += r.net.injected_drops + r.net.injected_delays +
                r.net.injected_short_writes + r.net.injected_resets;
  }
  print_union(fr.found_bug_ids, fr.found_stack_hashes, fr.total_execs,
              fr.all_completed);

  // Self-checks: each stage must prove what it claims.
  if (records == 0) {
    std::fprintf(stderr, "failover_drill: no corpus exchange happened\n");
    return 3;
  }
  if (deltas_applied == 0) {
    std::fprintf(stderr, "failover_drill: delta sync never engaged\n");
    return 3;
  }
  if (mode == "star4") {
    if (elections != 0 || max_epoch != 1) {
      std::fprintf(stderr,
                   "failover_drill: clean run elected (epoch=%llu)\n",
                   static_cast<unsigned long long>(max_epoch));
      return 3;
    }
  } else {
    if (elections == 0 || promotions == 0 || max_epoch < 2) {
      std::fprintf(stderr,
                   "failover_drill: the kill forced no election "
                   "(elections=%llu promotions=%llu epoch=%llu)\n",
                   static_cast<unsigned long long>(elections),
                   static_cast<unsigned long long>(promotions),
                   static_cast<unsigned long long>(max_epoch));
      return 3;
    }
    const FailoverStats& victim = fr.nodes[0].failover;
    if (mode == "failover-stale") {
      // The resurrected stale leader must have latched fenced (role 3),
      // never rejoining — and still completed its local budget.
      if (victim.fenced != 1 || victim.role != 3) {
        std::fprintf(stderr,
                     "failover_drill: stale leader not fenced "
                     "(fenced=%llu role=%u)\n",
                     static_cast<unsigned long long>(victim.fenced),
                     victim.role);
        return 3;
      }
    } else {
      // Rejoin modes: the victim must have re-entered the NEW epoch.
      if (victim.rejoins == 0 || victim.epoch < 2 || victim.fenced != 0) {
        std::fprintf(stderr,
                     "failover_drill: victim never rejoined "
                     "(rejoins=%llu epoch=%llu)\n",
                     static_cast<unsigned long long>(victim.rejoins),
                     static_cast<unsigned long long>(victim.epoch));
        return 3;
      }
    }
    if (mode == "failover-storm" && injected == 0) {
      std::fprintf(stderr, "failover_drill: storm injected no faults\n");
      return 3;
    }
  }
  return fr.all_completed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  const std::string dir = argc > 2 ? argv[2] : "";
  const bool known = mode == "single" || mode == "star4" ||
                     mode == "failover-kill" || mode == "failover-stale" ||
                     mode == "failover-storm";
  if (!known || dir.empty()) {
    std::fprintf(stderr,
                 "usage: failover_drill single <dir>\n"
                 "       failover_drill star4 <dir>\n"
                 "       failover_drill failover-kill <dir>\n"
                 "       failover_drill failover-stale <dir>\n"
                 "       failover_drill failover-storm <dir>\n");
    return 2;
  }

  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);

  if (mode == "single") {
    ProcFleetConfig fc = make_config(dir, 8, 501);
    ProcFleetResult r = run_process_fleet(target.program, seeds, fc);
    print_union(r.found_bug_ids, r.found_stack_hashes, r.total_execs,
                r.all_completed());
    return r.all_completed() ? 0 : 1;
  }
  return run_drill(target, seeds, mode, dir);
}
