// Federation harness: runs an N-rank federation of process-fleet
// coordinators, each in its own forked process group on loopback, and
// merges their results.
//
// This is how the net and failover chaos drills build "N hosts" on one
// machine: each rank is a full run_process_fleet (its own shm segment,
// workers, persistence, chaos schedule); the only shared state is the
// sockets. The parent binds every listener before forking, so every rank
// knows every port with no handshake file; each child reports its result
// over a pipe as plain key-value text, and the parent computes the
// federation union — found bugs, stack hashes, exec totals — which the
// drills compare against a single-fleet baseline.
#pragma once

#include <string>
#include <vector>

#include "fuzzer/procfleet/coordinator.h"
#include "target/program.h"

namespace bigmap::netfleet {

// One rank's reported outcome (parsed from its pipe). `failover` carries
// the gateway accounting: `failover.net` the link counters summed over the
// rank's links (the per-link cursor and state fields are not reported),
// `failover.oracle` the novelty-oracle accounting (zeroed when the oracle
// was off) and the election counters (zeroed without failover).
struct NodeReport {
  bool ok = false;
  std::string error;
  std::vector<u32> bug_ids;
  std::vector<u64> stack_hashes;
  u64 total_execs = 0;
  u64 total_interesting = 0;
  u64 total_crashes = 0;
  bool all_completed = false;
  FailoverStats failover;
};

// Chaos for one run: which rank to SIGKILL (whole process group:
// coordinator + its workers), when, and whether/how it comes back.
struct FederationPlan {
  static constexpr u32 kNoKill = 0xFFFFFFFFu;

  u32 kill_rank = kNoKill;
  u32 kill_after_ms = 0;

  enum class Resurrect {
    kNone,    // stays dead; survivors elect and finish without it
    kRejoin,  // restarts (resume + probe) and rejoins the new epoch
    kStale,   // restarts with stale_fatal: must observe the newer epoch
              // and latch fenced (the split-brain rejection proof)
  };
  Resurrect resurrect = Resurrect::kNone;
  u32 resurrect_after_ms = 0;  // measured from the kill
};

struct FederationResult {
  bool ok = false;  // every (surviving or resurrected) rank reported
  std::string error;
  std::vector<NodeReport> nodes;  // by rank; a never-resurrected killed
                                  // rank reports ok=false, error "killed"

  // Federation union / totals across every reporting rank.
  std::vector<u32> found_bug_ids;
  std::vector<u64> found_stack_hashes;
  u64 total_execs = 0;
  u64 total_interesting = 0;
  u64 total_crashes = 0;
  bool all_completed = false;
};

// Runs nodes[r] as rank r of one federation; rank 0 leads epoch 1. Each
// node's `federation.link` serves as its link template (liveness/backoff
// tuning) and, with failover on, its election tuning applies; the rank
// table, wiring and fingerprint are filled in here. `federation.failover`
// lets the ranks elect past a dead leader and must be the same on every
// rank (a mismatch returns !ok with an error). The parent pre-binds
// the listener matrix — L[h][s], the socket rank s dials when rank h
// leads; only rank 0's row without failover — so with failover ANY rank
// can be promoted without coordination. Report pipes are drained while
// the ranks run; `plan`'s kill and resurrection (resume + probe) fire on
// their deadlines. Blocks until every live rank exits. Requires at least
// two nodes.
FederationResult run_federation(const Program& program,
                                const std::vector<Input>& seeds,
                                std::vector<procfleet::ProcFleetConfig> nodes,
                                const FederationPlan& plan = {});

// Serialization used across the child pipe (exposed for tests).
std::string encode_node_report(const procfleet::ProcFleetResult& r, bool ok,
                               const std::string& error);
bool decode_node_report(const std::string& text, NodeReport* out);

}  // namespace bigmap::netfleet
