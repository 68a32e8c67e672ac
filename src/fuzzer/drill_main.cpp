// drill: every chaos drill, one binary driven by a stage table.
//
//   drill all <dir>        runs every stage in table order, printing one
//                          "PASS <stage>" or "FAIL <stage>: ..." line each
//   drill <stage> <dir>    replays one stage (after its baseline stage)
//
// Every stage runs one campaign shape — the planted-bug target, a
// two-level 64 kB map, 10000 execs per instance, deterministic timing —
// as supervised threads, a process fleet, or an N-rank run_federation,
// under <dir>/<stage>/. A stage must reproduce its baseline stage's
// bug_ids, stack_hashes, total_execs and all_completed exactly (the corpus
// stage also its corpus lines and canonical pack bytes). Exec counts do
// not depend on work_per_block under deterministic timing, so baselines
// run at the default, once per `drill all`.
//
// A kill stage forks its victim run into its own process group, output in
// <dir>/<stage>/victim.log. The victim dies at a fixed point of its own
// progress — a FaultSite::kSelfKill trigger right after its Nth durable
// commit, or for the corpus stage a SIGKILL inside a pack compaction —
// never on an outside timer. The drill requires death by SIGKILL and the
// victim's marker line, kills what the victim left running, fscks the
// wreckage in process, and resumes with the kill left out of the plan.
//
// The net and failover stages still fault against wall-clock heartbeats
// and election timeouts; their work_per_block stretches keep the faults
// inside the campaign until an in-memory transport retires them. Every
// FAIL line ends with the stage's fault seeds and its replay command.
#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "corpus/store.h"
#include "fuzzer/netfleet/federate.h"
#include "fuzzer/procfleet/coordinator.h"
#include "fuzzer/supervisor.h"
#include "persist/checkpoint.h"
#include "persist/io.h"
#include "persist/snapshot.h"
#include "persist/statecheck.h"
#include "target/generator.h"
#include "util/fault.h"
#include "util/timing.h"

using namespace bigmap;
using netfleet::FailoverStats;
using netfleet::FederationPlan;
using netfleet::NodeReport;

namespace {

namespace fs = std::filesystem;

enum class Topology { kThreads, kFleet, kFederation };

enum class Kill {
  kNone,
  kSelfKill,    // Stage::kill_at, a kSelfKill trigger, joins the plan
  kCompaction,  // SIGKILL inside a compaction, after the pack rename
};

// What a run reports. `fields` are the "key: value" lines a stage must
// share with its baseline.
struct Outcome {
  std::vector<std::pair<std::string, std::string>> fields;
  bool resumed = false;
  bool all_completed = false;
  std::vector<NodeReport> nodes;  // federation stages, by rank
};

struct Stage {
  const char* name;
  const char* baseline;  // the stage this one must equal; null: a baseline
  Topology topology;
  u32 workers;  // instances, workers, or workers per rank
  u32 ranks = 0;
  bool failover = false;  // federation.failover on every rank
  bool oracle = false;    // virgin-map novelty oracle on every link
  u32 sync_interval = 1024;
  bool corpus = false;  // shared WAL-backed CorpusStore, offline trim+export
  u32 work_per_block = 0;  // wall-time stretch; 0 keeps the default
  FaultPlan (*plan)() = nullptr;
  u64 fault_seed = 0;      // rank r of a federation gets fault_seed + r
  u32 fault_ranks = 0;     // federation: bit r set = rank r runs the plan
  u32 partition_ms = 0;    // federation: link partition length
  Kill kill = Kill::kNone;
  FaultTrigger kill_at{};  // Kill::kSelfKill
  FederationPlan::Resurrect leader_kill = FederationPlan::Resurrect::kNone;
  // Stage-specific self-checks: "" when they hold, else the reasons.
  std::string (*check)(const Outcome&) = nullptr;
};

// ------------------------------------------------------------ fault plans

// Every process-level chaos site at least once plus an in-campaign
// instance kill, spread across the workers.
FaultPlan fleet_storm() {
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kInstanceKill, 0, 800});
  plan.triggers.push_back({FaultSite::kProcKill, 1, 2});
  plan.triggers.push_back({FaultSite::kProcStall, 2, 5});
  plan.triggers.push_back({FaultSite::kProcExitMidPublish, 3, 3});
  // Worker 3's restart after the mid-publish death is refused an attach.
  plan.triggers.push_back({FaultSite::kMmapFail, 3, 1});
  plan.hang_ms = 20;
  return plan;
}

// Sustained frame loss and delay on every gateway, torn frames, resets
// (checked once per connected pump) and one short partition.
FaultPlan net_storm() {
  FaultPlan plan;
  plan.rates.push_back({FaultSite::kNetDrop, 150000, FaultRate::kAllInstances});
  plan.rates.push_back(
      {FaultSite::kNetDelay, 100000, FaultRate::kAllInstances});
  plan.triggers.push_back({FaultSite::kNetShortWrite, 2, 1});
  plan.triggers.push_back({FaultSite::kNetShortWrite, 2, 4});
  plan.triggers.push_back({FaultSite::kNetConnReset, 2, 40});
  plan.triggers.push_back({FaultSite::kNetConnReset, 2, 200});
  plan.triggers.push_back({FaultSite::kNetPartition, 2, 120});
  return plan;
}

// One long cut and nothing else, so both sides fuzz through it.
FaultPlan partition() {
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kNetPartition, 2, 60});
  return plan;
}

// Loss, delay, torn frames and resets while the survivors elect — but no
// partition: one outlasting election_timeout_ms elects spuriously by
// contract.
FaultPlan election_storm() {
  FaultPlan plan;
  plan.rates.push_back({FaultSite::kNetDrop, 100000, FaultRate::kAllInstances});
  plan.rates.push_back({FaultSite::kNetDelay, 80000, FaultRate::kAllInstances});
  plan.triggers.push_back({FaultSite::kNetShortWrite, 2, 3});
  plan.triggers.push_back({FaultSite::kNetConnReset, 2, 60});
  return plan;
}

// Faults that keep each instance's exec stream intact: instance kills
// after the first checkpoint (warm restarts replay the same stream) and
// early, non-fatal checkpoint I/O failures, long before the final
// snapshots that pin the trim. Instance 0 gets no I/O faults because the
// fleet journal shares its fault key.
FaultPlan corpus_storm() {
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kInstanceKill, 1, 800});
  plan.triggers.push_back({FaultSite::kInstanceKill, 3, 1200});
  plan.triggers.push_back({FaultSite::kRenameFail, 2, 1});
  plan.triggers.push_back({FaultSite::kNoSpace, 2, 3});
  plan.triggers.push_back({FaultSite::kShortWrite, 2, 5});
  return plan;
}

// --------------------------------------------------------------- checks

// "" when every (holds, reason) pair holds, else the failed reasons.
std::string expect(std::initializer_list<std::pair<bool, const char*>> l) {
  std::string out;
  for (const auto& [holds, why] : l) {
    if (!holds) out += out.empty() ? why : std::string("; ") + why;
  }
  return out;
}

std::string all_of(std::initializer_list<std::string> reasons) {
  std::string out;
  for (const std::string& why : reasons) {
    if (!why.empty()) out += out.empty() ? why : "; " + why;
  }
  return out;
}

u64 sum(const Outcome& o, u64 (*f)(const NodeReport&)) {
  u64 s = 0;
  for (const NodeReport& r : o.nodes) s += f(r);
  return s;
}

// Sums `field` (an expression of NodeReport r) over o's ranks.
#define SUM(field) sum(o, [](const NodeReport& r) -> u64 { return field; })

std::string exchanged(const Outcome& o) {
  return expect({{SUM(r.failover.net.records_sent) > 0, "no corpus exchange"}});
}

std::string oracle_engaged(const Outcome& o) {
  return expect(
      {{SUM(r.failover.oracle.checked) > 0, "the oracle never engaged"}});
}

std::string storm_engaged(const Outcome& o) {
  return expect({{SUM(r.failover.net.injected_drops +
                      r.failover.net.injected_delays +
                      r.failover.net.injected_short_writes +
                      r.failover.net.injected_resets +
                      r.failover.net.injected_partitions) > 0,
                  "the storm injected no faults"},
                 {SUM(r.failover.net.reconnects) > 0,
                  "the storm forced no reconnect"}});
}

// A clean federation ships corpus, and no full-state deltas: at founding
// every follower's model is empty, and an empty model is not shipped.
std::string founded_quietly(const Outcome& o) {
  return expect({{SUM(r.failover.net.records_sent) > 0, "no corpus exchange"},
                 {SUM(r.failover.deltas_shipped) == 0,
                  "a founding follower shipped its empty model"}});
}

// The leader kill forced an election into epoch 2, and the followers that
// re-homed seeded the new leader's oracle models with full-state deltas.
std::string elected(const Outcome& o) {
  return expect({{SUM(r.failover.net.records_sent) > 0, "no corpus exchange"},
                 {SUM(r.failover.elections) > 0, "the kill forced no election"},
                 {SUM(r.failover.promotions) > 0, "nobody was promoted"},
                 {SUM(r.failover.epoch == 2) > 0, "no rank reached epoch 2"},
                 {SUM(r.failover.deltas_applied) > 0,
                  "no deltas applied after the kill"}});
}

// The resurrected victim (rank 0) re-entered the new epoch.
std::string rejoined(const Outcome& o) {
  const FailoverStats& v = o.nodes[0].failover;
  return expect({{v.rejoins > 0, "the victim never rejoined"},
                 {v.epoch >= 2, "the victim stayed in epoch 1"},
                 {v.fenced == 0, "the rejoining victim fenced"}});
}

// ------------------------------------------------------------ the table

const std::vector<Stage>& stages() {
  using R = FederationPlan::Resurrect;
  static const std::vector<Stage> table = {
      {.name = "threads-4", .baseline = nullptr,
       .topology = Topology::kThreads, .workers = 4},
      {.name = "crash-recovery", .baseline = "threads-4",
       .topology = Topology::kThreads, .workers = 4,
       .kill = Kill::kSelfKill, .kill_at = {FaultSite::kSelfKill, 1, 4}},

      {.name = "fleet-4", .baseline = nullptr,
       .topology = Topology::kFleet, .workers = 4},
      {.name = "fleet-storm", .baseline = "fleet-4",
       .topology = Topology::kFleet, .workers = 4, .plan = fleet_storm,
       .fault_seed = 77},
      {.name = "fleet-kill", .baseline = "fleet-4",
       .topology = Topology::kFleet, .workers = 4, .plan = fleet_storm,
       .fault_seed = 77, .kill = Kill::kSelfKill,
       .kill_at = {FaultSite::kSelfKill,
                   procfleet::kCoordinatorFaultInstance, 3}},

      {.name = "net-pair", .baseline = "fleet-4",
       .topology = Topology::kFederation, .workers = 2, .ranks = 2,
       .check = exchanged},
      {.name = "net-pair-storm", .baseline = "fleet-4",
       .topology = Topology::kFederation, .workers = 2, .ranks = 2,
       .work_per_block = 400, .plan = net_storm, .fault_seed = 909,
       .fault_ranks = 0b11, .partition_ms = 300,
       .check = [](const Outcome& o) {
         return all_of(
             {exchanged(o), storm_engaged(o),
              expect({{SUM(r.failover.net.injected_drops) > 0,
                       "no frame drops"},
                      {SUM(r.failover.net.injected_short_writes) > 0,
                       "no torn frames"},
                      {SUM(r.failover.net.injected_resets) > 0, "no resets"},
                      {SUM(r.failover.net.injected_partitions) > 0,
                       "no partition"}})});
       }},
      {.name = "net-pair-partition", .baseline = "fleet-4",
       .topology = Topology::kFederation, .workers = 2, .ranks = 2,
       .work_per_block = 400, .plan = partition, .fault_seed = 911,
       .fault_ranks = 0b1, .partition_ms = 1000,
       .check = [](const Outcome& o) {
         return all_of(
             {exchanged(o),
              expect({{SUM(r.failover.net.injected_partitions) > 0,
                       "no partition was injected"},
                      {SUM(r.failover.net.partition_ms_total) > 0,
                       "no partition time was recorded"},
                      {SUM(r.failover.net.reconnects) > 0,
                       "the partition never healed"}})});
       }},

      {.name = "fleet-6", .baseline = nullptr,
       .topology = Topology::kFleet, .workers = 6},
      {.name = "net-star", .baseline = "fleet-6",
       .topology = Topology::kFederation, .workers = 2, .ranks = 3,
       .oracle = true,
       .check = [](const Outcome& o) {
         return all_of({exchanged(o), oracle_engaged(o),
                        expect({{SUM(r.failover.oracle.rejected) > 0,
                                 "the oracle rejected nothing"}})});
       }},
      {.name = "net-star-storm", .baseline = "fleet-6",
       .topology = Topology::kFederation, .workers = 2, .ranks = 3,
       .oracle = true, .plan = net_storm, .fault_seed = 909,
       .fault_ranks = 0b11, .partition_ms = 300,
       .check = [](const Outcome& o) {
         return all_of({exchanged(o), oracle_engaged(o), storm_engaged(o)});
       }},

      {.name = "fleet-8", .baseline = nullptr,
       .topology = Topology::kFleet, .workers = 8},
      {.name = "failover-star4", .baseline = "fleet-8",
       .topology = Topology::kFederation, .workers = 2, .ranks = 4,
       .failover = true, .oracle = true, .work_per_block = 600,
       .check = [](const Outcome& o) {
         return all_of(
             {founded_quietly(o),
              expect({{SUM(r.failover.elections) == 0,
                       "the clean federation elected"},
                      {SUM(r.failover.epoch != 1) == 0, "the epoch moved"}})});
       }},
      {.name = "failover-kill", .baseline = "fleet-8",
       .topology = Topology::kFederation, .workers = 2, .ranks = 4,
       .failover = true, .oracle = true, .work_per_block = 600,
       .leader_kill = R::kRejoin,
       .check = [](const Outcome& o) {
         return all_of({elected(o), rejoined(o)});
       }},
      {.name = "failover-stale", .baseline = "fleet-8",
       .topology = Topology::kFederation, .workers = 2, .ranks = 4,
       .failover = true, .oracle = true, .work_per_block = 600,
       .leader_kill = R::kStale,
       .check = [](const Outcome& o) {
         const FailoverStats& v = o.nodes[0].failover;
         return all_of(
             {elected(o),
              expect({{v.fenced == 1 && v.role == 3,
                       "the stale leader did not fence"},
                      {SUM(r.failover.net.stale_hellos_dropped) > 0,
                       "no stale hello was dropped"}})});
       }},
      {.name = "failover-storm", .baseline = "fleet-8",
       .topology = Topology::kFederation, .workers = 2, .ranks = 4,
       .failover = true, .oracle = true, .work_per_block = 600,
       .plan = election_storm, .fault_seed = 920, .fault_ranks = 0b1110,
       .leader_kill = R::kRejoin,
       .check = [](const Outcome& o) {
         return all_of(
             {elected(o), rejoined(o), storm_engaged(o)});
       }},

      // Sync off: imports would splice the instances' exec streams at
      // wall-clock points, and the corpus must be byte-stable.
      {.name = "corpus-baseline", .baseline = nullptr,
       .topology = Topology::kThreads, .workers = 4,
       .sync_interval = 1u << 30, .corpus = true},
      {.name = "corpus-chaos", .baseline = "corpus-baseline",
       .topology = Topology::kThreads, .workers = 4,
       .sync_interval = 1u << 30, .corpus = true, .plan = corpus_storm,
       .fault_seed = 4242, .kill = Kill::kCompaction},
  };
  return table;
}

#undef SUM

const Stage* find_stage(const std::string& name) {
  for (const Stage& s : stages()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

// ------------------------------------------------------------- the runs

void require(bool ok, const std::string& why) {
  if (!ok) throw std::runtime_error(why);
}

const GeneratedTarget& target() {
  static const GeneratedTarget t = [] {
    GeneratorParams gp;
    gp.seed = 33;
    gp.live_blocks = 200;
    gp.num_bugs = 3;
    gp.bug_min_depth = 1;
    gp.bug_max_depth = 1;
    return generate_target(gp);
  }();
  return t;
}

const std::vector<Input>& seeds() {
  static const std::vector<Input> s = make_seed_corpus(target(), 4, 1);
  return s;
}

CampaignConfig campaign(const Stage& st, u64 seed) {
  CampaignConfig c;
  c.scheme = MapScheme::kTwoLevel;
  c.map.map_size = 1u << 16;
  c.map.huge_pages = false;
  c.max_execs = 10000;
  c.seed = seed;
  c.sync_interval = st.sync_interval;
  c.deterministic_timing = true;
  if (st.work_per_block != 0) c.work_per_block = st.work_per_block;
  return c;
}

procfleet::ProcFleetConfig fleet_config(const Stage& st, const std::string& dir,
                                        u64 seed) {
  procfleet::ProcFleetConfig fc;
  fc.num_workers = st.workers;
  fc.base = campaign(st, seed);
  fc.poll_ms = 2;
  fc.stall_deadline_ms = 600;
  fc.max_restarts = 10;
  fc.backoff_initial_ms = 5;
  fc.backoff_cap_ms = 50;
  fc.checkpoint_interval = 512;
  fc.persist_dir = dir;
  // Parking a worker loses its post-checkpoint finds by design, which
  // would break the exact find-union comparison.
  fc.quarantine_deaths = 0;
  return fc;
}

template <typename V>
std::string join(V v, bool hex) {
  std::sort(v.begin(), v.end());
  std::ostringstream os;
  if (hex) os << std::hex;
  for (const auto& x : v) os << ' ' << x;
  return os.str();
}

Outcome outcome(const std::vector<u32>& bugs, const std::vector<u64>& hashes,
                u64 execs, bool completed, bool resumed) {
  Outcome o;
  o.fields = {{"bug_ids", join(bugs, false)},
              {"stack_hashes", join(hashes, true)},
              {"total_execs", " " + std::to_string(execs)},
              {"all_completed", completed ? " 1" : " 0"}};
  o.resumed = resumed;
  o.all_completed = completed;
  return o;
}

// Every content hash a snapshot under `fleet_dir` references: the entries
// a future resume would resolve, which the offline trim must keep.
std::unordered_set<u64> snapshot_pinned(const std::string& fleet_dir) {
  std::unordered_set<u64> pinned;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(
           fleet_dir, fs::directory_options::skip_permission_denied, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    u64 seq;
    if (ec || !it->is_regular_file(ec) ||
        !persist::parse_snap_name(it->path().filename().string(), &seq)) {
      continue;
    }
    std::vector<u8> bytes;
    std::string err;
    if (!persist::read_file(it->path().string(), &bytes, persist::FaultCtx{},
                            &err)) {
      continue;
    }
    persist::DecodeResult dec = persist::decode_snapshot(bytes);
    if (dec.status != persist::LoadStatus::kOk) continue;
    for (const persist::QueueEntrySnap& e : dec.snapshot->entries) {
      if (e.in_store) pinned.insert(e.content_hash);
    }
  }
  return pinned;
}

// Offline maintenance after a corpus run: flush, trim with every
// snapshot-referenced hash pinned, compact, export the canonical pack.
void finalize_corpus(corpus::CorpusStore& store, const std::string& dir,
                     Outcome* o) {
  std::string err;
  store.flush_pending(&err);
  const corpus::TrimReport tr = store.trim(snapshot_pinned(dir + "/fleet"));
  require(store.compact(&err), "compact failed: " + err);
  require(store.export_canonical(dir + "/corpus.canonical", &err),
          "canonical export failed: " + err);
  auto num = [](u64 v) { return " " + std::to_string(v); };
  char trim[160];
  std::snprintf(trim, sizeof(trim),
                " scanned=%llu kept=%llu dropped=%llu rare=%llu",
                static_cast<unsigned long long>(tr.scanned),
                static_cast<unsigned long long>(tr.kept),
                static_cast<unsigned long long>(tr.dropped),
                static_cast<unsigned long long>(tr.rare_positions));
  char digest[32];
  std::snprintf(digest, sizeof(digest), " %llx",
                static_cast<unsigned long long>(store.corpus_digest()));
  o->fields.push_back({"corpus_entries", num(store.size())});
  o->fields.push_back({"corpus_crash_rows", num(store.crash_row_count())});
  o->fields.push_back({"corpus_trim", trim});
  o->fields.push_back({"corpus_digest", digest});
}

Outcome run_threads(const Stage& st, const std::string& dir,
                    const FaultPlan* plan, bool resume, bool victim) {
  SupervisorConfig sc;
  sc.num_instances = st.workers;
  sc.base = campaign(st, 501);
  sc.poll_ms = 2;
  sc.stall_deadline_ms = 2000;
  sc.max_restarts = 3;
  sc.backoff_initial_ms = 5;
  sc.backoff_cap_ms = 50;
  sc.checkpoint_interval = 512;
  // The fleet store wipes its directory on a fresh start, so the corpus
  // store lives beside it.
  sc.persist_dir = dir + "/fleet";
  sc.resume = resume;
  std::optional<FaultInjector> fault;
  if (plan != nullptr) {
    fault.emplace(st.fault_seed, *plan);
    sc.fault = &*fault;
  }
  std::optional<corpus::CorpusStore> store;
  std::atomic<u32> renames{0};
  if (st.corpus) {
    store.emplace(dir + "/corpus");
    const corpus::OpenReport rep = store->open(/*fresh=*/!resume);
    require(rep.ok, "corpus store open failed: " + rep.error);
    sc.base.corpus = &*store;
    sc.base.corpus_compact_interval = 1500;
  }
  if (victim && st.kill == Kill::kCompaction) {
    // Die inside a compaction after the pack rename committed but before
    // the WAL reset, so recovery must replay the stale WAL idempotently
    // over the fresh pack: the first such point from compaction #6 on
    // (mid-campaign for every instance) at which the storm has delivered
    // an instance kill and a store I/O fault. Keyed to the storm's
    // progress, not to how far the instance threads happen to have got.
    // No store calls here: the compacting thread holds the store lock.
    store->set_compact_hook([&](corpus::CompactPhase phase) {
      if (phase != corpus::CompactPhase::kAfterPackRename || ++renames < 6) {
        return true;
      }
      const FaultStats stats = fault->stats();
      auto hits = [&](FaultSite s) {
        return static_cast<unsigned long long>(
            stats.injected[static_cast<usize>(s)]);
      };
      const unsigned long long kills = hits(FaultSite::kInstanceKill);
      const unsigned long long io = hits(FaultSite::kRenameFail) +
                                    hits(FaultSite::kNoSpace) +
                                    hits(FaultSite::kShortWrite);
      if (kills == 0 || io == 0) return true;
      std::fprintf(stderr,
                   "compact-kill: renames=%u storm kills=%llu io_faults=%llu\n",
                   renames.load(), kills, io);
      std::fflush(stderr);
      raise(SIGKILL);
      return true;
    });
  }
  const SupervisorResult r =
      run_supervised_campaign(target().program, seeds(), sc);
  Outcome o = outcome(r.found_bug_ids, r.found_stack_hashes, r.total_execs,
                      r.all_completed(), r.resumed);
  if (st.corpus && !victim) finalize_corpus(*store, dir, &o);
  return o;
}

Outcome run_fleet(const Stage& st, const std::string& dir,
                  const FaultPlan* plan, bool resume) {
  procfleet::ProcFleetConfig fc = fleet_config(st, dir + "/fleet", 501);
  fc.resume = resume;
  if (plan != nullptr) {
    fc.fault_enabled = true;
    fc.fault_seed = st.fault_seed;
    fc.fault_plan = *plan;
  }
  const procfleet::ProcFleetResult r =
      procfleet::run_process_fleet(target().program, seeds(), fc);
  return outcome(r.found_bug_ids, r.found_stack_hashes, r.total_execs,
                 r.all_completed(), r.resumed);
}

// Rank r runs st.workers workers from seed 501 + 2r, so the federation's
// campaign seeds are exactly its single-fleet baseline's at the same
// total budget. Rank 0 leads.
Outcome run_ranks(const Stage& st, const std::string& dir) {
  std::vector<procfleet::ProcFleetConfig> nodes;
  for (u32 r = 0; r < st.ranks; ++r) {
    procfleet::ProcFleetConfig fc =
        fleet_config(st, dir + "/r" + std::to_string(r), 501 + 2 * r);
    // Fast liveness, so injected failures are detected and healed well
    // within the campaign.
    fc.federation.link.heartbeat_ms = 20;
    fc.federation.link.peer_timeout_ms = 400;
    fc.federation.link.reconnect_initial_ms = 5;
    fc.federation.link.reconnect_cap_ms = 100;
    fc.federation.failover = st.failover;
    fc.federation.election_timeout_ms = 600;
    fc.net_virgin_oracle = st.oracle;
    if (st.fault_ranks & (1u << r)) {
      fc.fault_enabled = true;
      fc.fault_seed = st.fault_seed + r;
      fc.fault_plan = st.plan();
      if (st.partition_ms != 0) {
        fc.federation.link.partition_ms = st.partition_ms;
      }
    }
    nodes.push_back(fc);
  }
  FederationPlan plan;
  if (st.leader_kill != FederationPlan::Resurrect::kNone) {
    plan.kill_rank = 0;
    plan.kill_after_ms = 900;
    plan.resurrect_after_ms = 600;
    plan.resurrect = st.leader_kill;
  }
  netfleet::FederationResult fr =
      netfleet::run_federation(target().program, seeds(), nodes, plan);
  require(fr.ok, "federation: " + fr.error);
  Outcome o = outcome(fr.found_bug_ids, fr.found_stack_hashes,
                      fr.total_execs, fr.all_completed, false);
  o.nodes = std::move(fr.nodes);
  return o;
}

Outcome run(const Stage& st, const std::string& dir, const FaultPlan* plan,
            bool resume, bool victim = false) {
  if (st.topology == Topology::kThreads) {
    return run_threads(st, dir, plan, resume, victim);
  }
  return st.topology == Topology::kFleet ? run_fleet(st, dir, plan, resume)
                                         : run_ranks(st, dir);
}

// ------------------------------------------------------ checks on disk

// statecheck, in process, over what a stage wrote.
void fsck(const Stage& st, const std::string& dir) {
  if (st.topology == Topology::kFederation) {
    if (!st.failover) return;
    // Every rank journals a federation WAL: monotone epochs, well-formed
    // deltas.
    usize wals = 0;
    require(persist::check_corpus_dir(dir, false, &wals),
            "statecheck rejected the federation WALs");
    require(wals > 0, "no federation WAL to audit");
    return;
  }
  require(persist::check_fleet_dir(dir + "/fleet", false),
          "statecheck rejected the fleet directory");
  if (st.corpus) {
    require(persist::check_corpus_dir(dir, false),
            "statecheck rejected the corpus store");
  }
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The first line of `text` that starts with `prefix`, or "".
std::string line_with(const std::string& text, const std::string& prefix) {
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return "";
}

// The number after " <key>=" in a marker line; 0 when it is missing.
u64 marker_field(const std::string& line, const std::string& key) {
  const usize at = line.find(" " + key + "=");
  return at == std::string::npos
             ? 0
             : std::strtoull(line.c_str() + at + key.size() + 2, nullptr, 10);
}

// Forks the victim run and checks it died at its kill point, mid-run.
void run_victim(const Stage& st, const std::string& dir,
                const FaultPlan& plan) {
  const std::string log = dir + "/victim.log";
  std::fflush(stdout);
  const pid_t pid = ::fork();
  require(pid >= 0, "fork failed");
  if (pid == 0) {
    (void)::setpgid(0, 0);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      (void)::dup2(fd, STDOUT_FILENO);
      (void)::dup2(fd, STDERR_FILENO);
    }
    try {
      (void)run(st, dir, &plan, /*resume=*/false, /*victim=*/true);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "victim: %s\n", e.what());
    }
    ::_exit(0);  // the kill point never came
  }
  (void)::setpgid(pid, pid);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  // The drill is a child subreaper: whatever the victim forked (a fleet
  // coordinator's workers) is now ours and still in its process group.
  (void)::kill(-pid, SIGKILL);
  while (::waitpid(-pid, nullptr, 0) > 0 || errno == EINTR) {
  }

  require(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL,
          "victim was not SIGKILLed at its kill point (wait status " +
              std::to_string(status) + ")");
  const bool compaction = st.kill == Kill::kCompaction;
  const std::string prefix = compaction ? "compact-kill:" : "self-kill:";
  const std::string marker = line_with(read_text(log), prefix);
  require(!marker.empty(), "victim died without its " + prefix + " marker");
  std::printf("  %s\n", marker.c_str());
  if (compaction) {
    require(marker_field(marker, "kills") > 0,
            "no instance kills before the compaction kill");
    require(marker_field(marker, "io_faults") > 0,
            "no store I/O faults before the compaction kill");
  } else {
    require(marker_field(marker, "checkpoints") >= 1,
            "the kill landed before any checkpoint");
    require(marker_field(marker, "unfinished") >= 1,
            "the kill landed after the run finished");
  }
}

// Prints a stage's outcome and its per-rank diagnostics.
void print(const Outcome& o) {
  for (const auto& [key, value] : o.fields) {
    std::printf("  %s:%s\n", key.c_str(), value.c_str());
  }
  for (usize i = 0; i < o.nodes.size(); ++i) {
    std::printf("  [rank-%zu]", i);
    for_each_prefixed_field(
        o.nodes[i].failover, {"fo_", "net_", "oracle_"},
        [](const std::string& key, u64 value) {
          if (value != 0) {
            std::printf(" %s=%llu", key.c_str(),
                        static_cast<unsigned long long>(value));
          }
        });
    std::printf("\n");
  }
}

void compare(const Stage& st, const Outcome& base, const Outcome& got) {
  for (usize i = 0; i < base.fields.size(); ++i) {
    const auto& [key, want] = base.fields[i];
    const std::string have =
        i < got.fields.size() ? got.fields[i].second : " (missing)";
    require(want == have, key + " diverged from " + st.baseline + ":" +
                              want + " vs" + have);
  }
}

std::string fault_seeds(const Stage& st) {
  if (st.plan == nullptr && st.kill == Kill::kNone) return "none";
  if (st.topology != Topology::kFederation) {
    return std::to_string(st.fault_seed);
  }
  std::string out;
  for (u32 r = 0; r < st.ranks; ++r) {
    if (!(st.fault_ranks & (1u << r))) continue;
    out += (out.empty() ? "" : ",") + std::to_string(st.fault_seed + r);
  }
  return out;
}

// Outcomes of the baseline stages run so far; nullopt for one that failed.
using Baselines = std::map<std::string, std::optional<Outcome>>;

// Runs one stage under <root>/<stage>, after its baseline if that has not
// run yet.
bool run_stage(const Stage& st, const std::string& root, Baselines* done) {
  const auto fail = [&](const std::string& why) {
    std::printf("FAIL %s: %s | fault seeds: %s | replay: drill %s %s\n",
                st.name, why.c_str(), fault_seeds(st).c_str(), st.name,
                root.c_str());
    std::fflush(stdout);
    return false;
  };
  const Outcome* base = nullptr;
  if (st.baseline != nullptr) {
    if (!done->count(st.baseline)) {
      (void)run_stage(*find_stage(st.baseline), root, done);
    }
    const std::optional<Outcome>& b = done->at(st.baseline);
    if (!b) return fail(std::string("baseline ") + st.baseline + " failed");
    base = &*b;
  }
  // Reap what earlier stages left as zombies: workers of a killed
  // federation rank are reparented to this subreaper.
  while (::waitpid(-1, nullptr, WNOHANG) > 0) {
  }
  const std::string dir = root + "/" + st.name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  std::printf("== %s\n", st.name);
  std::fflush(stdout);
  const u64 start_ns = monotonic_ns();
  try {
    std::optional<FaultPlan> plan;
    if (st.plan != nullptr) plan = st.plan();
    bool resume = false;
    if (st.kill != Kill::kNone) {
      FaultPlan victim = plan.value_or(FaultPlan{});
      if (st.kill == Kill::kSelfKill) victim.triggers.push_back(st.kill_at);
      run_victim(st, dir, victim);
      fsck(st, dir);
      // The resume keeps every fault but the self-kill. The compaction
      // kill is not a trigger; that stage resumes fault-free.
      if (st.kill == Kill::kSelfKill) {
        plan = victim.without(FaultSite::kSelfKill);
      } else {
        plan.reset();
      }
      resume = true;
    }
    Outcome o = run(st, dir, plan ? &*plan : nullptr, resume);
    print(o);
    require(o.all_completed, "the run did not complete its budget");
    require(!resume || o.resumed, "the resume did not replay the journal");
    if (st.check != nullptr) {
      const std::string why = st.check(o);
      require(why.empty(), why);
    }
    fsck(st, dir);
    if (base != nullptr) {
      compare(st, *base, o);
      if (st.corpus) {
        require(read_text(root + "/" + st.baseline + "/corpus.canonical") ==
                    read_text(dir + "/corpus.canonical"),
                "canonical corpus packs differ byte-for-byte");
      }
    } else {
      (*done)[st.name] = std::move(o);
    }
  } catch (const std::exception& e) {
    if (base == nullptr) (*done)[st.name] = std::nullopt;
    return fail(e.what());
  }
  std::printf("PASS %s (%.1f s)\n", st.name,
              static_cast<double>(monotonic_ns() - start_ns) / 1e9);
  std::fflush(stdout);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string which = argc == 3 ? argv[1] : "";
  const Stage* one = find_stage(which);
  if (which != "all" && one == nullptr) {
    std::fprintf(stderr, "usage: drill all <dir>\n       drill <stage> <dir>\n"
                         "stages:");
    for (const Stage& s : stages()) std::fprintf(stderr, " %s", s.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  // Orphans of a killed victim are reparented here, so the drill can kill
  // and reap them before it resumes in their directory.
  (void)::prctl(PR_SET_CHILD_SUBREAPER, 1);
  const std::string root = argv[2];
  Baselines done;
  if (one != nullptr) return run_stage(*one, root, &done) ? 0 : 1;
  bool ok = true;
  for (const Stage& s : stages()) {
    if (!done.count(s.name)) ok = run_stage(s, root, &done) && ok;
  }
  return ok ? 0 : 1;
}
