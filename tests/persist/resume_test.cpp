// Campaign-level checkpoint/resume tests: a campaign that checkpoints and
// is later relaunched with resume_from_checkpoint continues its lifetime
// exec budget and keeps every find, while identity mismatches and empty
// stores degrade to clean cold starts.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>

#include "fuzzer/campaign.h"
#include "persist/checkpoint.h"
#include "persist/io.h"
#include "persist/snapshot.h"
#include "target/generator.h"
#include "telemetry/sink.h"
#include "util/fault.h"

namespace bigmap {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const char* tag) {
    path = (fs::temp_directory_path() /
            (std::string("bigmap_resume_") + tag + "_" +
             std::to_string(static_cast<unsigned>(::getpid()))))
               .string();
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

GeneratedTarget make_target() {
  GeneratorParams gp;
  gp.seed = 33;
  gp.live_blocks = 200;
  gp.num_bugs = 3;
  gp.bug_min_depth = 1;
  gp.bug_max_depth = 1;
  return generate_target(gp);
}

CampaignConfig make_config() {
  CampaignConfig c;
  c.scheme = MapScheme::kTwoLevel;
  c.map.map_size = 1u << 16;
  c.map.huge_pages = false;
  c.seed = 501;
  c.max_execs = 4000;
  c.deterministic_timing = true;
  return c;
}

bool is_subset(std::vector<u32> small, std::vector<u32> big) {
  std::sort(small.begin(), small.end());
  std::sort(big.begin(), big.end());
  return std::includes(big.begin(), big.end(), small.begin(), small.end());
}

TEST(CampaignResumeTest, ResumeContinuesLifetimeBudgetAndKeepsFinds) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);
  TempDir dir("budget");

  persist::CheckpointStore store1(dir.path, persist::FaultCtx{},
                                  /*fresh=*/true);
  CampaignConfig c1 = make_config();
  c1.checkpoint = &store1;
  c1.checkpoint_interval = 1024;
  auto r1 = run_campaign(target.program, seeds, c1);
  EXPECT_FALSE(r1.resumed);
  EXPECT_EQ(r1.execs, 4000u);
  // Periodic checkpoints plus the final one at clean completion.
  EXPECT_GE(r1.checkpoints_written, 4u);
  EXPECT_EQ(r1.checkpoint_failures, 0u);

  persist::CheckpointStore store2(dir.path, persist::FaultCtx{},
                                  /*fresh=*/false);
  CampaignConfig c2 = make_config();
  c2.checkpoint = &store2;
  c2.checkpoint_interval = 1024;
  c2.resume_from_checkpoint = true;
  c2.max_execs = 8000;
  auto r2 = run_campaign(target.program, seeds, c2);
  EXPECT_TRUE(r2.resumed);
  EXPECT_EQ(r2.resumed_from_execs, 4000u);
  // The budget is a lifetime bound: the resumed segment runs 4000 more
  // execs, not 8000.
  EXPECT_EQ(r2.execs, 8000u);

  // Every identity found before the checkpoint survives the resume.
  EXPECT_TRUE(is_subset(r1.found_bug_ids, r2.found_bug_ids));
  EXPECT_GE(r2.found_stack_hashes.size(), r1.found_stack_hashes.size());
  EXPECT_GE(r2.covered_positions, r1.covered_positions);
}

TEST(CampaignResumeTest, ResumeAtExhaustedBudgetFinalizesImmediately) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);
  TempDir dir("spent");

  persist::CheckpointStore store1(dir.path, persist::FaultCtx{}, true);
  CampaignConfig c1 = make_config();
  c1.checkpoint = &store1;
  auto r1 = run_campaign(target.program, seeds, c1);
  ASSERT_EQ(r1.execs, 4000u);

  // Same budget on resume: the snapshot already satisfies it.
  persist::CheckpointStore store2(dir.path, persist::FaultCtx{}, false);
  CampaignConfig c2 = make_config();
  c2.checkpoint = &store2;
  c2.resume_from_checkpoint = true;
  auto r2 = run_campaign(target.program, seeds, c2);
  EXPECT_TRUE(r2.resumed);
  EXPECT_EQ(r2.execs, 4000u);
  auto sorted = [](auto v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(r2.found_bug_ids), sorted(r1.found_bug_ids));
  EXPECT_EQ(sorted(r2.found_stack_hashes), sorted(r1.found_stack_hashes));
}

TEST(CampaignResumeTest, EmptyStoreFallsBackToColdStart) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);
  TempDir dir("empty");

  persist::CheckpointStore store(dir.path, persist::FaultCtx{}, false);
  CampaignConfig c = make_config();
  c.checkpoint = &store;
  c.resume_from_checkpoint = true;
  auto r = run_campaign(target.program, seeds, c);
  EXPECT_FALSE(r.resumed);
  EXPECT_EQ(r.execs, 4000u);
  EXPECT_EQ(store.stats().cold_starts, 1u);
}

TEST(CampaignResumeTest, IdentityMismatchFallsBackToColdStart) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);
  TempDir dir("identity");

  persist::CheckpointStore store1(dir.path, persist::FaultCtx{}, true);
  CampaignConfig c1 = make_config();
  c1.checkpoint = &store1;
  auto r1 = run_campaign(target.program, seeds, c1);
  ASSERT_GE(r1.checkpoints_written, 1u);

  // A different RNG seed is a different campaign: the snapshot must not
  // restore into it.
  persist::CheckpointStore store2(dir.path, persist::FaultCtx{}, false);
  CampaignConfig c2 = make_config();
  c2.checkpoint = &store2;
  c2.resume_from_checkpoint = true;
  c2.seed = 777;
  auto r2 = run_campaign(target.program, seeds, c2);
  EXPECT_FALSE(r2.resumed);
  EXPECT_EQ(r2.execs, 4000u);
}

TEST(CampaignResumeTest, CheckpointCadenceFollowsInterval) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);
  TempDir dir("cadence");

  persist::CheckpointStore store(dir.path, persist::FaultCtx{}, true);
  CampaignConfig c = make_config();
  c.checkpoint = &store;
  c.checkpoint_interval = 500;
  c.max_execs = 2600;
  auto r = run_campaign(target.program, seeds, c);
  // ~5 periodic checkpoints plus the final commit; rotation keeps the
  // directory bounded regardless.
  EXPECT_GE(r.checkpoints_written, 5u);
  EXPECT_EQ(store.stats().save_failures, 0u);
  usize snaps = 0;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    if (e.path().extension() == ".bms") ++snaps;
  }
  EXPECT_LE(snaps, c.keep_checkpoints);
}

TEST(CampaignResumeTest, TelemetryRestorePrimesLifetimeCounters) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);
  TempDir dir("telemetry");

  persist::CheckpointStore store1(dir.path, persist::FaultCtx{}, true);
  CampaignConfig c1 = make_config();
  c1.checkpoint = &store1;
  auto r1 = run_campaign(target.program, seeds, c1);
  ASSERT_EQ(r1.execs, 4000u);

  telemetry::TelemetrySink sink;
  persist::CheckpointStore store2(dir.path, persist::FaultCtx{}, false);
  CampaignConfig c2 = make_config();
  c2.checkpoint = &store2;
  c2.resume_from_checkpoint = true;
  c2.telemetry = &sink;
  c2.max_execs = 6000;
  auto r2 = run_campaign(target.program, seeds, c2);
  ASSERT_TRUE(r2.resumed);
  // The fresh sink takes the snapshot's lifetime totals as its history, so
  // its exec counter matches the lifetime result, not just this segment.
  EXPECT_EQ(sink.latest().execs, r2.execs);
  EXPECT_EQ(sink.latest().checkpoints_loaded, 1u);
}

// An in-process warm restart on the sink that watched the dying attempt:
// the execs the first attempt ran past its last checkpoint were published
// and stay counted, and the resumed attempt adds only what it runs beyond
// the checkpoint it restored.
TEST(CampaignResumeTest, WarmRestartOnOneSinkCountsEveryExecOnce) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);
  TempDir dir("warm_sink");
  telemetry::TelemetrySink sink;

  persist::CheckpointStore store1(dir.path, persist::FaultCtx{}, true);
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kInstanceKill, 0, 2500});
  FaultInjector injector(1, plan);
  CampaignConfig c1 = make_config();
  c1.checkpoint = &store1;
  c1.checkpoint_interval = 500;
  c1.fault = &injector;
  c1.telemetry = &sink;
  auto r1 = run_campaign(target.program, seeds, c1);
  ASSERT_TRUE(r1.fault_aborted);
  ASSERT_GT(r1.checkpoints_written, 0u);

  persist::CheckpointStore store2(dir.path, persist::FaultCtx{}, false);
  CampaignConfig c2 = make_config();
  c2.checkpoint = &store2;
  c2.checkpoint_interval = 500;
  c2.resume_from_checkpoint = true;
  c2.telemetry = &sink;
  auto r2 = run_campaign(target.program, seeds, c2);
  ASSERT_TRUE(r2.resumed);
  ASSERT_GT(r2.resumed_from_execs, 0u);
  ASSERT_LT(r2.resumed_from_execs, r1.execs);

  const telemetry::StatsSnapshot s = sink.latest();
  EXPECT_EQ(s.execs, r1.execs + r2.execs - r2.resumed_from_execs);
  EXPECT_EQ(s.tracing_untraced_execs + s.tracing_traced_execs, s.execs);
  EXPECT_EQ(s.checkpoints_loaded, 1u);
  EXPECT_EQ(s.checkpoints_written,
            r1.checkpoints_written + r2.checkpoints_written);
}

// Bytes of the newest snapshot in `dir`.
std::vector<u8> newest_snapshot(const std::string& dir) {
  u64 newest = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("snap-", 0) == 0) {
      newest = std::max<u64>(newest, std::stoull(name.substr(5)));
    }
  }
  std::vector<u8> bytes;
  std::string err;
  EXPECT_TRUE(persist::read_file(
      dir + "/snap-" + std::to_string(newest) + ".bms", &bytes,
      persist::FaultCtx{}, &err))
      << err;
  return bytes;
}

u64 newest_snapshot_bytes(const std::string& dir) {
  return newest_snapshot(dir).size();
}

// Under deterministic timing a snapshot is a pure function of the seed and
// the exec stream: two runs of one configuration write byte-identical
// newest snapshots. The wall-clock counters (seed_seconds, and the traced
// re-execution time the flat dual-mode run accumulates) are written as 0;
// the live results keep their measured values.
TEST(CampaignResumeTest, DeterministicTimingSnapshotsAreByteIdentical) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);
  for (MapScheme scheme : {MapScheme::kTwoLevel, MapScheme::kFlat}) {
    SCOPED_TRACE(scheme == MapScheme::kFlat ? "flat" : "two-level");
    std::vector<u8> bytes[2];
    CampaignResult results[2];
    for (int run = 0; run < 2; ++run) {
      TempDir dir(run == 0 ? "determ_a" : "determ_b");
      persist::CheckpointStore store(dir.path, persist::FaultCtx{}, true);
      CampaignConfig c = make_config();
      c.scheme = scheme;
      c.checkpoint = &store;
      c.checkpoint_interval = 1024;
      results[run] = run_campaign(target.program, seeds, c);
      bytes[run] = newest_snapshot(dir.path);
    }
    ASSERT_FALSE(bytes[0].empty());
    EXPECT_TRUE(bytes[0] == bytes[1]);
    EXPECT_GT(results[0].seed_seconds, 0.0);
    if (scheme == MapScheme::kFlat) {
      EXPECT_GT(results[0].tracing_reexec_ns, 0u);
    }
    const persist::DecodeResult d = persist::decode_snapshot(bytes[0]);
    ASSERT_TRUE(d.snapshot.has_value());
    EXPECT_EQ(d.snapshot->seed_seconds, 0.0);
    EXPECT_EQ(d.snapshot->tracing_reexec_ns, 0u);
    EXPECT_EQ(d.snapshot->execs, results[0].execs);
  }
}

// Checkpoints follow coverage, not map size: the same two-level campaign
// in a 64 kB and in an 8 MB map writes snapshots within a few KB of each
// other (a whole-map encoding would be ~1.2 MB against ~160 MB).
TEST(CampaignResumeTest, TwoLevelSnapshotBytesFollowCoverageNotMapSize) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);
  u64 bytes[2] = {0, 0};
  u32 used_key[2] = {0, 0};
  const usize sizes[2] = {64u << 10, 8u << 20};
  for (int i = 0; i < 2; ++i) {
    TempDir dir(i == 0 ? "bytes64k" : "bytes8m");
    persist::CheckpointStore store(dir.path, persist::FaultCtx{}, true);
    CampaignConfig c = make_config();
    c.map.map_size = sizes[i];
    c.checkpoint = &store;
    c.checkpoint_interval = 1024;
    auto r = run_campaign(target.program, seeds, c);
    ASSERT_GE(r.checkpoints_written, 4u);
    bytes[i] = newest_snapshot_bytes(dir.path);
    used_key[i] = r.used_key;
  }
  EXPECT_GT(used_key[0], 0u);
  EXPECT_LT(bytes[1], 64u << 10);
  EXPECT_LE(std::max(bytes[0], bytes[1]) - std::min(bytes[0], bytes[1]),
            4096u)
      << "64 kB: " << bytes[0] << " B, 8 MB: " << bytes[1] << " B";
}

// Kills a checkpointing campaign at exec `kill_at` and returns the result
// of resuming it from its newest snapshot.
CampaignResult killed_then_resumed(const GeneratedTarget& target,
                                   const std::vector<Input>& seeds,
                                   const CampaignConfig& base,
                                   const std::string& dir, u64 kill_at) {
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kInstanceKill, 0, kill_at});
  FaultInjector injector(1, plan);
  persist::CheckpointStore store1(dir, persist::FaultCtx{}, true);
  CampaignConfig c1 = base;
  c1.checkpoint = &store1;
  c1.fault = &injector;
  auto died = run_campaign(target.program, seeds, c1);
  EXPECT_TRUE(died.fault_aborted);
  EXPECT_GT(died.checkpoints_written, 0u);

  persist::CheckpointStore store2(dir, persist::FaultCtx{}, false);
  CampaignConfig c2 = base;
  c2.checkpoint = &store2;
  c2.resume_from_checkpoint = true;
  auto r = run_campaign(target.program, seeds, c2);
  EXPECT_TRUE(r.resumed);
  EXPECT_LT(r.resumed_from_execs, kill_at);
  return r;
}

void expect_same_stream(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.execs, b.execs);
  EXPECT_EQ(a.interesting, b.interesting);
  EXPECT_EQ(a.used_key, b.used_key);
  EXPECT_EQ(a.covered_positions, b.covered_positions);
  // Identity sets: a restored triage set lists them in another order.
  const auto sorted = [](auto v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(a.found_bug_ids), sorted(b.found_bug_ids));
  EXPECT_EQ(sorted(a.found_stack_hashes), sorted(b.found_stack_hashes));
  EXPECT_EQ(a.corpus, b.corpus);
}

CampaignConfig stream_config(usize map_size) {
  CampaignConfig c = make_config();
  c.map.map_size = map_size;
  c.max_execs = 6000;
  c.checkpoint_interval = 1024;
  c.keep_corpus = true;
  return c;
}

// An 8 MB two-level campaign killed mid-run resumes from its live-prefix
// snapshot onto exactly the stream of an uninterrupted run.
TEST(CampaignResumeTest, EightMegabyteTwoLevelResumeIsStreamExact) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);
  const CampaignConfig base = stream_config(8u << 20);
  TempDir straight_dir("straight8m");
  persist::CheckpointStore straight_store(straight_dir.path,
                                          persist::FaultCtx{}, true);
  CampaignConfig sc = base;
  sc.checkpoint = &straight_store;
  const CampaignResult straight = run_campaign(target.program, seeds, sc);

  TempDir dir("killed8m");
  const CampaignResult resumed =
      killed_then_resumed(target, seeds, base, dir.path, 3500);
  expect_same_stream(straight, resumed);
}

// Restoring a snapshot and building one again gives the same bytes: the
// virgin prefixes, top_rated arrays and slot keys come back exactly, with
// a used_key that spans more than one page of the lazily filled virgin
// maps. A
// campaign resumed at its spent budget restores and then writes its final
// snapshot straight away.
TEST(CampaignResumeTest, RestoredSnapshotRebuildsByteIdentically) {
  GeneratorParams gp;
  gp.seed = 41;
  gp.live_blocks = 4000;
  gp.num_bugs = 3;
  auto target = generate_target(gp);
  auto seeds = make_seed_corpus(target, 8, 1);
  TempDir dir("rebuild");
  CampaignConfig c = make_config();
  c.map.map_size = 1u << 20;
  c.metric = MetricKind::kNGram;
  c.max_execs = 3000;
  c.checkpoint_interval = 1024;

  persist::CheckpointStore store1(dir.path, persist::FaultCtx{}, true);
  c.checkpoint = &store1;
  const CampaignResult r1 = run_campaign(target.program, seeds, c);
  ASSERT_GT(r1.used_key, 4096u);
  const std::vector<u8> written = newest_snapshot(dir.path);

  persist::CheckpointStore store2(dir.path, persist::FaultCtx{}, false);
  c.checkpoint = &store2;
  c.resume_from_checkpoint = true;
  const CampaignResult r2 = run_campaign(target.program, seeds, c);
  ASSERT_TRUE(r2.resumed);
  EXPECT_EQ(r2.execs, r1.execs);
  EXPECT_EQ(r2.used_key, r1.used_key);
  EXPECT_EQ(r2.covered_positions, r1.covered_positions);
  const std::vector<u8> rebuilt = newest_snapshot(dir.path);
  // The store stamps each file with its own sequence number; restamp the
  // rebuilt snapshot with the written one's before comparing bytes.
  const persist::DecodeResult w = persist::decode_snapshot(written);
  const persist::DecodeResult r = persist::decode_snapshot(rebuilt);
  ASSERT_TRUE(w.snapshot.has_value());
  ASSERT_TRUE(r.snapshot.has_value());
  EXPECT_EQ(r.snapshot->checkpoint_seq, w.snapshot->checkpoint_seq + 1);
  EXPECT_TRUE(persist::encode_snapshot(*r.snapshot,
                                       w.snapshot->checkpoint_seq) == written);
}

}  // namespace
}  // namespace bigmap
