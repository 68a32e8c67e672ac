// CheckpointStore / FleetStore tests: rotation, fallback-to-previous-good,
// cold starts, journal replay — and a deterministic drill of every injected
// I/O fault site (short write, corrupt read, rename failure, ENOSPC).
#include "persist/checkpoint.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "persist/fleet.h"
#include "persist/statecheck.h"
#include "util/fault.h"

namespace bigmap::persist {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const char* tag) {
    path = (fs::temp_directory_path() /
            (std::string("bigmap_ckpt_") + tag + "_" +
             std::to_string(static_cast<unsigned>(::getpid()))))
               .string();
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

CampaignSnapshot snap_with(u64 execs) {
  CampaignSnapshot s;
  s.scheme = 1;
  s.seed = 9;
  s.map_size = 4;
  s.virgin_size = 4;
  s.execs = execs;
  s.virgin_queue.assign(4, 0xFF);
  s.virgin_crash.assign(4, 0xFF);
  s.virgin_hang.assign(4, 0xFF);
  s.has_two_level = true;
  s.index_bitmap.assign(4, 0xFFFFFFFFu);
  s.bug_ids = {static_cast<u32>(execs % 97)};
  return s;
}

usize count_snaps(const std::string& dir) {
  usize n = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.path().extension() == ".bms") ++n;
  }
  return n;
}

TEST(CheckpointStoreTest, SaveLoadRoundTrip) {
  TempDir dir("roundtrip");
  CheckpointStore store(dir.path, FaultCtx{}, /*fresh=*/true);
  std::string err;
  ASSERT_TRUE(store.save(snap_with(1000), /*keep=*/2, &err)) << err;

  auto out = store.load_latest();
  ASSERT_TRUE(out.snapshot.has_value());
  EXPECT_EQ(out.snapshot->execs, 1000u);
  EXPECT_EQ(out.snapshot->checkpoint_seq, 1u);
  EXPECT_EQ(out.snapshots_skipped, 0u);

  PersistStats st = store.stats();
  EXPECT_EQ(st.checkpoints_written, 1u);
  EXPECT_EQ(st.checkpoints_loaded, 1u);
  EXPECT_GT(st.checkpoint_bytes, 0u);
  EXPECT_EQ(st.recoveries_total(), 0u);
}

TEST(CheckpointStoreTest, RotationPrunesOldest) {
  TempDir dir("rotate");
  CheckpointStore store(dir.path, FaultCtx{}, true);
  std::string err;
  for (u64 i = 1; i <= 5; ++i) {
    ASSERT_TRUE(store.save(snap_with(i * 100), /*keep=*/2, &err)) << err;
  }
  EXPECT_EQ(count_snaps(dir.path), 2u);
  auto out = store.load_latest();
  ASSERT_TRUE(out.snapshot.has_value());
  EXPECT_EQ(out.snapshot->execs, 500u);
  EXPECT_EQ(out.snapshot->checkpoint_seq, 5u);
}

TEST(CheckpointStoreTest, ResumeContinuesSequenceNumbers) {
  TempDir dir("seq");
  {
    CheckpointStore store(dir.path, FaultCtx{}, true);
    std::string err;
    ASSERT_TRUE(store.save(snap_with(100), 4, &err));
    ASSERT_TRUE(store.save(snap_with(200), 4, &err));
  }
  CheckpointStore resumed(dir.path, FaultCtx{}, /*fresh=*/false);
  EXPECT_EQ(resumed.next_seq(), 3u);
  std::string err;
  ASSERT_TRUE(resumed.save(snap_with(300), 4, &err));
  auto out = resumed.load_latest();
  ASSERT_TRUE(out.snapshot.has_value());
  EXPECT_EQ(out.snapshot->checkpoint_seq, 3u);
}

TEST(CheckpointStoreTest, FreshOpenWipesOldSnapshots) {
  TempDir dir("fresh");
  {
    CheckpointStore store(dir.path, FaultCtx{}, true);
    std::string err;
    ASSERT_TRUE(store.save(snap_with(100), 4, &err));
  }
  CheckpointStore store(dir.path, FaultCtx{}, /*fresh=*/true);
  EXPECT_EQ(count_snaps(dir.path), 0u);
  auto out = store.load_latest();
  EXPECT_FALSE(out.snapshot.has_value());
  EXPECT_EQ(store.stats().cold_starts, 1u);
}

TEST(CheckpointStoreTest, EmptyDirectoryIsColdStart) {
  TempDir dir("cold");
  CheckpointStore store(dir.path, FaultCtx{}, true);
  auto out = store.load_latest();
  EXPECT_FALSE(out.snapshot.has_value());
  EXPECT_EQ(store.stats().cold_starts, 1u);
}

TEST(CheckpointStoreTest, CorruptNewestFallsBackToPreviousGood) {
  TempDir dir("corrupt");
  CheckpointStore store(dir.path, FaultCtx{}, true);
  std::string err;
  ASSERT_TRUE(store.save(snap_with(100), 4, &err));
  ASSERT_TRUE(store.save(snap_with(200), 4, &err));

  // Flip one byte in the middle of the newest snapshot on disk.
  const std::string newest = dir.path + "/snap-2.bms";
  ASSERT_TRUE(fs::exists(newest));
  {
    std::fstream f(newest,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<long>(f.tellg());
    f.seekp(size / 2);
    char b;
    f.seekg(size / 2);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0xFF);
    f.seekp(size / 2);
    f.write(&b, 1);
  }

  auto out = store.load_latest();
  ASSERT_TRUE(out.snapshot.has_value());
  EXPECT_EQ(out.snapshot->execs, 100u);
  EXPECT_EQ(out.snapshots_skipped, 1u);
  PersistStats st = store.stats();
  EXPECT_EQ(st.fallbacks, 1u);
  EXPECT_EQ(st.recovered_bad_crc, 1u);
}

TEST(CheckpointStoreTest, TruncatedNewestFallsBackToPreviousGood) {
  TempDir dir("torn");
  CheckpointStore store(dir.path, FaultCtx{}, true);
  std::string err;
  ASSERT_TRUE(store.save(snap_with(100), 4, &err));
  ASSERT_TRUE(store.save(snap_with(200), 4, &err));

  const std::string newest = dir.path + "/snap-2.bms";
  const auto size = fs::file_size(newest);
  fs::resize_file(newest, size - 5);

  auto out = store.load_latest();
  ASSERT_TRUE(out.snapshot.has_value());
  EXPECT_EQ(out.snapshot->execs, 100u);
  PersistStats st = store.stats();
  EXPECT_EQ(st.fallbacks, 1u);
  EXPECT_EQ(st.recovered_torn_tail, 1u);
}

TEST(CheckpointStoreTest, AllSnapshotsDamagedIsCleanColdStart) {
  TempDir dir("alldead");
  CheckpointStore store(dir.path, FaultCtx{}, true);
  std::string err;
  ASSERT_TRUE(store.save(snap_with(100), 4, &err));
  ASSERT_TRUE(store.save(snap_with(200), 4, &err));
  for (const char* name : {"/snap-1.bms", "/snap-2.bms"}) {
    fs::resize_file(dir.path + name, 6);  // not even a file header
  }
  auto out = store.load_latest();
  EXPECT_FALSE(out.snapshot.has_value());
  EXPECT_EQ(out.snapshots_skipped, 2u);
  EXPECT_EQ(store.stats().cold_starts, 1u);
}

// --- injected I/O fault drills ----------------------------------------------

TEST(CheckpointFaultDrillTest, NoSpaceFailsSaveAndKeepsPrevious) {
  TempDir dir("nospace");
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kNoSpace, 0, 1});
  FaultInjector inj(5, plan);
  CheckpointStore store(dir.path, FaultCtx{&inj, 0}, true);

  std::string err;
  ASSERT_TRUE(store.save(snap_with(100), 4, &err));
  EXPECT_FALSE(store.save(snap_with(200), 4, &err));  // injected ENOSPC
  EXPECT_NE(err.find("no space"), std::string::npos) << err;
  ASSERT_TRUE(store.save(snap_with(300), 4, &err)) << err;

  auto out = store.load_latest();
  ASSERT_TRUE(out.snapshot.has_value());
  EXPECT_EQ(out.snapshot->execs, 300u);
  PersistStats st = store.stats();
  EXPECT_EQ(st.save_failures, 1u);
  EXPECT_EQ(st.checkpoints_written, 2u);
}

TEST(CheckpointFaultDrillTest, ShortWriteTearsFileAndLoadRecovers) {
  TempDir dir("shortwrite");
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kShortWrite, 0, 1});
  FaultInjector inj(5, plan);
  CheckpointStore store(dir.path, FaultCtx{&inj, 0}, true);

  std::string err;
  ASSERT_TRUE(store.save(snap_with(100), 4, &err));
  // The short write models a crash after renaming partially-flushed data:
  // the torn file lands at the final path and save reports failure.
  EXPECT_FALSE(store.save(snap_with(200), 4, &err));
  EXPECT_EQ(count_snaps(dir.path), 2u);

  auto out = store.load_latest();
  ASSERT_TRUE(out.snapshot.has_value());
  EXPECT_EQ(out.snapshot->execs, 100u);  // fell back past the torn file
  EXPECT_EQ(out.snapshots_skipped, 1u);
  PersistStats st = store.stats();
  EXPECT_EQ(st.save_failures, 1u);
  EXPECT_EQ(st.fallbacks, 1u);
  EXPECT_GE(st.recovered_torn_tail, 1u);
}

TEST(CheckpointFaultDrillTest, RenameFailLosesCommitOnly) {
  TempDir dir("renamefail");
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kRenameFail, 0, 1});
  FaultInjector inj(5, plan);
  CheckpointStore store(dir.path, FaultCtx{&inj, 0}, true);

  std::string err;
  ASSERT_TRUE(store.save(snap_with(100), 4, &err));
  EXPECT_FALSE(store.save(snap_with(200), 4, &err));
  // The commit never happened: no torn file, no temp litter.
  EXPECT_EQ(count_snaps(dir.path), 1u);

  auto out = store.load_latest();
  ASSERT_TRUE(out.snapshot.has_value());
  EXPECT_EQ(out.snapshot->execs, 100u);
  EXPECT_EQ(out.snapshots_skipped, 0u);  // nothing to fall past
}

TEST(CheckpointFaultDrillTest, CorruptReadFallsBackToPreviousGood) {
  TempDir dir("corruptread");
  CheckpointStore store(dir.path, FaultCtx{}, true);
  std::string err;
  ASSERT_TRUE(store.save(snap_with(100), 4, &err));
  ASSERT_TRUE(store.save(snap_with(200), 4, &err));

  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kCorruptRead, 0, 0});
  FaultInjector inj(5, plan);
  store.set_fault(FaultCtx{&inj, 0});

  auto out = store.load_latest();
  ASSERT_TRUE(out.snapshot.has_value());
  EXPECT_EQ(out.snapshot->execs, 100u);  // newest read came back flipped
  EXPECT_EQ(out.snapshots_skipped, 1u);
  PersistStats st = store.stats();
  EXPECT_EQ(st.recovered_bad_crc, 1u);
  EXPECT_EQ(st.fallbacks, 1u);
}

// --- fleet journal ----------------------------------------------------------

FleetFingerprint fleet_fp() {
  FleetFingerprint fp;
  fp.num_instances = 4;
  fp.base_seed = 501;
  fp.seed_stride = 1;
  fp.max_execs = 10000;
  fp.scheme = 1;
  fp.metric = 0;
  fp.map_size = 65536;
  return fp;
}

InstanceEvent event_for(u32 instance, u32 state, u64 execs) {
  InstanceEvent ev;
  ev.instance = instance;
  ev.final_state = state;
  ev.attempts = 1;
  ev.execs = execs;
  ev.segment_max_execs = 10000;
  return ev;
}

TEST(FleetStoreTest, ResumeReplaysLatestEventPerInstance) {
  TempDir dir("fleet");
  std::string err;
  {
    FleetStore store(dir.path, fleet_fp(), FaultCtx{}, /*resume=*/false);
    ASSERT_TRUE(store.ok()) << store.error();
    EXPECT_FALSE(store.resumed());
    ASSERT_TRUE(store.append_event(event_for(0, kEventRunning, 2000), &err));
    ASSERT_TRUE(store.append_event(event_for(1, kEventCompleted, 10000),
                                   &err));
    ASSERT_TRUE(store.append_event(event_for(0, kEventRunning, 4000), &err));
  }
  FleetStore resumed(dir.path, fleet_fp(), FaultCtx{}, /*resume=*/true);
  ASSERT_TRUE(resumed.ok()) << resumed.error();
  EXPECT_TRUE(resumed.resumed());
  auto e0 = resumed.last_event(0);
  ASSERT_TRUE(e0.has_value());
  EXPECT_EQ(e0->execs, 4000u);  // last event wins
  auto e1 = resumed.last_event(1);
  ASSERT_TRUE(e1.has_value());
  EXPECT_EQ(e1->final_state, kEventCompleted);
  EXPECT_FALSE(resumed.last_event(2).has_value());
  EXPECT_EQ(resumed.stats().journal_events, 3u);
}

TEST(FleetStoreTest, TornJournalTailDropsOnlyLastEvent) {
  TempDir dir("fleettorn");
  std::string err;
  {
    FleetStore store(dir.path, fleet_fp(), FaultCtx{}, false);
    ASSERT_TRUE(store.append_event(event_for(0, kEventRunning, 2000), &err));
    ASSERT_TRUE(store.append_event(event_for(0, kEventRunning, 4000), &err));
  }
  // Tear the tail: chop a few bytes off the final append.
  const std::string journal = dir.path + "/fleet.journal";
  fs::resize_file(journal, fs::file_size(journal) - 3);

  FleetStore resumed(dir.path, fleet_fp(), FaultCtx{}, true);
  ASSERT_TRUE(resumed.ok()) << resumed.error();
  EXPECT_TRUE(resumed.resumed());
  auto e0 = resumed.last_event(0);
  ASSERT_TRUE(e0.has_value());
  EXPECT_EQ(e0->execs, 2000u);  // partial final event discarded
  EXPECT_EQ(resumed.stats().journal_tail_dropped, 1u);

  // The truncation repaired the journal: appends continue cleanly.
  ASSERT_TRUE(resumed.append_event(event_for(0, kEventCompleted, 10000),
                                   &err));
  FleetStore again(dir.path, fleet_fp(), FaultCtx{}, true);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.last_event(0)->final_state, kEventCompleted);
}

TEST(FleetStoreTest, FingerprintMismatchIsAnError) {
  TempDir dir("fleetfp");
  {
    FleetStore store(dir.path, fleet_fp(), FaultCtx{}, false);
    ASSERT_TRUE(store.ok());
  }
  FleetFingerprint other = fleet_fp();
  other.max_execs = 20000;
  FleetStore resumed(dir.path, other, FaultCtx{}, true);
  EXPECT_FALSE(resumed.ok());
  EXPECT_NE(resumed.error().find("fingerprint"), std::string::npos);
}

TEST(FleetStoreTest, MissingJournalDegradesToColdStart) {
  TempDir dir("fleetmissing");
  FleetStore store(dir.path, fleet_fp(), FaultCtx{}, /*resume=*/true);
  ASSERT_TRUE(store.ok()) << store.error();
  EXPECT_FALSE(store.resumed());
  EXPECT_EQ(store.stats().cold_starts, 1u);
}

TEST(FleetStoreTest, InstanceStoresAreFreshOnlyForFreshFleets) {
  TempDir dir("fleetstores");
  std::string err;
  {
    FleetStore store(dir.path, fleet_fp(), FaultCtx{}, false);
    ASSERT_TRUE(store.instance_store(1).save(snap_with(700), 2, &err))
        << err;
  }
  {
    // Resume keeps the snapshots on disk.
    FleetStore store(dir.path, fleet_fp(), FaultCtx{}, true);
    auto out = store.instance_store(1).load_latest();
    ASSERT_TRUE(out.snapshot.has_value());
    EXPECT_EQ(out.snapshot->execs, 700u);
  }
  {
    // A fresh open wipes everything.
    FleetStore store(dir.path, fleet_fp(), FaultCtx{}, false);
    auto out = store.instance_store(1).load_latest();
    EXPECT_FALSE(out.snapshot.has_value());
  }
}

// The snapshot file-name rule is the store's: a decimal u64 between
// "snap-" and ".bms", nothing else.
TEST(SnapNameTest, ParsesOnlyDecimalU64Sequences) {
  u64 seq = 0;
  EXPECT_TRUE(parse_snap_name("snap-7.bms", &seq));
  EXPECT_EQ(seq, 7u);
  EXPECT_TRUE(parse_snap_name("snap-18446744073709551615.bms", &seq));
  EXPECT_EQ(seq, ~u64{0});
  for (const char* bad :
       {"snap-18446744073709551616.bms", "snap-36893488147419103231.bms",
        "snap-.bms", "snap-1x.bms", "snap--1.bms", "snap-+1.bms",
        "snap-1.bms.tmp", "snap-1.bm", "Snap-1.bms", "snap-1"}) {
    EXPECT_FALSE(parse_snap_name(bad, &seq)) << bad;
  }
}

// statecheck's journal-vs-disk cross-check lists snapshots by the same
// rule as the store. A stray but valid snapshot whose name holds 2^65 - 1
// is no snapshot the store would ever load, so it must not stand in for
// the missing one the journal references.
TEST(FleetStatecheckTest, OverflowingSnapshotNameCannotMaskDanglingRef) {
  TempDir dir("fleetxval");
  std::string err;
  {
    FleetStore store(dir.path, fleet_fp(), FaultCtx{}, /*resume=*/false);
    ASSERT_TRUE(store.ok()) << store.error();
    ASSERT_TRUE(store.instance_store(0).save(snap_with(700), 2, &err))
        << err;
    InstanceEvent ev = event_for(0, kEventRunning, 700);
    ev.checkpoint_seq = 1;
    ASSERT_TRUE(store.append_event(ev, &err)) << err;
  }
  EXPECT_TRUE(check_fleet_dir(dir.path, /*dump=*/false));

  // The journal now references snapshot 5, which no file holds.
  {
    FleetStore store(dir.path, fleet_fp(), FaultCtx{}, /*resume=*/true);
    ASSERT_TRUE(store.ok()) << store.error();
    InstanceEvent ev = event_for(0, kEventRunning, 900);
    ev.checkpoint_seq = 5;
    ASSERT_TRUE(store.append_event(ev, &err)) << err;
  }
  EXPECT_FALSE(check_fleet_dir(dir.path, /*dump=*/false));

  const std::string inst = dir.path + "/instance-0";
  fs::copy_file(inst + "/snap-1.bms", inst + "/snap-36893488147419103231.bms");
  CheckpointStore reader(inst, FaultCtx{}, /*fresh=*/false);
  const auto loaded = reader.load_latest();
  ASSERT_TRUE(loaded.snapshot.has_value());
  EXPECT_EQ(loaded.snapshot->checkpoint_seq, 1u);  // the store skips it
  EXPECT_FALSE(check_fleet_dir(dir.path, /*dump=*/false));
}

}  // namespace
}  // namespace bigmap::persist
