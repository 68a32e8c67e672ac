// Journal tests: creation of missing and empty files, torn and bad-CRC
// tail truncation (and none for damage a read fault put only in the
// buffer), refusal of foreign files without writing, one framed
// record per append, reset — and the open errors a journal's users must
// surface (an untruncatable torn tail). Also pins the fleet journal's
// exact bytes.
#include "persist/journal.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <functional>

#include "corpus/store.h"
#include "persist/fleet.h"
#include "util/fault.h"

namespace bigmap::persist {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const char* tag) {
    path = (fs::temp_directory_path() /
            (std::string("bigmap_journal_") + tag + "_" +
             std::to_string(static_cast<unsigned>(::getpid()))))
               .string();
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

std::vector<u8> file_bytes(const std::string& path) {
  std::vector<u8> out;
  std::string err;
  EXPECT_TRUE(read_file(path, &out, FaultCtx{}, &err)) << err;
  return out;
}

void put_file(const std::string& path, const std::vector<u8>& bytes) {
  std::string err;
  ASSERT_TRUE(write_file_atomic(path, bytes, FaultCtx{}, &err)) << err;
}

Journal::Seed tag_seed(u64 tag) {
  return [tag](RecordWriter& rw) {
    rw.append(RecordType::kFleetHeader,
              [&](PayloadWriter& w) { w.put_u64(tag); });
  };
}

bool append_u64(const Journal& j, u64 v) {
  std::string err;
  return j.append(RecordType::kFleetEvent,
                  [&](PayloadWriter& w) { w.put_u64(v); }, &err);
}

u64 payload_u64(const RecordView& r) {
  PayloadReader pr(r.payload);
  u64 v = 0;
  EXPECT_TRUE(pr.get_u64(&v));
  return v;
}

TEST(JournalTest, MissingOrEmptyFileIsCreatedAsHeaderPlusSeed) {
  TempDir dir("create");
  const std::string path = dir.path + "/j";
  Journal j(path, FaultCtx{}, tag_seed(5));
  for (int round = 0; round < 2; ++round) {
    JournalReplay rep = j.open();
    ASSERT_TRUE(rep.ok()) << rep.error;
    EXPECT_TRUE(rep.created);
    EXPECT_TRUE(rep.records.empty());
    RecordWriter expect;
    tag_seed(5)(expect);
    EXPECT_EQ(file_bytes(path), expect.finish());
    put_file(path, {});  // second round: an empty file
  }
}

TEST(JournalTest, AppendWritesOneFrameAndOpenReplaysIt) {
  TempDir dir("append");
  const std::string path = dir.path + "/j";
  Journal j(path, FaultCtx{}, tag_seed(1));
  ASSERT_TRUE(j.open().ok());
  const usize before = file_bytes(path).size();
  std::string err;
  usize size = 0;
  ASSERT_TRUE(j.append(RecordType::kFleetEvent,
                       [](PayloadWriter& w) { w.put_u64(77); }, &err, &size));
  EXPECT_EQ(size, kRecordHeaderSize + 8 + kRecordTrailerSize);
  EXPECT_EQ(file_bytes(path).size(), before + size);

  JournalReplay rep = j.open();
  ASSERT_TRUE(rep.ok()) << rep.error;
  EXPECT_FALSE(rep.created);
  EXPECT_EQ(rep.status, LoadStatus::kOk);
  EXPECT_EQ(rep.truncated_bytes, 0u);
  ASSERT_EQ(rep.records.size(), 2u);
  EXPECT_EQ(rep.records[0].type, RecordType::kFleetHeader);
  EXPECT_EQ(rep.records[1].type, RecordType::kFleetEvent);
  EXPECT_EQ(payload_u64(rep.records[1]), 77u);
}

TEST(JournalTest, TornAndBadCrcTailsAreTruncatedBeforeAppending) {
  for (const bool flip : {false, true}) {
    TempDir dir("torn");
    const std::string path = dir.path + "/j";
    Journal j(path, FaultCtx{}, tag_seed(1));
    ASSERT_TRUE(j.open().ok());
    ASSERT_TRUE(append_u64(j, 10));
    const usize good = file_bytes(path).size();
    ASSERT_TRUE(append_u64(j, 20));
    std::vector<u8> bytes = file_bytes(path);
    if (flip) {
      bytes[good + kRecordHeaderSize] ^= 0x01;  // payload of record 20
    } else {
      bytes.resize(bytes.size() - 3);
    }
    const usize damaged = bytes.size();
    put_file(path, bytes);

    JournalReplay rep = j.open();
    ASSERT_TRUE(rep.ok()) << rep.error;
    EXPECT_EQ(rep.status,
              flip ? LoadStatus::kBadCrc : LoadStatus::kTruncatedTail);
    EXPECT_EQ(rep.truncated_bytes, damaged - good);
    ASSERT_EQ(rep.records.size(), 2u);
    EXPECT_EQ(payload_u64(rep.records[1]), 10u);
    EXPECT_EQ(file_bytes(path).size(), good);

    // Appends continue from the clean boundary and are readable.
    ASSERT_TRUE(append_u64(j, 30));
    const std::vector<u8> after = file_bytes(path);
    const ParsedFile parsed = parse_records(after);
    EXPECT_EQ(parsed.status, LoadStatus::kOk);
    ASSERT_EQ(parsed.records.size(), 3u);
    EXPECT_EQ(payload_u64(parsed.records[2]), 30u);
  }
}

TEST(JournalTest, ForeignFilesAreRefusedWithoutWriting) {
  TempDir dir("foreign");
  const std::string path = dir.path + "/j";
  Journal j(path, FaultCtx{}, tag_seed(1));
  ASSERT_TRUE(j.open().ok());
  ASSERT_TRUE(append_u64(j, 10));
  const std::vector<u8> good = file_bytes(path);

  std::vector<u8> foreign = good;
  foreign[0] ^= 0xFF;
  std::vector<u8> future = good;
  future[4] = 2;  // format_version 2
  std::vector<u8> torn_foreign{'n', 'o', 't', ' ', 'b', 'm', 's', 'p', 0};
  for (const auto& [bytes, status] :
       {std::pair{foreign, LoadStatus::kBadMagic},
        std::pair{future, LoadStatus::kBadVersion},
        std::pair{torn_foreign, LoadStatus::kBadMagic}}) {
    put_file(path, bytes);
    JournalReplay rep = j.open();
    EXPECT_FALSE(rep.ok());
    EXPECT_EQ(rep.status, status);
    EXPECT_NE(rep.error.find(load_status_name(status)), std::string::npos);
    EXPECT_EQ(file_bytes(path), bytes);
  }
}

TEST(JournalTest, ResetRewritesHeaderAndSeedOnly) {
  TempDir dir("reset");
  const std::string path = dir.path + "/j";
  Journal j(path, FaultCtx{}, tag_seed(9));
  ASSERT_TRUE(j.open().ok());
  const std::vector<u8> fresh = file_bytes(path);
  ASSERT_TRUE(append_u64(j, 10));
  std::string err;
  ASSERT_TRUE(j.reset(&err)) << err;
  EXPECT_EQ(file_bytes(path), fresh);

  Journal bare(dir.path + "/bare", FaultCtx{});
  ASSERT_TRUE(bare.reset(&err)) << err;
  EXPECT_EQ(file_bytes(bare.path()).size(), kFileHeaderSize);
}

// Runs `body` in a forked child whose writes obey file modes: a root
// test process drops to the unprivileged "nobody" ids first. Returns the
// child's exit code; 99 when the ids could not be dropped.
int run_unprivileged(const std::function<int()>& body) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (::geteuid() == 0 && (::setgid(65534) != 0 || ::setuid(65534) != 0)) {
      ::_exit(99);
    }
    ::_exit(body());
  }
  int status = 0;
  if (pid < 0 || ::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(JournalTest, UntruncatableTornTailIsAnOpenError) {
  TempDir dir("rotrunc");
  const std::string path = dir.path + "/j";
  Journal j(path, FaultCtx{}, tag_seed(1));
  ASSERT_TRUE(j.open().ok());
  ASSERT_TRUE(append_u64(j, 10));
  // A read-only journal with a torn tail: open must truncate, and cannot.
  fs::resize_file(path, fs::file_size(path) - 3);
  ::chmod(dir.path.c_str(), 0755);
  ::chmod(path.c_str(), 0444);
  const std::vector<u8> before = file_bytes(path);
  const int code = run_unprivileged([&] {
    const JournalReplay rep = j.open();
    if (rep.ok()) return 1;
    if (rep.error.find("truncate") == std::string::npos) return 2;
    return 0;
  });
  ASSERT_NE(code, 99) << "could not drop privileges";
  EXPECT_EQ(code, 0);
  EXPECT_EQ(file_bytes(path), before);
}

// A read fault flips a byte in the returned buffer only. The bad CRC it
// produces must not be taken for damage on disk: open re-reads, finds the
// file whole, replays it and truncates nothing.
TEST(JournalTest, CorruptReadLeavesDurableRecordsInPlace) {
  TempDir dir("corruptread");
  const std::string path = dir.path + "/j";
  Journal clean(path, FaultCtx{}, tag_seed(1));
  ASSERT_TRUE(clean.open().ok());
  for (u64 v = 0; v < 20; ++v) ASSERT_TRUE(append_u64(clean, v));
  const std::vector<u8> before = file_bytes(path);

  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kCorruptRead, 0, 0});
  FaultInjector inj(3, plan);
  Journal faulty(path, FaultCtx{&inj, 0}, tag_seed(1));
  const JournalReplay rep = faulty.open();
  ASSERT_TRUE(rep.ok()) << rep.error;
  EXPECT_EQ(inj.stats().injected[static_cast<usize>(FaultSite::kCorruptRead)], 1u);
  EXPECT_EQ(rep.status, LoadStatus::kOk);
  EXPECT_EQ(rep.truncated_bytes, 0u);
  ASSERT_EQ(rep.records.size(), 21u);
  for (u64 v = 0; v < 20; ++v) EXPECT_EQ(payload_u64(rep.records[v + 1]), v);
  EXPECT_EQ(file_bytes(path), before);
}

// The corpus WAL under the same fault: 20 add_entry calls, then a reopen
// whose WAL read comes back flipped. Every entry survives that open and a
// fault-free one after it.
TEST(JournalTest, CorruptReadKeepsEveryCorpusWalEntry) {
  TempDir dir("corruptwal");
  const auto blob = [](u32 i) {
    return std::vector<u8>{static_cast<u8>(i), static_cast<u8>(i >> 8), 7};
  };
  {
    corpus::CorpusStore store(dir.path);
    ASSERT_TRUE(store.open(/*fresh=*/true).ok);
    for (u32 i = 0; i < 20; ++i) {
      ASSERT_TRUE(store.add_entry(blob(i), 100 + i, 0, 0,
                                  std::vector<u32>{i}));
    }
  }
  const std::vector<u8> wal_before =
      file_bytes(corpus::CorpusStore(dir.path).wal_path());

  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kCorruptRead, 0, 0});
  FaultInjector inj(9, plan);
  corpus::CorpusStore faulty(dir.path, FaultCtx{&inj, 0});
  const corpus::OpenReport rep = faulty.open(/*fresh=*/false);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(inj.stats().injected[static_cast<usize>(FaultSite::kCorruptRead)], 1u);
  EXPECT_EQ(rep.entries, 20u);
  EXPECT_EQ(file_bytes(faulty.wal_path()), wal_before);

  corpus::CorpusStore reopened(dir.path);
  ASSERT_TRUE(reopened.open(/*fresh=*/false).ok);
  EXPECT_EQ(reopened.size(), 20u);
}

// Damage that both reads see is real: it is still cut off.
TEST(JournalTest, DamageSeenByBothReadsIsTruncated) {
  TempDir dir("bothreads");
  const std::string path = dir.path + "/j";
  Journal j(path, FaultCtx{}, tag_seed(1));
  ASSERT_TRUE(j.open().ok());
  for (u64 v = 0; v < 4; ++v) ASSERT_TRUE(append_u64(j, v));
  std::vector<u8> bytes = file_bytes(path);
  bytes.back() ^= 0x01;  // last record's checksum
  put_file(path, bytes);

  const JournalReplay rep = j.open();
  ASSERT_TRUE(rep.ok()) << rep.error;
  EXPECT_EQ(rep.status, LoadStatus::kBadCrc);
  EXPECT_EQ(rep.records.size(), 4u);
  EXPECT_GT(rep.truncated_bytes, 0u);
  EXPECT_EQ(file_bytes(path).size(), bytes.size() - rep.truncated_bytes);
}

// --- fleet journal ----------------------------------------------------------

FleetFingerprint pinned_fp() {
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

TEST(FleetStoreTest, UntruncatableTornTailIsAnError) {
  TempDir dir("fleetrotrunc");
  std::string err;
  {
    FleetStore store(dir.path, pinned_fp(), FaultCtx{}, false);
    InstanceEvent ev;
    ev.execs = 2000;
    ASSERT_TRUE(store.append_event(ev, &err)) << err;
    ev.execs = 4000;
    ASSERT_TRUE(store.append_event(ev, &err)) << err;
  }
  const std::string path = dir.path + "/fleet.journal";
  fs::resize_file(path, fs::file_size(path) - 3);
  ::chmod(dir.path.c_str(), 0755);
  ::chmod(path.c_str(), 0444);
  const std::vector<u8> before = file_bytes(path);
  const int code = run_unprivileged([&] {
    FleetStore resumed(dir.path, pinned_fp(), FaultCtx{}, true);
    if (resumed.ok()) return 1;
    if (resumed.error().find("truncate") == std::string::npos) return 2;
    return 0;
  });
  ASSERT_NE(code, 99) << "could not drop privileges";
  EXPECT_EQ(code, 0);
  EXPECT_EQ(file_bytes(path), before);
}

TEST(FleetStoreTest, EmptyJournalResumesAsColdStart) {
  TempDir dir("fleetempty");
  put_file(dir.path + "/fleet.journal", {});
  FleetStore store(dir.path, pinned_fp(), FaultCtx{}, true);
  ASSERT_TRUE(store.ok()) << store.error();
  EXPECT_FALSE(store.resumed());
  EXPECT_EQ(store.stats().cold_starts, 1u);
  const std::vector<u8> bytes = file_bytes(dir.path + "/fleet.journal");
  const ParsedFile parsed = parse_records(bytes);
  ASSERT_EQ(parsed.records.size(), 1u);
  EXPECT_EQ(parsed.records[0].type, RecordType::kFleetHeader);
}

std::vector<u8> unhex(const char* s) {
  std::vector<u8> out;
  for (; s[0] != '\0' && s[1] != '\0'; s += 2) {
    out.push_back(static_cast<u8>(std::stoi(std::string(s, 2), nullptr, 16)));
  }
  return out;
}

TEST(FleetStoreTest, JournalBytesArePinned) {
  TempDir dir("fleetbytes");
  {
    FleetStore store(dir.path, pinned_fp(), FaultCtx{}, false);
    InstanceEvent ev;
    ev.instance = 2;
    ev.final_state = 1;
    ev.attempts = 3;
    ev.restarts = 2;
    ev.stalls = 1;
    ev.kills = 4;
    ev.alloc_failures = 5;
    ev.warm_restarts = 6;
    ev.execs = 10000;
    ev.interesting = 77;
    ev.crashes_total = 3;
    ev.faulted_execs = 11;
    ev.injected_hangs = 12;
    ev.base_execs = 4000;
    ev.base_interesting = 20;
    ev.base_crashes = 1;
    ev.base_faulted_execs = 2;
    ev.base_injected_hangs = 3;
    ev.segment_max_execs = 6000;
    ev.checkpoint_seq = 9;
    std::string err;
    ASSERT_TRUE(store.append_event(ev, &err)) << err;
  }
  // Header, kFleetHeader fingerprint, one kFleetEvent: the bytes every
  // earlier release wrote for this journal.
  EXPECT_EQ(file_bytes(dir.path + "/fleet.journal"),
            unhex("424d5350010000000b0000002c000000"
                  "04000000f50100000000000001000000"
                  "00000000102700000000000001000000"
                  "000000000000010000000000f926d4fa"
                  "0c000000800000000200000001000000"
                  "03000000020000000100000004000000"
                  "05000000060000001027000000000000"
                  "4d000000000000000300000000000000"
                  "0b000000000000000c00000000000000"
                  "a00f0000000000001400000000000000"
                  "01000000000000000200000000000000"
                  "03000000000000007017000000000000"
                  "0900000000000000f4420298"));
}

}  // namespace
}  // namespace bigmap::persist
