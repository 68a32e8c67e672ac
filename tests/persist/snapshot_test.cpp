// Snapshot format tests: round-trip property over randomized states, a
// committed v1 file that must be refused, a golden pin of the v2 layout,
// and byte-flip corruption drills (any single-byte flip anywhere must be
// recovered or rejected cleanly — never decoded into a different state,
// never UB; the ASan CI job runs these).
#include "persist/snapshot.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <optional>
#include <random>

#include "persist/io.h"
#include "persist/statecheck.h"
#include "util/hash.h"

namespace bigmap::persist {
namespace {

constexpr u32 kNone = 0xFFFFFFFFu;  // kNoEntry / kUnassigned

// The v1 encoding of small_snapshot() (whole-map kTopRated, kVirginMap and
// kMapState records), as the v1 writer produced it. Committed so the
// decoder's refusal of the retired layout is checked against real v1
// bytes.
const u8 kV1SmallSnapshot[] = {
    0x42, 0x4d, 0x53, 0x50, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x2c, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xf5, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x13, 0xa2, 0xf3, 0xd1, 0x02, 0x00, 0x00, 0x00, 0x58, 0x00, 0x00, 0x00,
    0x10, 0x27, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0c, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f,
    0x22, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x38, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x15, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x10, 0x65, 0x8a, 0x6a, 0x13, 0x00, 0x00, 0x00,
    0x20, 0x00, 0x00, 0x00, 0x28, 0x23, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xe8, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x28, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x40, 0xe2, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xc8, 0x36, 0xcf, 0xc0, 0x03, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x29, 0xe2, 0xc3, 0x39, 0x04, 0x00, 0x00, 0x00,
    0x18, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x62, 0x58, 0x41, 0x69, 0x12, 0x00, 0x00, 0x00,
    0x19, 0x00, 0x00, 0x00, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xb0, 0x04, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x56, 0x1f, 0x3e, 0x2d, 0x05, 0x00, 0x00,
    0x00, 0x24, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0xde, 0xad, 0xb0, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xcd,
    0xab, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x01, 0x07, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x63, 0x5a, 0x00, 0x06, 0x00, 0x00,
    0x00, 0x40, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00,
    0x00, 0xff, 0xff, 0xff, 0xff, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x64, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x32, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x86, 0xad, 0x67,
    0xf8, 0x07, 0x00, 0x00, 0x00, 0x0d, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xfe, 0xff, 0x7f, 0x4a, 0x12,
    0x9a, 0x0b, 0x07, 0x00, 0x00, 0x00, 0x0d, 0x00, 0x00, 0x00, 0x01, 0x04,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xd8,
    0x22, 0x76, 0x3a, 0x07, 0x00, 0x00, 0x00, 0x0d, 0x00, 0x00, 0x00, 0x02,
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff,
    0x16, 0x4e, 0xbc, 0x87, 0x08, 0x00, 0x00, 0x00, 0x35, 0x00, 0x00, 0x00,
    0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0x13, 0x26, 0x8a, 0x06, 0x09, 0x00, 0x00,
    0x00, 0x20, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x03, 0x00, 0x00, 0x00, 0x11, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x44, 0x44, 0x33, 0x33, 0x22, 0x22, 0x11,
    0x11, 0xce, 0x95, 0x5d, 0x1f, 0x0a, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00,
    0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x64, 0x80, 0x8b,
    0x90
};

// A two-level state whose arrays span the whole (4-position) map: the
// value kV1SmallSnapshot holds.
CampaignSnapshot small_snapshot() {
  CampaignSnapshot s;
  s.scheme = 1;
  s.metric = 0;
  s.seed = 501;
  s.instance_id = 2;
  s.map_size = 8;
  s.virgin_size = 4;
  s.checkpoint_seq = 3;
  s.execs = 10000;
  s.seed_execs = 12;
  s.seed_seconds = 0.5;
  s.interesting = 34;
  s.hangs = 1;
  s.trim_execs = 56;
  s.trimmed_bytes = 789;
  s.faulted_execs = 2;
  s.injected_hangs = 1;
  s.crashes_total = 9;
  s.crashes_afl_unique = 4;
  s.tracing_untraced_execs = 9000;
  s.tracing_traced_execs = 1000;
  s.tracing_oracle_fires = 40;
  s.tracing_reexec_ns = 123456;
  s.rng_state = {1, 2, 3, 4};
  s.mutator_rng_state = {5, 6, 7, 8};
  QueueEntrySnap e;
  e.data = {0xDE, 0xAD};
  e.exec_ns = 1200;
  e.bitmap_hash = 0xABCD;
  e.depth = 2;
  e.favored = true;
  e.was_fuzzed = true;
  e.times_selected = 7;
  s.entries.push_back(e);
  s.top_entry = {0, 0xFFFFFFFFu, 0, 0xFFFFFFFFu};
  s.top_factor = {100, 0, 50, 0};
  s.top_covered = 2;
  s.virgin_queue = {0xFF, 0xFE, 0xFF, 0x7F};
  s.virgin_crash = {0xFF, 0xFF, 0xFF, 0xFF};
  s.virgin_hang = {0xFF, 0xFF, 0xFF, 0xFF};
  s.has_two_level = true;
  s.map_keys = {0, 2};  // key 0 -> slot 0, key 2 -> slot 1
  s.used_key = 2;
  s.saturated_updates = 0;
  s.bug_ids = {3, 17};
  s.stack_hashes = {0x1111222233334444ull};
  s.in_cycle = true;
  s.cycle_qi = 1;
  s.cycle_len = 1;
  s.cycle_avg_ns = 1200;
  return s;
}

// The same campaign as a checkpoint writes it: per-position arrays over
// the live prefix [0, used_key) only.
CampaignSnapshot small_live_snapshot() {
  CampaignSnapshot s = small_snapshot();
  s.top_entry = {0, kNone};
  s.top_factor = {100, 0};
  s.top_covered = 1;
  s.virgin_queue = {0xFF, 0xFE};
  s.virgin_crash = {0xFF, 0xFF};
  s.virgin_hang = {0xFF, 0xFF};
  return s;
}

// A two-level map whose condensed bitmap filled up: every slot is taken
// and two more keys aliased onto the last one.
CampaignSnapshot saturated_snapshot() {
  CampaignSnapshot s = small_live_snapshot();
  s.map_size = 16;
  s.map_keys = {9, 3, 14, 0, 7, 12};
  s.used_key = 4;
  s.saturated_updates = 2;
  s.top_entry = {0, kNone, 0, 0};
  s.top_factor = {100, 0, 60, 70};
  s.top_covered = 3;
  s.virgin_queue = {0xFF, 0xFE, 0x7F, 0xFD};
  s.virgin_crash = {0xFF, 0xFF, 0xFF, 0xFF};
  s.virgin_hang = {0xFF, 0xFF, 0xFF, 0xFB};
  return s;
}

std::vector<u8> v1_small_bytes() {
  return {std::begin(kV1SmallSnapshot), std::end(kV1SmallSnapshot)};
}

// Re-frames `file` with its first `type` record replaced by an `as` record
// that `fill` writes (fresh CRC), so a test can plant a structurally bad
// but checksum-clean record.
template <class Fill>
std::vector<u8> with_record(std::span<const u8> file, RecordType type,
                            Fill&& fill, std::optional<RecordType> as = {}) {
  ParsedFile parsed = parse_records(file);
  EXPECT_EQ(parsed.status, LoadStatus::kOk);
  RecordWriter rw;
  bool replaced = false;
  for (const RecordView& r : parsed.records) {
    if (r.type == type && !replaced) {
      rw.append(as.value_or(type), fill);
      replaced = true;
    } else {
      rw.append(r.type, [&](PayloadWriter& w) { w.put_bytes(r.payload); });
    }
  }
  EXPECT_TRUE(replaced) << record_type_name(type);
  return rw.finish();
}

// Every file the corruption drills run over: a live-prefix snapshot and a
// saturated map.
std::vector<std::vector<u8>> drill_files() {
  return {encode_snapshot(small_live_snapshot()),
          encode_snapshot(saturated_snapshot())};
}

void expect_equal(const CampaignSnapshot& a, const CampaignSnapshot& b) {
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.metric, b.metric);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.instance_id, b.instance_id);
  EXPECT_EQ(a.map_size, b.map_size);
  EXPECT_EQ(a.virgin_size, b.virgin_size);
  EXPECT_EQ(a.checkpoint_seq, b.checkpoint_seq);
  EXPECT_EQ(a.execs, b.execs);
  EXPECT_EQ(a.seed_execs, b.seed_execs);
  EXPECT_EQ(a.seed_seconds, b.seed_seconds);
  EXPECT_EQ(a.interesting, b.interesting);
  EXPECT_EQ(a.hangs, b.hangs);
  EXPECT_EQ(a.trim_execs, b.trim_execs);
  EXPECT_EQ(a.trimmed_bytes, b.trimmed_bytes);
  EXPECT_EQ(a.faulted_execs, b.faulted_execs);
  EXPECT_EQ(a.injected_hangs, b.injected_hangs);
  EXPECT_EQ(a.crashes_total, b.crashes_total);
  EXPECT_EQ(a.crashes_afl_unique, b.crashes_afl_unique);
  EXPECT_EQ(a.tracing_untraced_execs, b.tracing_untraced_execs);
  EXPECT_EQ(a.tracing_traced_execs, b.tracing_traced_execs);
  EXPECT_EQ(a.tracing_oracle_fires, b.tracing_oracle_fires);
  EXPECT_EQ(a.tracing_reexec_ns, b.tracing_reexec_ns);
  EXPECT_EQ(a.rng_state, b.rng_state);
  EXPECT_EQ(a.mutator_rng_state, b.mutator_rng_state);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (usize i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].data, b.entries[i].data) << i;
    EXPECT_EQ(a.entries[i].exec_ns, b.entries[i].exec_ns) << i;
    EXPECT_EQ(a.entries[i].bitmap_hash, b.entries[i].bitmap_hash) << i;
    EXPECT_EQ(a.entries[i].depth, b.entries[i].depth) << i;
    EXPECT_EQ(a.entries[i].favored, b.entries[i].favored) << i;
    EXPECT_EQ(a.entries[i].was_fuzzed, b.entries[i].was_fuzzed) << i;
    EXPECT_EQ(a.entries[i].times_selected, b.entries[i].times_selected)
        << i;
  }
  EXPECT_EQ(a.top_entry, b.top_entry);
  EXPECT_EQ(a.top_factor, b.top_factor);
  EXPECT_EQ(a.top_covered, b.top_covered);
  EXPECT_EQ(a.in_cycle, b.in_cycle);
  EXPECT_EQ(a.cycle_qi, b.cycle_qi);
  EXPECT_EQ(a.cycle_len, b.cycle_len);
  EXPECT_EQ(a.cycle_avg_ns, b.cycle_avg_ns);
  EXPECT_EQ(a.virgin_queue, b.virgin_queue);
  EXPECT_EQ(a.virgin_crash, b.virgin_crash);
  EXPECT_EQ(a.virgin_hang, b.virgin_hang);
  EXPECT_EQ(a.has_two_level, b.has_two_level);
  EXPECT_EQ(a.map_keys, b.map_keys);
  EXPECT_EQ(a.index_bitmap, b.index_bitmap);
  EXPECT_EQ(a.used_key, b.used_key);
  EXPECT_EQ(a.saturated_updates, b.saturated_updates);
  EXPECT_EQ(a.bug_ids, b.bug_ids);
  EXPECT_EQ(a.stack_hashes, b.stack_hashes);
}

TEST(SnapshotFormatTest, SmallSnapshotRoundTrips) {
  // Top arrays and virgin maps hold prefixes of their own lengths: a
  // snapshot with no top_rated state and whole virgin maps is valid.
  CampaignSnapshot no_top = small_snapshot();
  no_top.top_entry.clear();
  no_top.top_factor.clear();
  no_top.top_covered = 0;
  for (const CampaignSnapshot& s : {small_snapshot(), small_live_snapshot(),
                                    saturated_snapshot(), no_top}) {
    DecodeResult d = decode_snapshot(encode_snapshot(s));
    ASSERT_EQ(d.status, LoadStatus::kOk);
    ASSERT_TRUE(d.snapshot.has_value());
    expect_equal(s, *d.snapshot);
  }
}

// Property: any structurally valid snapshot round-trips exactly. States are
// randomized from fixed seeds so failures replay.
TEST(SnapshotFormatTest, RandomizedStatesRoundTrip) {
  for (u64 seed = 1; seed <= 24; ++seed) {
    std::mt19937_64 rng(seed);
    auto pick = [&](u64 bound) { return rng() % bound; };

    CampaignSnapshot s;
    s.scheme = static_cast<u32>(pick(2));
    s.metric = static_cast<u32>(pick(3));
    s.seed = rng();
    s.instance_id = static_cast<u32>(pick(16));
    s.map_size = 1 + pick(64);
    s.virgin_size = 1 + pick(64);
    s.checkpoint_seq = 1 + pick(1000);
    s.execs = rng();
    s.seed_execs = rng();
    s.seed_seconds = static_cast<double>(pick(1000)) / 8.0;
    s.interesting = rng();
    s.hangs = rng();
    s.trim_execs = rng();
    s.trimmed_bytes = rng();
    s.faulted_execs = rng();
    s.injected_hangs = rng();
    s.crashes_total = rng();
    s.crashes_afl_unique = rng();
    s.tracing_untraced_execs = rng();
    s.tracing_traced_execs = rng();
    s.tracing_oracle_fires = rng();
    s.tracing_reexec_ns = rng();
    for (u64& v : s.rng_state) v = rng();
    for (u64& v : s.mutator_rng_state) v = rng();

    const usize num_entries = pick(12);
    for (usize i = 0; i < num_entries; ++i) {
      QueueEntrySnap e;
      e.data.resize(pick(64));  // empty inputs allowed
      for (u8& b : e.data) b = static_cast<u8>(rng());
      e.exec_ns = rng();
      e.bitmap_hash = static_cast<u32>(rng());
      e.depth = static_cast<u32>(pick(40));
      e.favored = pick(2) != 0;
      e.was_fuzzed = pick(2) != 0;
      e.times_selected = pick(100);
      s.entries.push_back(std::move(e));
    }

    // Two-level states hold a reachable slot->key log (saturated on every
    // third seed) and the live prefix [0, used_key); flat states hold
    // whole arrays.
    s.has_two_level = pick(2) != 0;
    usize live = static_cast<usize>(s.virgin_size);
    if (s.has_two_level) {
      s.map_size = s.virgin_size + pick(64);
      const u64 n = seed % 3 == 0 ? std::min(s.map_size, s.virgin_size + 3)
                                  : pick(s.virgin_size + 1);
      std::vector<u32> keys(static_cast<usize>(s.map_size));
      std::iota(keys.begin(), keys.end(), 0u);
      std::shuffle(keys.begin(), keys.end(), rng);
      keys.resize(static_cast<usize>(n));
      s.map_keys = keys;
      s.used_key = static_cast<u32>(std::min(n, s.virgin_size));
      s.saturated_updates = n - s.used_key;
      live = s.used_key;
    }

    s.top_entry.resize(live);
    s.top_factor.resize(live);
    for (usize i = 0; i < live; ++i) {
      s.top_entry[i] = pick(2) != 0 ? static_cast<u32>(pick(num_entries + 1))
                                    : kNone;
      s.top_factor[i] = rng();
    }
    s.top_covered = pick(live + 1);

    for (auto* v : {&s.virgin_queue, &s.virgin_crash, &s.virgin_hang}) {
      v->resize(live);
      for (u8& b : *v) b = static_cast<u8>(rng());
    }

    s.bug_ids.resize(pick(8));
    for (u32& v : s.bug_ids) v = static_cast<u32>(rng());
    s.stack_hashes.resize(pick(8));
    for (u64& v : s.stack_hashes) v = rng();

    s.in_cycle = pick(2) != 0;
    if (s.in_cycle) {
      s.cycle_len = pick(num_entries + 1);
      s.cycle_qi = pick(s.cycle_len + 1);
      s.cycle_avg_ns = rng();
    }

    DecodeResult d = decode_snapshot(encode_snapshot(s));
    ASSERT_EQ(d.status, LoadStatus::kOk) << "seed " << seed;
    ASSERT_TRUE(d.snapshot.has_value()) << "seed " << seed;
    expect_equal(s, *d.snapshot);
  }
}

// The committed v1 file is refused: record sequence, size and CRC pin the
// fixture itself, and its whole-map records make it a bad version with no
// snapshot.
TEST(SnapshotFormatTest, GoldenV1Layout) {
  const std::vector<u8> bytes = v1_small_bytes();

  ParsedFile parsed = parse_records(bytes);
  ASSERT_EQ(parsed.status, LoadStatus::kOk);
  const RecordType expected_sequence[] = {
      RecordType::kCampaignHeader, RecordType::kCounters,
      RecordType::kTracingState,   RecordType::kRngState,
      RecordType::kQueueMeta,      RecordType::kCycleCursor,
      RecordType::kQueueEntry,     RecordType::kTopRated,
      RecordType::kVirginMap,      RecordType::kVirginMap,
      RecordType::kVirginMap,      RecordType::kMapState,
      RecordType::kTriage,         RecordType::kCommit,
  };
  ASSERT_EQ(parsed.records.size(), std::size(expected_sequence));
  for (usize i = 0; i < parsed.records.size(); ++i) {
    EXPECT_EQ(parsed.records[i].type, expected_sequence[i]) << i;
  }
  EXPECT_EQ(bytes.size(), 685u);
  EXPECT_EQ(crc32({bytes.data(), bytes.size()}), 0x75811041u);

  DecodeResult d = decode_snapshot(bytes);
  EXPECT_EQ(d.status, LoadStatus::kBadVersion);
  EXPECT_FALSE(d.snapshot.has_value());
}

// Golden pin of the v2 layout: record sequence, file size, and a CRC over
// the whole encoding of a fixed snapshot. Any change to the encoding trips
// this test — re-pin deliberately, and keep files already written
// decodable or refused.
TEST(SnapshotFormatTest, GoldenV2Layout) {
  const std::vector<u8> bytes = encode_snapshot(small_live_snapshot());

  ParsedFile parsed = parse_records(bytes);
  ASSERT_EQ(parsed.status, LoadStatus::kOk);
  const RecordType expected_sequence[] = {
      RecordType::kCampaignHeader,  RecordType::kCounters,
      RecordType::kTracingState,    RecordType::kRngState,
      RecordType::kQueueMeta,       RecordType::kCycleCursor,
      RecordType::kQueueEntry,      RecordType::kTopRatedPrefix,
      RecordType::kVirginPrefix,    RecordType::kVirginPrefix,
      RecordType::kVirginPrefix,    RecordType::kMapKeys,
      RecordType::kTriage,          RecordType::kCommit,
  };
  ASSERT_EQ(parsed.records.size(), std::size(expected_sequence));
  for (usize i = 0; i < parsed.records.size(); ++i) {
    EXPECT_EQ(parsed.records[i].type, expected_sequence[i]) << i;
  }

  // The per-position records: [u64 full][u64 n][n u32][u64 n][n u64] and
  // [u8 kind][u64 full][u64 n][n bytes]; the index is [u8 two-level]
  // [u32 used_key][u64 saturated][u64 n][n u32 keys].
  EXPECT_EQ(parsed.records[7].payload.size(), 8u + 8 + 2 * 4 + 8 + 2 * 8);
  EXPECT_EQ(parsed.records[8].payload.size(), 1u + 8 + 8 + 2);
  EXPECT_EQ(parsed.records[11].payload.size(), 1u + 4 + 8 + 8 + 2 * 4);

  EXPECT_EQ(bytes.size(), 663u);
  EXPECT_EQ(crc32({bytes.data(), bytes.size()}), 0x93659b10u);
}

// A two-level checkpoint's size follows its live prefix, not the map: the
// same coverage in a 64x larger map encodes to the same number of bytes.
TEST(SnapshotFormatTest, TwoLevelSizeIsIndependentOfMapSize) {
  CampaignSnapshot big = small_live_snapshot();
  big.map_size = 8u << 20;
  big.virgin_size = 8u << 20;
  EXPECT_EQ(encode_snapshot(big).size(),
            encode_snapshot(small_live_snapshot()).size());
  DecodeResult d = decode_snapshot(encode_snapshot(big));
  ASSERT_EQ(d.status, LoadStatus::kOk);
  expect_equal(big, *d.snapshot);
}

// The stamped form writes the given sequence number in place of the
// struct's, and leaves every other byte alone.
TEST(SnapshotFormatTest, StampedEncodingOverridesSequence) {
  CampaignSnapshot s = small_live_snapshot();
  const std::vector<u8> stamped = encode_snapshot(s, 42);
  s.checkpoint_seq = 42;
  EXPECT_EQ(stamped, encode_snapshot(s));
}

// A whole-map index (TwoLevelCoverageMap::export_state) encodes as the
// slot->key log it implies; one no map can reach encodes as an empty log
// and is rejected on decode.
TEST(SnapshotFormatTest, WholeIndexEncodesAsSlotKeys) {
  CampaignSnapshot s = saturated_snapshot();
  s.map_keys.clear();
  s.index_bitmap.assign(16, kNone);
  const u32 order[] = {9, 3, 14, 0, 7, 12};  // allocation order
  for (u32 i = 0; i < 6; ++i) s.index_bitmap[order[i]] = std::min(i, 3u);
  DecodeResult d = decode_snapshot(encode_snapshot(s));
  ASSERT_EQ(d.status, LoadStatus::kOk);
  // Slot order first, then the aliased keys in key order.
  EXPECT_EQ(d.snapshot->map_keys, (std::vector<u32>{9, 3, 14, 0, 7, 12}));
  EXPECT_TRUE(d.snapshot->index_bitmap.empty());

  s.index_bitmap[1] = 1;  // a second key on a non-final slot
  EXPECT_EQ(decode_snapshot(encode_snapshot(s)).status,
            LoadStatus::kBadPayload);
}

// Golden pin of the kTracingState record itself (the PR's additive record,
// following the kCycleCursor precedent): payload is exactly 4 little-endian
// u64s in untraced/traced/fires/reexec_ns order. The byte-level pin keeps
// the record decodable by every future reader.
TEST(SnapshotFormatTest, GoldenTracingStateRecordLayout) {
  const std::vector<u8> bytes = encode_snapshot(small_snapshot());
  ParsedFile parsed = parse_records(bytes);
  ASSERT_EQ(parsed.status, LoadStatus::kOk);

  const RecordView* rec = nullptr;
  for (const RecordView& r : parsed.records) {
    if (r.type == RecordType::kTracingState) rec = &r;
  }
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->payload.size(), 32u);

  const auto le64 = [&](usize off) {
    u64 v = 0;
    for (usize i = 0; i < 8; ++i) {
      v |= static_cast<u64>(rec->payload[off + i]) << (8 * i);
    }
    return v;
  };
  EXPECT_EQ(le64(0), 9000u);    // tracing_untraced_execs
  EXPECT_EQ(le64(8), 1000u);    // tracing_traced_execs
  EXPECT_EQ(le64(16), 40u);     // tracing_oracle_fires
  EXPECT_EQ(le64(24), 123456u); // tracing_reexec_ns
}

// A snapshot encoded WITHOUT the kTracingState record (a pre-tracing
// writer) must decode fine with zeroed tracing counters — the record is
// additive, not versioned.
TEST(SnapshotFormatTest, MissingTracingStateRecordDecodesAsZeros) {
  const std::vector<u8> bytes = encode_snapshot(small_snapshot());
  ParsedFile parsed = parse_records(bytes);
  ASSERT_EQ(parsed.status, LoadStatus::kOk);

  // Re-encode the file dropping the kTracingState record (header + every
  // other record verbatim — records are self-contained, so splicing one
  // out keeps the rest valid).
  std::vector<u8> stripped(bytes.begin(),
                           bytes.begin() + static_cast<long>(kFileHeaderSize));
  usize off = kFileHeaderSize;
  for (const RecordView& r : parsed.records) {
    const usize rec_size =
        kRecordHeaderSize + r.payload.size() + kRecordTrailerSize;
    if (r.type != RecordType::kTracingState) {
      stripped.insert(stripped.end(), bytes.begin() + static_cast<long>(off),
                      bytes.begin() + static_cast<long>(off + rec_size));
    }
    off += rec_size;
  }

  DecodeResult d = decode_snapshot(stripped);
  ASSERT_EQ(d.status, LoadStatus::kOk);
  ASSERT_TRUE(d.snapshot.has_value());
  EXPECT_EQ(d.snapshot->tracing_untraced_execs, 0u);
  EXPECT_EQ(d.snapshot->tracing_traced_execs, 0u);
  EXPECT_EQ(d.snapshot->tracing_oracle_fires, 0u);
  EXPECT_EQ(d.snapshot->tracing_reexec_ns, 0u);
  EXPECT_EQ(d.snapshot->execs, 10000u);  // everything else survives
}

// Corruption drill: flipping any single byte anywhere in the file must
// yield a clean rejection (status != kOk, no snapshot) — the CRC per
// record plus the header checks leave no byte uncovered.
TEST(SnapshotFormatTest, FlipAnyByteRejectsCleanly) {
  for (const std::vector<u8>& base : drill_files()) {
    for (usize i = 0; i < base.size(); ++i) {
      std::vector<u8> corrupt = base;
      corrupt[i] ^= 0xFF;
      DecodeResult d = decode_snapshot(corrupt);
      EXPECT_NE(d.status, LoadStatus::kOk) << "byte " << i;
      EXPECT_FALSE(d.snapshot.has_value()) << "byte " << i;
    }
  }
}

// Truncation drill: every prefix of the file must be rejected cleanly —
// a torn write can stop after any byte.
TEST(SnapshotFormatTest, EveryTruncationRejectsCleanly) {
  for (const std::vector<u8>& base : drill_files()) {
    for (usize len = 0; len < base.size(); ++len) {
      DecodeResult d = decode_snapshot({base.data(), len});
      EXPECT_NE(d.status, LoadStatus::kOk) << "len " << len;
      EXPECT_FALSE(d.snapshot.has_value()) << "len " << len;
    }
  }
}

// Cross-check drills: internally inconsistent snapshots are rejected as
// bad payloads even though every record checksums cleanly.
TEST(SnapshotFormatTest, StructuralMismatchesAreBadPayload) {
  const auto bad = [](const CampaignSnapshot& s) {
    return decode_snapshot(encode_snapshot(s)).status ==
           LoadStatus::kBadPayload;
  };
  {
    CampaignSnapshot s = small_snapshot();
    s.virgin_crash.push_back(0xFF);  // virgin longer than the map
    EXPECT_TRUE(bad(s));
  }
  {
    CampaignSnapshot s = small_live_snapshot();
    s.virgin_hang.pop_back();  // live prefixes disagree
    EXPECT_TRUE(bad(s));
  }
  {
    CampaignSnapshot s = small_snapshot();
    s.top_factor.pop_back();  // top arrays disagree
    EXPECT_TRUE(bad(s));
  }
  {
    CampaignSnapshot s = small_snapshot();
    s.used_key = static_cast<u32>(s.virgin_size) + 1;  // bump past the map
    EXPECT_TRUE(bad(s));
  }
  {
    CampaignSnapshot s = small_live_snapshot();
    s.map_keys = {0, 8};  // key outside the map
    EXPECT_TRUE(bad(s));
  }
  {
    CampaignSnapshot s = small_live_snapshot();
    s.map_keys = {2, 2};  // one key allocated twice
    EXPECT_TRUE(bad(s));
  }
  {
    CampaignSnapshot s = small_live_snapshot();
    s.map_keys = {0, 2, 5};  // log longer than used_key + saturated
    EXPECT_TRUE(bad(s));
  }
  {
    CampaignSnapshot s = saturated_snapshot();
    s.used_key = 3;  // aliasing before the bitmap is full
    s.saturated_updates = 3;
    EXPECT_TRUE(bad(s));
  }
  const std::vector<u8> v2 = encode_snapshot(small_live_snapshot());
  // A prefix record whose full size disagrees with the header.
  EXPECT_EQ(decode_snapshot(with_record(v2, RecordType::kVirginPrefix,
                                        [](PayloadWriter& w) {
                                          w.put_u8(0);
                                          w.put_u64(5);
                                          w.put_u64(2);
                                          w.put_bytes({{0xFF, 0xFE}});
                                        }))
                .status,
            LoadStatus::kBadPayload);
  // A v1 whole-map record in a v2 file: kTopRated in place of the prefix
  // record is refused like a v1 file.
  EXPECT_EQ(decode_snapshot(with_record(
                                v2, RecordType::kTopRatedPrefix,
                                [](PayloadWriter& w) {
                                  w.put_u64(4);
                                  for (u32 v : {0u, kNone, kNone, kNone}) {
                                    w.put_u32(v);
                                  }
                                  w.put_u64(4);
                                  for (u64 v : {100u, 0u, 0u, 0u}) {
                                    w.put_u64(v);
                                  }
                                },
                                RecordType::kTopRated))
                .status,
            LoadStatus::kBadVersion);
  // A whole-map index that does not cover the map, and ones no map can
  // reach (two keys on one slot, a slot past used_key), encode to logs
  // the decoder rejects.
  const auto index_status = [](std::vector<u32> index) {
    CampaignSnapshot s = small_live_snapshot();
    s.map_keys.clear();
    s.index_bitmap = std::move(index);
    return decode_snapshot(encode_snapshot(s)).status;
  };
  EXPECT_EQ(index_status({0, kNone, 1, kNone, kNone, kNone, kNone, kNone}),
            LoadStatus::kOk);
  EXPECT_EQ(index_status({0, kNone, 1, kNone, kNone, kNone, kNone}),
            LoadStatus::kBadPayload);
  EXPECT_EQ(index_status({0, 0, 1, kNone, kNone, kNone, kNone, kNone}),
            LoadStatus::kBadPayload);
  EXPECT_EQ(index_status({0, kNone, 2, kNone, kNone, kNone, kNone, kNone}),
            LoadStatus::kBadPayload);
}

// Element counts are bounded by the bytes left in the payload before
// anything is allocated: a CRC-valid record declaring 2^62 + 1 elements is
// a bad payload, not a length_error or an out-of-memory abort.
TEST(SnapshotFormatTest, HugeElementCountsAreBadPayload) {
  const std::vector<u8> v2 = encode_snapshot(small_live_snapshot());
  const u64 huge = 0x4000000000000001ull;
  EXPECT_EQ(decode_snapshot(with_record(v2, RecordType::kTriage,
                                        [&](PayloadWriter& w) {
                                          w.put_u64(huge);
                                          w.put_u32(3);
                                        }))
                .status,
            LoadStatus::kBadPayload);
  EXPECT_EQ(decode_snapshot(with_record(v2, RecordType::kMapKeys,
                                        [&](PayloadWriter& w) {
                                          w.put_u8(1);
                                          w.put_u32(2);
                                          w.put_u64(0);
                                          w.put_u64(huge);
                                          w.put_u32(0);
                                        }))
                .status,
            LoadStatus::kBadPayload);
  EXPECT_EQ(decode_snapshot(with_record(v2, RecordType::kQueueMeta,
                                        [&](PayloadWriter& w) {
                                          w.put_u64(huge);
                                          w.put_u64(2);
                                          w.put_u64(1);
                                        }))
                .status,
            LoadStatus::kBadPayload);
}

// A snapshot without its commit marker — torn between the last record and
// the commit — parses as records but is rejected as a whole.
TEST(SnapshotFormatTest, MissingCommitIsRejected) {
  const CampaignSnapshot s = small_snapshot();
  const std::vector<u8> whole = encode_snapshot(s);
  ParsedFile parsed = parse_records(whole);
  ASSERT_EQ(parsed.records.back().type, RecordType::kCommit);
  const usize commit_start =
      static_cast<usize>(parsed.records.back().payload.data() -
                         whole.data()) -
      kRecordHeaderSize;
  DecodeResult d = decode_snapshot({whole.data(), commit_start});
  EXPECT_EQ(d.status, LoadStatus::kNoCommit);
  EXPECT_FALSE(d.snapshot.has_value());
}

// statecheck validates a v2 file and prints its live length, and reports a
// v1 file as the bad version the decoder refuses.
TEST(StatecheckTest, ValidatesBothLayoutsAndPrintsLive) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("bigmap_statecheck_" + std::to_string(::getpid()) + ".bms"))
          .string();
  const auto check = [&](const std::vector<u8>& bytes, bool* ok) {
    std::string err;
    EXPECT_TRUE(write_file_atomic(path, bytes, FaultCtx{}, &err)) << err;
    testing::internal::CaptureStdout();
    *ok = check_snapshot_file(path, /*dump=*/true);
    return testing::internal::GetCapturedStdout();
  };
  bool ok = false;
  std::string out = check(v1_small_bytes(), &ok);
  EXPECT_FALSE(ok) << out;
  EXPECT_NE(out.find("INVALID (bad-version)"), std::string::npos) << out;
  out = check(encode_snapshot(small_live_snapshot()), &ok);
  EXPECT_TRUE(ok) << out;
  EXPECT_NE(out.find("  live=2 of 4 positions"), std::string::npos) << out;
  CampaignSnapshot dup = small_live_snapshot();
  dup.map_keys = {2, 2};
  out = check(encode_snapshot(dup), &ok);
  EXPECT_FALSE(ok) << out;
  EXPECT_NE(out.find("INVALID (bad-payload)"), std::string::npos) << out;
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace bigmap::persist
