// Tests for the federation tier: wire codec, PeerLink session machine
// (novelty filter, session resume, go-back-N recovery, fault injection,
// fingerprint refusal, epoch fencing, eviction resync), the Gateway (pair
// and star relay with failover off and on, the election machine, the
// pinned leader), the node-report serialization run_federation speaks
// over its child pipes, the coordinator's fail-fast on dead wiring, and
// run_federation end to end against a single fleet.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "fuzzer/netfleet/federate.h"
#include "fuzzer/netfleet/gateway.h"
#include "fuzzer/netfleet/link.h"
#include "fuzzer/netfleet/transport.h"
#include "fuzzer/netfleet/wire.h"
#include "fuzzer/sync.h"
#include "persist/federation.h"
#include "persist/io.h"
#include "persist/record.h"
#include "persist/snapshot.h"
#include "target/generator.h"
#include "util/fault.h"

namespace bigmap::netfleet {
namespace {

constexpr u64 kMs = 1'000'000ull;

// ---------------------------------------------------------------- wire --

std::vector<u8> stream_with(const std::vector<Frame>& frames) {
  std::vector<u8> bytes;
  append_preamble(bytes);
  for (const Frame& f : frames) append_frame(bytes, f.type, f.payload);
  return bytes;
}

TEST(WireTest, RoundTripsEveryMessageType) {
  std::vector<u8> bytes;
  append_preamble(bytes);
  HelloMsg hello;
  hello.fingerprint = 0xDEADBEEFu;
  hello.node_id = 7;
  hello.recv_cursor = 42;
  hello.epoch = 3;
  hello.rank = 2;
  hello.log_base = 17;
  append_hello(bytes, hello);
  append_entry(bytes, 9, Input{1, 2, 3});
  append_delta(bytes, 10, Input{0xD0, 0xD1});
  append_cursor(bytes, NetMsg::kHeartbeat, 13);
  append_cursor(bytes, NetMsg::kResync, 21);
  append_cursor(bytes, NetMsg::kBye, 14);

  FrameDecoder dec;
  dec.feed(bytes);

  auto f1 = dec.next();
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(f1->type, NetMsg::kHello);
  HelloMsg h;
  ASSERT_TRUE(parse_hello(f1->payload, &h));
  EXPECT_EQ(h.proto_version, kProtocolVersion);
  EXPECT_EQ(h.fingerprint, 0xDEADBEEFu);
  EXPECT_EQ(h.node_id, 7u);
  EXPECT_EQ(h.recv_cursor, 42u);
  EXPECT_EQ(h.epoch, 3u);
  EXPECT_EQ(h.rank, 2u);
  EXPECT_EQ(h.log_base, 17u);

  auto f2 = dec.next();
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f2->type, NetMsg::kEntry);
  u64 seq = 0;
  Input data;
  ASSERT_TRUE(parse_entry(f2->payload, &seq, &data));
  EXPECT_EQ(seq, 9u);
  EXPECT_EQ(data, (Input{1, 2, 3}));

  auto fd = dec.next();
  ASSERT_TRUE(fd.has_value());
  EXPECT_EQ(fd->type, NetMsg::kDelta);
  ASSERT_TRUE(parse_delta(fd->payload, &seq, &data));
  EXPECT_EQ(seq, 10u);
  EXPECT_EQ(data, (Input{0xD0, 0xD1}));

  auto f3 = dec.next();
  ASSERT_TRUE(f3.has_value());
  u64 cursor = 0;
  ASSERT_TRUE(parse_cursor(f3->payload, &cursor));
  EXPECT_EQ(cursor, 13u);

  auto fr = dec.next();
  ASSERT_TRUE(fr.has_value());
  EXPECT_EQ(fr->type, NetMsg::kResync);
  ASSERT_TRUE(parse_cursor(fr->payload, &cursor));
  EXPECT_EQ(cursor, 21u);

  auto f4 = dec.next();
  ASSERT_TRUE(f4.has_value());
  EXPECT_EQ(f4->type, NetMsg::kBye);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_FALSE(dec.broken());
}

TEST(WireTest, DecoderHandlesArbitrarySplitPoints) {
  std::vector<u8> bytes = stream_with({{NetMsg::kEntry, {}}});
  append_entry(bytes, 1, Input{7, 8});

  // Feed one byte at a time; frames must pop out exactly when complete.
  FrameDecoder dec;
  usize frames = 0;
  for (u8 b : bytes) {
    dec.feed({&b, 1});
    while (dec.next().has_value()) ++frames;
  }
  EXPECT_EQ(frames, 2u);
  EXPECT_FALSE(dec.broken());
}

TEST(WireTest, CorruptedFrameBreaksStreamStickily) {
  std::vector<u8> bytes;
  append_preamble(bytes);
  append_entry(bytes, 0, Input{1, 2, 3, 4});
  bytes[bytes.size() - 6] ^= 0x40;  // flip a payload bit under the CRC

  FrameDecoder dec;
  dec.feed(bytes);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.broken());
  EXPECT_NE(dec.error().find("crc"), std::string::npos);

  // Sticky: more (valid) bytes cannot resurrect a torn stream.
  std::vector<u8> more;
  append_entry(more, 1, Input{5});
  dec.feed(more);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.broken());
}

TEST(WireTest, BadPreambleAndOversizeLengthAreRejected) {
  FrameDecoder dec;
  std::vector<u8> junk(8, 0x5A);
  dec.feed(junk);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.broken());

  FrameDecoder small(/*max_payload=*/8);
  std::vector<u8> bytes;
  append_preamble(bytes);
  append_entry(bytes, 0, Input(64, 1));  // payload > 8
  small.feed(bytes);
  EXPECT_FALSE(small.next().has_value());
  EXPECT_TRUE(small.broken());
}

std::vector<u8> unhex(const char* s) {
  std::vector<u8> out;
  for (; s[0] != '\0' && s[1] != '\0'; s += 2) {
    out.push_back(static_cast<u8>(std::stoi(std::string(s, 2), nullptr, 16)));
  }
  return out;
}

TEST(WireTest, FrameBytesArePinned) {
  std::vector<u8> bytes;
  append_preamble(bytes);
  EXPECT_EQ(bytes, unhex("424d535001000000"));

  HelloMsg hello;
  hello.fingerprint = 0xDEADBEEFu;
  hello.node_id = 7;
  hello.recv_cursor = 42;
  hello.epoch = 3;
  hello.rank = 2;
  hello.log_base = 17;
  bytes.clear();
  append_hello(bytes, hello);
  EXPECT_EQ(bytes, unhex("010000003000000002000000efbeadde"
                         "0000000007000000000000002a000000"
                         "00000000030000000000000002000000"
                         "1100000000000000585dcff6"));
  bytes.clear();
  append_entry(bytes, 9, Input{1, 2, 3});
  EXPECT_EQ(bytes, unhex("020000000f0000000900000000000000"
                         "030000000102039e35ce31"));
  bytes.clear();
  append_delta(bytes, 10, Input{0xD0, 0xD1});
  EXPECT_EQ(bytes, unhex("050000000e0000000a00000000000000"
                         "02000000d0d164089e15"));
  bytes.clear();
  append_cursor(bytes, NetMsg::kHeartbeat, 13);
  EXPECT_EQ(bytes, unhex("03000000080000000d00000000000000"
                         "889c7a58"));
}

// What FrameDecoder made of one stream: the frames, how many bytes they
// (and the preamble) covered, and whether the stream broke.
struct Decoded {
  std::vector<std::pair<u32, std::vector<u8>>> frames;
  usize consumed = 0;  // preamble included
  bool broken = false;
  std::string error;
};

Decoded decode_in_chunks(std::span<const u8> bytes, usize split,
                         usize chunk) {
  FrameDecoder dec(std::numeric_limits<usize>::max());
  Decoded out;
  auto drain = [&] {
    while (auto f = dec.next()) {
      out.consumed += persist::kRecordHeaderSize + f->payload.size() +
                      persist::kRecordTrailerSize;
      out.frames.emplace_back(static_cast<u32>(f->type),
                              std::move(f->payload));
    }
  };
  dec.feed(bytes.first(split));
  drain();
  for (usize pos = split; pos < bytes.size(); pos += chunk) {
    dec.feed(bytes.subspan(pos, std::min(chunk, bytes.size() - pos)));
    drain();
  }
  out.broken = dec.broken();
  out.error = dec.error();
  // Only read for streams whose preamble is valid.
  out.consumed += persist::kFileHeaderSize;
  return out;
}

// FrameDecoder and parse_records share one frame parser: on every stream
// they must agree on the frames, their order, and where and why parsing
// stopped. The decoder is fed byte by byte, and in two chunks split at
// every `split_stride`-th offset.
void expect_same_frames(std::span<const u8> bytes, const std::string& what,
                        usize split_stride) {
  const persist::ParsedFile parsed = persist::parse_records(bytes);
  std::vector<std::pair<u32, std::vector<u8>>> want;
  for (const persist::RecordView& r : parsed.records) {
    want.emplace_back(static_cast<u32>(r.type),
                      std::vector<u8>(r.payload.begin(), r.payload.end()));
  }
  std::vector<Decoded> runs;
  for (usize split = 0; split <= bytes.size(); split += split_stride) {
    runs.push_back(decode_in_chunks(bytes, split, bytes.size()));
  }
  runs.push_back(decode_in_chunks(bytes, 0, 1));
  for (usize i = 0; i < runs.size(); ++i) {
    const Decoded& d = runs[i];
    SCOPED_TRACE(what + ", run " + std::to_string(i));
    ASSERT_EQ(d.frames, want);
    switch (parsed.status) {
      case persist::LoadStatus::kOk:
      case persist::LoadStatus::kTruncatedTail:
        EXPECT_FALSE(d.broken) << d.error;
        EXPECT_EQ(d.consumed, parsed.valid_bytes);
        break;
      case persist::LoadStatus::kBadCrc:
        EXPECT_TRUE(d.broken);
        EXPECT_NE(d.error.find("crc"), std::string::npos) << d.error;
        EXPECT_EQ(d.consumed, parsed.valid_bytes);
        break;
      case persist::LoadStatus::kBadMagic:
        // A too-short buffer is a bad file but an unfinished stream.
        EXPECT_EQ(d.broken, bytes.size() >= persist::kFileHeaderSize);
        break;
      case persist::LoadStatus::kBadVersion:
        EXPECT_TRUE(d.broken);
        break;
      default:
        ADD_FAILURE() << persist::load_status_name(parsed.status);
    }
  }
}

TEST(WireTest, DecoderAgreesWithParseRecordsOnTornAndFlippedStreams) {
  persist::CampaignSnapshot snap;
  snap.scheme = 1;
  snap.seed = 9;
  snap.map_size = 4;
  snap.virgin_size = 4;
  snap.execs = 700;
  snap.virgin_queue.assign(4, 0xFF);
  snap.virgin_crash.assign(4, 0xFF);
  snap.virgin_hang.assign(4, 0xFF);
  snap.has_two_level = true;
  snap.index_bitmap.assign(4, 0xFFFFFFFFu);
  snap.bug_ids = {3};

  persist::RecordWriter journal;
  journal.append(persist::RecordType::kFederationEpoch,
                 [](persist::PayloadWriter& w) {
                   persist::put_federation_epoch(w, {2, 1, 0, 1});
                 });
  journal.append(persist::RecordType::kVirginDelta,
                 [](persist::PayloadWriter& w) { w.put_u64(0xABCD); });
  journal.append(persist::RecordType::kFleetEvent,
                 [](persist::PayloadWriter&) {});

  std::vector<u8> wire;
  append_preamble(wire);
  append_hello(wire, HelloMsg{});
  append_entry(wire, 4, Input{9, 8, 7});
  append_delta(wire, 5, Input{});
  append_cursor(wire, NetMsg::kBye, 6);

  const std::pair<const char*, std::vector<u8>> streams[] = {
      {"snapshot", persist::encode_snapshot(snap)},
      {"journal", journal.finish()},
      {"wire", wire},
  };
  // Every split of the whole streams; a sparser stride (on top of the
  // byte-by-byte feed) keeps the damaged variants quadratic, not cubic.
  constexpr usize kDamagedSplitStride = 13;
  for (const auto& [name, base] : streams) {
    expect_same_frames(base, name, 1);
    // Torn: every prefix. Flipped: one bit at every byte.
    for (usize cut = 0; cut < base.size(); ++cut) {
      expect_same_frames({base.data(), cut},
                         std::string(name) + " cut " + std::to_string(cut),
                         kDamagedSplitStride);
    }
    for (usize at = 0; at < base.size(); ++at) {
      std::vector<u8> flipped = base;
      flipped[at] ^= static_cast<u8>(1u << (at % 8));
      expect_same_frames(flipped,
                         std::string(name) + " flip " + std::to_string(at),
                         kDamagedSplitStride);
    }
  }
}

// ---------------------------------------------------------------- link --

struct LinkPair {
  std::unique_ptr<PeerLink> a;  // listener
  std::unique_ptr<PeerLink> b;  // connector
  u64 now = 1 * kMs;

  explicit LinkPair(FaultInjector* fault_a = nullptr,
                    FaultInjector* fault_b = nullptr, u64 fp = 99,
                    u64 fp_b = 0) {
    NetPeerConfig ca;
    ca.listener = true;
    ca.port = 0;  // ephemeral
    ca.session_fingerprint = fp;
    ca.heartbeat_ms = 5;
    ca.peer_timeout_ms = 500;
    ca.reconnect_initial_ms = 1;
    ca.reconnect_cap_ms = 5;
    a = std::make_unique<PeerLink>(ca, fault_a, 0);
    EXPECT_TRUE(a->ok()) << a->error();

    NetPeerConfig cb = ca;
    cb.listener = false;
    cb.port = a->listen_port();
    cb.session_fingerprint = fp_b != 0 ? fp_b : fp;
    b = std::make_unique<PeerLink>(cb, fault_b, 0);
    EXPECT_TRUE(b->ok()) << b->error();
  }

  // Pumps both sides `rounds` times, advancing fake time by step_ms.
  void pump(int rounds, u64 step_ms = 6) {
    for (int i = 0; i < rounds; ++i) {
      a->pump(now);
      b->pump(now);
      now += step_ms * kMs;
    }
  }
};

TEST(PeerLinkTest, ExchangesEntriesBothWays) {
  LinkPair p;
  p.pump(4);
  ASSERT_TRUE(p.a->connected());
  ASSERT_TRUE(p.b->connected());

  EXPECT_TRUE(p.a->offer(Input{1, 2}));
  EXPECT_TRUE(p.b->offer(Input{3, 4}));
  p.pump(4);

  auto at_b = p.b->take_received();
  ASSERT_EQ(at_b.size(), 1u);
  EXPECT_EQ(at_b[0], (Input{1, 2}));
  auto at_a = p.a->take_received();
  ASSERT_EQ(at_a.size(), 1u);
  EXPECT_EQ(at_a[0], (Input{3, 4}));
}

TEST(PeerLinkTest, NoveltyFilterSuppressesKnownContent) {
  LinkPair p;
  p.pump(4);

  EXPECT_TRUE(p.a->offer(Input{9, 9}));
  EXPECT_FALSE(p.a->offer(Input{9, 9}));  // sent before: filtered
  p.pump(4);
  ASSERT_EQ(p.b->take_received().size(), 1u);

  // Content that arrived FROM the peer is also known to it — offering it
  // back is filtered, which is what kills the echo loop at the gateway.
  EXPECT_FALSE(p.b->offer(Input{9, 9}));
  EXPECT_EQ(p.a->stats().novelty_filtered, 1u);
  EXPECT_EQ(p.b->stats().novelty_filtered, 1u);
}

TEST(PeerLinkTest, DroppedFramesAreRecoveredByRewind) {
  // Drop the first two entry frames A sends; heartbeat-driven go-back-N
  // must redeliver them in order with no duplicates accepted.
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kNetDrop, 0, 0});
  plan.triggers.push_back({FaultSite::kNetDrop, 0, 1});
  FaultInjector inj(5, plan);
  LinkPair p(&inj, nullptr);
  p.pump(4);

  EXPECT_TRUE(p.a->offer(Input{1}));
  EXPECT_TRUE(p.a->offer(Input{2}));
  EXPECT_TRUE(p.a->offer(Input{3}));
  p.pump(20);

  auto got = p.b->take_received();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], (Input{1}));
  EXPECT_EQ(got[1], (Input{2}));
  EXPECT_EQ(got[2], (Input{3}));
  EXPECT_EQ(p.a->stats().injected_drops, 2u);
  EXPECT_GE(p.a->stats().rewinds, 1u);
  EXPECT_EQ(p.b->stats().records_received, 3u);
}

TEST(PeerLinkTest, ConnResetHealsWithSessionResume) {
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kNetConnReset, 0, 6});
  FaultInjector inj(6, plan);
  LinkPair p(&inj, nullptr);
  p.pump(4);

  for (u8 i = 0; i < 20; ++i) {
    EXPECT_TRUE(p.a->offer(Input{i, 0x55}));
    p.pump(2);
  }
  p.pump(20);

  std::vector<Input> got = p.b->take_received();
  ASSERT_EQ(got.size(), 20u);
  for (u8 i = 0; i < 20; ++i) EXPECT_EQ(got[i], (Input{i, 0x55}));
  EXPECT_EQ(p.a->stats().injected_resets, 1u);
  // Both sides survived at least one reconnect.
  EXPECT_GE(p.a->stats().connects + p.b->stats().connects, 3u);
}

TEST(PeerLinkTest, ShortWriteTearsFrameButNeverDuplicatesAccepts) {
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kNetShortWrite, 0, 1});
  FaultInjector inj(7, plan);
  LinkPair p(&inj, nullptr);
  p.pump(4);

  for (u8 i = 0; i < 10; ++i) EXPECT_TRUE(p.a->offer(Input{i, 0xCC}));
  p.pump(30);

  std::vector<Input> got = p.b->take_received();
  ASSERT_EQ(got.size(), 10u);
  for (u8 i = 0; i < 10; ++i) EXPECT_EQ(got[i], (Input{i, 0xCC}));
  EXPECT_EQ(p.a->stats().injected_short_writes, 1u);
  // Exactly-once: every accepted sequence is new; replays were dropped as
  // duplicates, not re-accepted.
  EXPECT_EQ(p.b->stats().records_received, 10u);
}

TEST(PeerLinkTest, PartitionPausesThenReconciles) {
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kNetPartition, 0, 4});
  FaultInjector inj(8, plan);
  LinkPair p(&inj, nullptr);
  p.a->offer(Input{1});
  p.pump(8);  // connect, deliver, then hit the partition trigger
  ASSERT_EQ(p.a->stats().injected_partitions, 1u);
  EXPECT_TRUE(p.a->stats().partitioned);

  // During the cut, offers keep accumulating locally (graceful
  // degradation: fuzzing continues on local sync).
  for (u8 i = 0; i < 5; ++i) EXPECT_TRUE(p.a->offer(Input{i, 0x77}));
  p.pump(10);

  // Past partition_ms (default 500ms; pump steps 6ms), the link heals and
  // the backlog replays through the resume path.
  p.pump(100);
  std::vector<Input> got = p.b->take_received();
  EXPECT_EQ(got.size(), 6u);
  EXPECT_FALSE(p.a->stats().partitioned);
  EXPECT_EQ(p.a->stats().partition_ms_total, 500u);
}

TEST(PeerLinkTest, FingerprintMismatchIsFatalNotRetried) {
  LinkPair p(nullptr, nullptr, /*fp=*/111, /*fp_b=*/222);
  p.pump(10);
  // At least one side must have refused and latched the failure.
  const bool a_dead = !p.a->ok() || p.a->stats().gave_up;
  const bool b_dead = !p.b->ok() || p.b->stats().gave_up;
  EXPECT_TRUE(a_dead || b_dead);
  EXPECT_GE(p.a->stats().hello_rejected + p.b->stats().hello_rejected, 1u);
}

TEST(PeerLinkTest, PeerSilenceTriggersTimeoutAndReconnectBudget) {
  NetPeerConfig cb;
  cb.listener = false;
  cb.host = "127.0.0.1";
  cb.port = 1;  // nothing listens on port 1
  cb.session_fingerprint = 1;
  cb.reconnect_initial_ms = 1;
  cb.reconnect_cap_ms = 2;
  cb.max_reconnects = 3;
  PeerLink lone(cb, nullptr, 0);
  ASSERT_TRUE(lone.ok());
  u64 now = 1 * kMs;
  for (int i = 0; i < 50; ++i) {
    lone.pump(now);
    now += 5 * kMs;
  }
  // The retry budget is exhausted and the link degrades gracefully
  // (dead, not crashed, offers still absorbed locally).
  EXPECT_TRUE(lone.stats().gave_up);
  EXPECT_TRUE(lone.offer(Input{1}));
  EXPECT_LE(lone.stats().connects, 3u);
}

TEST(PeerLinkTest, DeltaRecordsShareReplayLogWithEntries) {
  LinkPair p;
  p.pump(4);
  ASSERT_TRUE(p.a->connected());

  EXPECT_TRUE(p.a->offer(Input{1}));
  EXPECT_TRUE(p.a->offer_delta(Input{0xD0, 0xD0}));
  EXPECT_TRUE(p.a->offer(Input{2}));
  // Deltas are state, not corpus: the novelty filter does not apply, so
  // re-shipping identical bytes is allowed.
  EXPECT_TRUE(p.a->offer_delta(Input{0xD0, 0xD0}));
  p.pump(6);

  auto entries = p.b->take_received();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0], (Input{1}));
  EXPECT_EQ(entries[1], (Input{2}));
  auto deltas = p.b->take_received_deltas();
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[0], (Input{0xD0, 0xD0}));
  // One shared sequence space: all four records accepted in order.
  EXPECT_EQ(p.a->stats().deltas_sent, 2u);
  EXPECT_EQ(p.b->stats().deltas_received, 2u);
  EXPECT_EQ(p.b->stats().records_received, 4u);
  EXPECT_EQ(p.b->stats().recv_cursor, 4u);
}

TEST(PeerLinkTest, StaleHelloIsFencedYetTeachesTheNewerEpoch) {
  // Epoch 2 listener vs. epoch 1 dialer: the stale side must never
  // exchange records — but it MUST learn the newer epoch from the
  // listener's own hello. (Regression: fencing used to drop the whole
  // connection, clearing the unflushed hello with it, so a resurrected
  // stale hub probed forever without ever observing the new epoch.)
  NetPeerConfig ca;
  ca.listener = true;
  ca.port = 0;
  ca.session_fingerprint = 44;
  ca.heartbeat_ms = 5;
  ca.peer_timeout_ms = 100;
  ca.reconnect_initial_ms = 1;
  ca.reconnect_cap_ms = 5;
  ca.epoch = 2;
  ca.rank = 1;
  PeerLink fresh(ca, nullptr, 0);
  ASSERT_TRUE(fresh.ok()) << fresh.error();

  NetPeerConfig cb = ca;
  cb.listener = false;
  cb.port = fresh.listen_port();
  cb.epoch = 1;
  cb.rank = 0;
  PeerLink stale(cb, nullptr, 0);
  ASSERT_TRUE(stale.ok()) << stale.error();

  (void)stale.offer(Input{0x5A});
  u64 now = 1 * kMs;
  for (int i = 0; i < 40; ++i) {
    fresh.pump(now);
    stale.pump(now);
    now += 6 * kMs;
  }

  EXPECT_GE(fresh.stats().stale_hellos_dropped, 1u);
  EXPECT_FALSE(fresh.connected());
  EXPECT_TRUE(fresh.take_received().empty());
  EXPECT_EQ(fresh.stats().records_received, 0u);
  // The stale side observed the fresh epoch — the signal its owner needs
  // to rejoin or fence itself.
  EXPECT_GE(stale.stats().epoch_ahead_seen, 1u);
  EXPECT_EQ(stale.observed_epoch(), 2u);
  EXPECT_EQ(stale.observed_rank(), 1u);
}

TEST(PeerLinkTest, EpochAheadSideHandsOverItsHelloBeforeClosing) {
  // The stale side reads the newer hello in the very pump that
  // establishes its session, before its own queued hello was flushed.
  // It must still hand that hello over before closing, or the newer side
  // never observes the fence. (Regression: the epoch-ahead close cleared
  // the unflushed hello, so a stale node that met an already-promoted
  // successor went unseen by it.) The stale side listens here so the
  // ordering is forced: the fresh dialer's hello waits in the accept
  // queue before the stale side ever pumps.
  NetPeerConfig ca;
  ca.listener = true;
  ca.port = 0;
  ca.session_fingerprint = 45;
  ca.heartbeat_ms = 5;
  ca.peer_timeout_ms = 100;
  ca.reconnect_initial_ms = 1;
  ca.reconnect_cap_ms = 5;
  ca.epoch = 1;
  ca.rank = 0;
  PeerLink stale(ca, nullptr, 0);
  ASSERT_TRUE(stale.ok()) << stale.error();

  NetPeerConfig cb = ca;
  cb.listener = false;
  cb.port = stale.listen_port();
  cb.epoch = 2;
  cb.rank = 1;
  PeerLink fresh(cb, nullptr, 0);
  ASSERT_TRUE(fresh.ok()) << fresh.error();

  u64 now = 1 * kMs;
  for (int i = 0; i < 3; ++i) {  // connect completes in the backlog
    fresh.pump(now);
    now += 1 * kMs;
  }
  ASSERT_GT(fresh.stats().bytes_sent, 0u);  // its hello is waiting

  stale.pump(now);  // accept, establish, read the newer hello, close
  EXPECT_EQ(stale.stats().epoch_ahead_seen, 1u);
  EXPECT_EQ(stale.observed_epoch(), 2u);
  EXPECT_GT(stale.stats().bytes_sent, 0u);

  now += 1 * kMs;
  fresh.pump(now);
  EXPECT_EQ(fresh.stats().stale_hellos_dropped, 1u);
  EXPECT_FALSE(fresh.connected());
  EXPECT_EQ(fresh.stats().records_received, 0u);
}

TEST(PeerLinkTest, CursorRewindPastEvictionForcesFullResync) {
  // A peer resuming from a cursor the bounded replay log has already
  // evicted must be routed through the documented full-resync path:
  // the gap is counted lost, a kResync fast-forwards the receiver, and
  // the exchange resumes — never a silent gap, never a stall.
  NetPeerConfig ca;
  ca.listener = true;
  ca.port = 0;
  ca.session_fingerprint = 55;
  ca.heartbeat_ms = 5;
  ca.peer_timeout_ms = 200;
  ca.reconnect_initial_ms = 1;
  ca.reconnect_cap_ms = 5;
  ca.send_log_max = 4;
  PeerLink a(ca, nullptr, 0);
  ASSERT_TRUE(a.ok()) << a.error();

  NetPeerConfig cb = ca;
  cb.listener = false;
  cb.port = a.listen_port();
  u64 now = 1 * kMs;
  auto pump_both = [&](PeerLink& b, int rounds) {
    for (int i = 0; i < rounds; ++i) {
      a.pump(now);
      b.pump(now);
      now += 6 * kMs;
    }
  };

  {
    PeerLink b(cb, nullptr, 0);
    ASSERT_TRUE(b.ok()) << b.error();
    pump_both(b, 4);
    ASSERT_TRUE(a.connected());
    for (u8 i = 0; i < 3; ++i) EXPECT_TRUE(a.offer(Input{i, 0xE0}));
    pump_both(b, 6);
    EXPECT_EQ(b.take_received().size(), 3u);

    // The peer goes silent (no pumps, no acks) while the campaign keeps
    // finding. Acked records trim the log, so eviction needs a
    // transmitted-but-UNACKED backlog: interleave offers with sender
    // pumps so send_pos_ runs ahead, then let the bound bite.
    for (u8 i = 0; i < 10; ++i) {
      EXPECT_TRUE(a.offer(Input{i, 0xE1}));
      a.pump(now);
      now += 3 * kMs;  // below the heartbeat timeout
    }
    EXPECT_GT(a.stats().log_evicted, 0u);
  }  // b dies without a goodbye; its cursor state dies with it

  // A replacement session resumes from cursor 0 — far behind log_base.
  PeerLink b2(cb, nullptr, 0);
  ASSERT_TRUE(b2.ok()) << b2.error();
  pump_both(b2, 30);
  EXPECT_TRUE(a.offer(Input{0xFF, 0xE2}));  // exchange must have resumed
  pump_both(b2, 10);

  const LinkStats sa = a.stats();
  const LinkStats sb = b2.stats();
  EXPECT_GT(sa.lost_to_eviction, 0u);
  EXPECT_GE(sa.resyncs_sent, 1u);
  EXPECT_EQ(sb.resync_skipped, sa.lost_to_eviction);
  // No silent gap: every sequence a ever assigned is accounted for as
  // either lost-to-eviction or accepted by the resumed receiver.
  const std::vector<Input> got = b2.take_received();
  EXPECT_EQ(sa.lost_to_eviction + got.size(), sa.send_next);
  EXPECT_EQ(sb.recv_cursor, sa.send_next);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.back(), (Input{0xFF, 0xE2}));
}

TEST(PeerLinkTest, OversizeEntriesAreRejectedAtOffer) {
  NetPeerConfig ca;
  ca.listener = true;
  ca.port = 0;
  ca.max_entry_size = 4;
  PeerLink link(ca, nullptr, 0);
  ASSERT_TRUE(link.ok());
  EXPECT_TRUE(link.offer(Input{1, 2, 3, 4}));
  EXPECT_FALSE(link.offer(Input{1, 2, 3, 4, 5}));
  EXPECT_EQ(link.stats().entries_offered, 1u);
}

// ------------------------------------------------------------- gateway --

// Remote models over a one-branch program: input[0] == 7 takes one edge,
// anything else the other, so {7, 0} and {7, 1} are distinct entries with
// identical coverage.
std::unique_ptr<corpus::NoveltyOracle> branch_oracle() {
  static const Program program = [] {
    Program p;
    p.blocks.resize(3);
    p.blocks[0].kind = BlockKind::kBranch;
    p.blocks[0].expected = 7;
    p.blocks[0].targets = {1, 2};
    p.validate();
    return p;
  }();
  corpus::OracleConfig oc;
  oc.map.map_size = 1u << 12;
  oc.map.huge_pages = false;
  return corpus::make_novelty_oracle(program, oc);
}

// `n` Gateway nodes, rank 0 the founding leader, wired over a real
// pre-bound listener matrix and driven by fake time from one thread — the
// in-process twin of the forked federation drills, small enough for the
// sanitizer jobs. Every hub has one worker (id 0) plus the gateway
// instance (id 1).
struct Ring {
  const u32 n;
  const bool failover;
  const Gateway::OracleFactory factory;
  std::vector<std::unique_ptr<SyncHub>> hubs;
  std::vector<std::unique_ptr<Gateway>> nodes;
  std::vector<std::vector<int>> fds;
  std::vector<std::vector<u16>> ports;
  u64 now = 1 * kMs;

  Ring(u32 n_nodes, bool failover_on,
       Gateway::OracleFactory oracles = nullptr)
      : n(n_nodes),
        failover(failover_on),
        factory(std::move(oracles)),
        fds(n, std::vector<int>(n, -1)),
        ports(n, std::vector<u16>(n, 0)) {
    for (u32 h = 0; h < n; ++h) {
      for (u32 s = 0; s < n; ++s) {
        if (h == s) continue;
        std::string err;
        fds[h][s] = tcp_listen("127.0.0.1", &ports[h][s], &err);
        EXPECT_GE(fds[h][s], 0) << err;
      }
    }
    for (u32 i = 0; i < n; ++i) {
      hubs.push_back(std::make_unique<SyncHub>(2));
      nodes.push_back(make_node(i, /*resume_probe=*/false,
                                /*stale_fatal=*/false, /*epoch=*/1));
    }
  }

  ~Ring() {
    nodes.clear();
    for (const std::vector<int>& row : fds) {
      for (int fd : row) {
        if (fd >= 0) ::close(fd);
      }
    }
  }

  std::unique_ptr<Gateway> make_node(u32 rank, bool resume_probe,
                                     bool stale_fatal, u64 epoch) {
    FederationConfig fc;
    fc.failover = failover;
    fc.rank = rank;
    fc.num_nodes = n;
    fc.initial_leader = 0;
    fc.initial_epoch = epoch;
    fc.listen_fds.assign(n, -1);
    fc.dial_ports.assign(n, 0);
    for (u32 j = 0; j < n; ++j) {
      if (j == rank) continue;
      fc.listen_fds[j] = fds[rank][j];
      fc.dial_ports[j] = ports[j][rank];
    }
    fc.link.session_fingerprint = 77;
    fc.link.node_id = rank;
    fc.link.heartbeat_ms = 5;
    fc.link.peer_timeout_ms = 60;
    fc.link.reconnect_initial_ms = 1;
    fc.link.reconnect_cap_ms = 5;
    fc.election_timeout_ms = 120;
    fc.resume_probe = resume_probe;
    fc.stale_fatal = stale_fatal;
    fc.probe_timeout_ms = 240;
    return std::make_unique<Gateway>(hubs[rank].get(), 1, fc, factory,
                                     nullptr);
  }

  // Pumps every live node `rounds` times at 6ms fake steps.
  void pump(int rounds) {
    for (int i = 0; i < rounds; ++i) {
      for (auto& g : nodes) {
        if (g != nullptr) g->pump(now);
      }
      now += 6 * kMs;
    }
  }

  void shutdown() {
    for (auto& g : nodes) {
      if (g != nullptr) g->shutdown(now);
    }
  }
};

// Both gateway behaviours hold whether or not the ranks may elect.
class GatewayTest : public ::testing::TestWithParam<bool> {};

TEST_P(GatewayTest, BridgesTwoLocalHubsWithoutEcho) {
  // Two 1-worker fleets federated as a 2-rank pair: one link each.
  Ring ring(2, /*failover=*/GetParam());
  Gateway& a = *ring.nodes[0];
  Gateway& b = *ring.nodes[1];

  // Worker 0 on side A finds something.
  EXPECT_TRUE(a.publish(0, Input{0xAB, 0xCD}));
  ring.pump(8);

  // Side B's worker imports it through its ordinary fetch.
  auto got = b.fetch_new(0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (Input{0xAB, 0xCD}));

  // No echo: nothing ever comes back to side A.
  ring.pump(8);
  EXPECT_TRUE(a.fetch_new(0).empty());
  EXPECT_EQ(a.failover_stats().net.records_received, 0u);
  EXPECT_EQ(b.failover_stats().net.records_sent, 0u);
  ring.shutdown();
}

TEST_P(GatewayTest, LeaderRelaysBetweenFollowersWithoutEcho) {
  // Rank 0 leads (one link and one remote model per follower); ranks 1
  // and 2 each hold one link to it and one model of the federation.
  Ring ring(3, /*failover=*/GetParam(), branch_oracle);
  Gateway& leader = *ring.nodes[0];
  Gateway& f1 = *ring.nodes[1];
  Gateway& f2 = *ring.nodes[2];
  ring.pump(8);

  // A follower-1 find reaches follower 2 through the leader's relay (and
  // the leader's own worker), and never comes back to follower 1.
  const Input find{7, 0};
  EXPECT_TRUE(f1.publish(0, find));
  ring.pump(12);
  auto at0 = leader.fetch_new(0);
  auto at2 = f2.fetch_new(0);
  ASSERT_EQ(at0.size(), 1u);
  EXPECT_EQ(at0[0], find);
  ASSERT_EQ(at2.size(), 1u);
  EXPECT_EQ(at2[0], find);
  ring.pump(8);
  EXPECT_TRUE(f1.fetch_new(0).empty());
  EXPECT_EQ(f1.failover_stats().net.records_received, 0u);

  // The leader folded the received entry into follower 1's model, so a
  // leader-local find with the same coverage is not re-offered to
  // follower 1 (and follower 2's model has it from the relay): both
  // models reject it and the wire stays quiet.
  const FailoverStats before = leader.failover_stats();
  EXPECT_TRUE(leader.publish(0, Input{7, 1}));
  ring.pump(8);
  const FailoverStats after = leader.failover_stats();
  EXPECT_EQ(after.oracle.rejected, before.oracle.rejected + 2);
  EXPECT_EQ(after.net.entries_offered, before.net.entries_offered);
  EXPECT_TRUE(f1.fetch_new(0).empty());
  EXPECT_TRUE(f2.fetch_new(0).empty());
  ring.shutdown();
}

INSTANTIATE_TEST_SUITE_P(Gateway, GatewayTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "FailoverOn" : "FailoverOff";
                         });

// ------------------------------------------------------------ failover --

TEST(FailoverTest, ElectsSuccessorRehomesAndFencesStaleNode) {
  Ring ring(3, /*failover=*/true);
  ring.pump(8);
  EXPECT_EQ(ring.nodes[0]->failover_stats().role, 0u);  // founding leader
  EXPECT_EQ(ring.nodes[1]->failover_stats().role, 1u);
  EXPECT_EQ(ring.nodes[2]->failover_stats().role, 1u);

  // Epoch-1 exchange: a find on node 1 reaches node 0 and node 2.
  EXPECT_TRUE(ring.nodes[1]->publish(0, Input{0xAA, 0xBB}));
  ring.pump(10);
  auto at0 = ring.nodes[0]->fetch_new(0);
  auto at2 = ring.nodes[2]->fetch_new(0);
  ASSERT_EQ(at0.size(), 1u);
  EXPECT_EQ(at0[0], (Input{0xAA, 0xBB}));
  ASSERT_EQ(at2.size(), 1u);

  // Kill the leader. Its listener sockets stay bound (the parent-held
  // matrix), so spokes see connects that never hello — exactly the
  // silence the election timeout is specified against.
  ring.nodes[0].reset();
  ring.pump(60);  // > election_timeout at 6ms steps

  const FailoverStats s1 = ring.nodes[1]->failover_stats();
  const FailoverStats s2 = ring.nodes[2]->failover_stats();
  EXPECT_EQ(s1.epoch, 2u);
  EXPECT_EQ(s1.role, 0u);  // succ(0) == 1 promoted itself
  EXPECT_EQ(s1.leader_rank, 1u);
  EXPECT_EQ(s1.elections, 1u);
  EXPECT_EQ(s1.promotions, 1u);
  EXPECT_EQ(s2.epoch, 2u);
  EXPECT_EQ(s2.role, 1u);  // re-homed spoke
  EXPECT_EQ(s2.leader_rank, 1u);
  EXPECT_EQ(s2.elections, 1u);
  EXPECT_GE(s2.rehomes, 1u);

  // Exchange works in the new epoch.
  EXPECT_TRUE(ring.nodes[2]->publish(0, Input{0xCC, 0xDD}));
  ring.pump(10);
  auto at1 = ring.nodes[1]->fetch_new(0);
  ASSERT_EQ(at1.size(), 1u);
  EXPECT_EQ(at1[0], (Input{0xCC, 0xDD}));

  // Resurrect rank 0 as a stale-fatal prober at its journaled epoch 1:
  // it must observe epoch 2 from the new leader and latch fenced — the
  // split-brain rejection — while the leader fences its hello out.
  ring.nodes[0] = ring.make_node(0, /*resume_probe=*/true,
                                 /*stale_fatal=*/true, /*epoch=*/1);
  ring.pump(30);
  const FailoverStats s0 = ring.nodes[0]->failover_stats();
  EXPECT_EQ(s0.fenced, 1u);
  EXPECT_EQ(s0.role, 3u);
  EXPECT_GE(s0.net.epoch_ahead_seen, 1u);
  EXPECT_GE(ring.nodes[1]->failover_stats().net.stale_hellos_dropped, 1u);
  // Fenced means out: node 0 exchanges nothing ever again.
  EXPECT_TRUE(ring.nodes[0]->fetch_new(0).empty());
}

TEST(FailoverTest, ResumeProbeFindsUnchangedLeaderAndRejoinsQuietly) {
  Ring ring(3, /*failover=*/true);
  ring.pump(8);
  // Node 2 restarts while the epoch-1 leader is alive and well: the probe
  // must resolve to the journaled topology without an election.
  ring.nodes[2] = ring.make_node(2, /*resume_probe=*/true,
                                 /*stale_fatal=*/false, /*epoch=*/1);
  ring.pump(20);
  const FailoverStats s2 = ring.nodes[2]->failover_stats();
  EXPECT_EQ(s2.epoch, 1u);
  EXPECT_EQ(s2.role, 1u);
  EXPECT_EQ(s2.leader_rank, 0u);
  EXPECT_EQ(s2.elections, 0u);
  EXPECT_EQ(s2.fenced, 0u);

  EXPECT_TRUE(ring.nodes[2]->publish(0, Input{0x11, 0x22}));
  ring.pump(10);
  auto at0 = ring.nodes[0]->fetch_new(0);
  ASSERT_EQ(at0.size(), 1u);
  EXPECT_EQ(at0[0], (Input{0x11, 0x22}));
}

// With failover off the founding leader is pinned: its death leaves the
// followers waiting on it, in epoch 1, without an election.
TEST(FailoverTest, FailoverOffNeverElects) {
  Ring ring(3, /*failover=*/false);
  ring.pump(8);
  ring.nodes[0].reset();
  ring.pump(60);  // > election_timeout at 6ms steps
  for (u32 r : {1u, 2u}) {
    const FailoverStats s = ring.nodes[r]->failover_stats();
    EXPECT_EQ(s.epoch, 1u) << "rank " << r;
    EXPECT_EQ(s.elections, 0u) << "rank " << r;
    EXPECT_EQ(s.role, 1u) << "rank " << r;
    EXPECT_EQ(s.leader_rank, 0u) << "rank " << r;
  }
}

// One Gateway alone in its federation, journaling to `wal`: its first
// pump journals kInit and its founding promotion.
struct LoneNode {
  SyncHub hub{2};
  std::unique_ptr<Gateway> mesh;

  explicit LoneNode(const std::string& wal) {
    FederationConfig fc;
    fc.failover = true;
    fc.num_nodes = 1;
    fc.listen_fds.assign(1, -1);
    fc.dial_ports.assign(1, 0);
    fc.link.session_fingerprint = 77;
    fc.wal_path = wal;
    mesh = std::make_unique<Gateway>(&hub, 1, fc, nullptr, nullptr);
    mesh->pump(1 * kMs);
  }
};

std::vector<u8> wal_bytes(const std::string& path) {
  std::vector<u8> out;
  std::string err;
  EXPECT_TRUE(persist::read_file(path, &out, persist::FaultCtx{}, &err))
      << err;
  return out;
}

std::string wal_dir(const char* tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       (std::string("bigmap_fedwal_") + tag + "_" +
        std::to_string(static_cast<unsigned>(::getpid()))))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(FailoverTest, TornWalTailIsTruncatedSoNewTransitionsStayReadable) {
  const std::string dir = wal_dir("torn");
  const std::string wal = persist::federation_wal_path(dir);
  persist::RecordWriter rw;
  for (u64 epoch : {4, 5}) {
    rw.append(persist::RecordType::kFederationEpoch,
              [&](persist::PayloadWriter& w) {
                persist::put_federation_epoch(w, {epoch, 0, 0, 1});
              });
  }
  std::vector<u8> bytes = rw.finish();
  bytes.resize(bytes.size() - 3);  // tear the epoch-5 record
  std::string err;
  ASSERT_TRUE(persist::write_file_atomic(wal, bytes, persist::FaultCtx{},
                                         &err))
      << err;

  LoneNode node(wal);
  EXPECT_EQ(node.mesh->failover_stats().epoch, 4u);  // resumed, torn dropped
  const std::vector<u8> after = wal_bytes(wal);
  const persist::ParsedFile parsed = persist::parse_records(after);
  EXPECT_EQ(parsed.status, persist::LoadStatus::kOk);
  ASSERT_GE(parsed.records.size(), 2u);
  persist::FederationEpochRecord last;
  ASSERT_TRUE(persist::parse_federation_epoch(parsed.records[1].payload,
                                              &last));
  EXPECT_EQ(last.epoch, 4u);
  EXPECT_EQ(last.reason, static_cast<u8>(persist::EpochReason::kInit));
  std::filesystem::remove_all(dir);
}

TEST(FailoverTest, ForeignWalIsNeverAppendedTo) {
  const std::string dir = wal_dir("foreign");
  const std::string wal = persist::federation_wal_path(dir);
  const std::vector<u8> foreign{'n', 'o', 't', ' ', 'b', 'm', 's', 'p', 1, 2};
  std::string err;
  ASSERT_TRUE(persist::write_file_atomic(wal, foreign, persist::FaultCtx{},
                                         &err))
      << err;
  LoneNode node(wal);
  EXPECT_EQ(node.mesh->failover_stats().role, 0u);  // still leads
  EXPECT_EQ(wal_bytes(wal), foreign);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------ federate --

TEST(FederateTest, NodeReportRoundTrips) {
  procfleet::ProcFleetResult r;
  NodeReport h;
  r.found_bug_ids = {3, 1, 7};
  r.found_stack_hashes = {0xAAAA, 0xBBBB};
  // Every reported counter, each set to a distinct value on the result
  // side and checked on the decoded side.
  struct Field {
    const char* name;
    u64* src;
    const u64* dst;
  };
  const std::vector<Field> fields = {
      {"total_execs", &r.total_execs, &h.total_execs},
      {"total_interesting", &r.total_interesting, &h.total_interesting},
      {"total_crashes", &r.total_crashes, &h.total_crashes},
      {"bytes_sent", &r.failover.net.bytes_sent, &h.failover.net.bytes_sent},
      {"bytes_received", &r.failover.net.bytes_received,
       &h.failover.net.bytes_received},
      {"records_sent", &r.failover.net.records_sent,
       &h.failover.net.records_sent},
      {"records_received", &r.failover.net.records_received,
       &h.failover.net.records_received},
      {"deltas_sent", &r.failover.net.deltas_sent, &h.failover.net.deltas_sent},
      {"deltas_received", &r.failover.net.deltas_received,
       &h.failover.net.deltas_received},
      {"entries_offered", &r.failover.net.entries_offered,
       &h.failover.net.entries_offered},
      {"novelty_filtered", &r.failover.net.novelty_filtered,
       &h.failover.net.novelty_filtered},
      {"duplicates_dropped", &r.failover.net.duplicates_dropped,
       &h.failover.net.duplicates_dropped},
      {"out_of_order_dropped", &r.failover.net.out_of_order_dropped,
       &h.failover.net.out_of_order_dropped},
      {"rewinds", &r.failover.net.rewinds, &h.failover.net.rewinds},
      {"connects", &r.failover.net.connects, &h.failover.net.connects},
      {"reconnects", &r.failover.net.reconnects, &h.failover.net.reconnects},
      {"heartbeat_timeouts", &r.failover.net.heartbeat_timeouts,
       &h.failover.net.heartbeat_timeouts},
      {"conn_errors", &r.failover.net.conn_errors, &h.failover.net.conn_errors},
      {"hello_rejected", &r.failover.net.hello_rejected,
       &h.failover.net.hello_rejected},
      {"injected_drops", &r.failover.net.injected_drops,
       &h.failover.net.injected_drops},
      {"injected_delays", &r.failover.net.injected_delays,
       &h.failover.net.injected_delays},
      {"injected_short_writes", &r.failover.net.injected_short_writes,
       &h.failover.net.injected_short_writes},
      {"injected_resets", &r.failover.net.injected_resets,
       &h.failover.net.injected_resets},
      {"injected_partitions", &r.failover.net.injected_partitions,
       &h.failover.net.injected_partitions},
      {"partition_ms_total", &r.failover.net.partition_ms_total,
       &h.failover.net.partition_ms_total},
      {"log_evicted", &r.failover.net.log_evicted, &h.failover.net.log_evicted},
      {"lost_to_eviction", &r.failover.net.lost_to_eviction,
       &h.failover.net.lost_to_eviction},
      {"resyncs_sent", &r.failover.net.resyncs_sent,
       &h.failover.net.resyncs_sent},
      {"resync_skipped", &r.failover.net.resync_skipped,
       &h.failover.net.resync_skipped},
      {"stale_hellos_dropped", &r.failover.net.stale_hellos_dropped,
       &h.failover.net.stale_hellos_dropped},
      {"epoch_ahead_seen", &r.failover.net.epoch_ahead_seen,
       &h.failover.net.epoch_ahead_seen},
      {"oracle.checked", &r.failover.oracle.checked,
       &h.failover.oracle.checked},
      {"oracle.accepted", &r.failover.oracle.accepted,
       &h.failover.oracle.accepted},
      {"oracle.rejected", &r.failover.oracle.rejected,
       &h.failover.oracle.rejected},
      {"oracle.deltas_exported", &r.failover.oracle.deltas_exported,
       &h.failover.oracle.deltas_exported},
      {"oracle.cells_exported", &r.failover.oracle.cells_exported,
       &h.failover.oracle.cells_exported},
      {"oracle.deltas_applied", &r.failover.oracle.deltas_applied,
       &h.failover.oracle.deltas_applied},
      {"oracle.cells_applied", &r.failover.oracle.cells_applied,
       &h.failover.oracle.cells_applied},
      {"failover.epoch", &r.failover.epoch, &h.failover.epoch},
      {"failover.elections", &r.failover.elections, &h.failover.elections},
      {"failover.promotions", &r.failover.promotions,
       &h.failover.promotions},
      {"failover.rehomes", &r.failover.rehomes, &h.failover.rehomes},
      {"failover.rejoins", &r.failover.rejoins, &h.failover.rejoins},
      {"failover.fenced", &r.failover.fenced, &h.failover.fenced},
      {"failover.handoff_reoffered", &r.failover.handoff_reoffered,
       &h.failover.handoff_reoffered},
      {"failover.dup_suppressed", &r.failover.dup_suppressed,
       &h.failover.dup_suppressed},
      {"failover.deltas_shipped", &r.failover.deltas_shipped,
       &h.failover.deltas_shipped},
      {"failover.deltas_applied", &r.failover.deltas_applied,
       &h.failover.deltas_applied},
  };
  u64 next = 1000;
  for (const Field& f : fields) *f.src = next++;
  r.failover.role = 2;
  r.failover.leader_rank = 3;
  // One completed worker, so all_completed round-trips as true.
  r.workers.resize(1);

  ASSERT_TRUE(decode_node_report(encode_node_report(r, true, ""), &h));
  EXPECT_TRUE(h.ok);
  EXPECT_TRUE(h.error.empty());
  EXPECT_EQ(h.bug_ids, (std::vector<u32>{3, 1, 7}));
  EXPECT_EQ(h.stack_hashes, (std::vector<u64>{0xAAAA, 0xBBBB}));
  EXPECT_TRUE(h.all_completed);
  for (const Field& f : fields) EXPECT_EQ(*f.dst, *f.src) << f.name;
  EXPECT_EQ(h.failover.role, 2u);
  EXPECT_EQ(h.failover.leader_rank, 3u);
}

// The registry is a published view of a gateway's FailoverStats: one
// gauge per field of the three field tables, holding that field's value.
TEST(FederateTest, PublishWritesOneGaugePerStatsField) {
  FailoverStats s;
  std::map<std::string, u64> want;
  u64 next = 1;
  for_each_prefixed_field(s, {"failover.", "netfleet.", "oracle."},
                          [&](const std::string& key, auto& v) {
                            v = static_cast<std::remove_reference_t<
                                decltype(v)>>(next);
                            want[key] = next++;
                          });
  // 12 own scalars, 28 link counters, 7 oracle counters.
  ASSERT_EQ(want.size(), 47u);
  EXPECT_EQ(s.leader_rank, want.at("failover.leader_rank"));
  EXPECT_EQ(s.net.partition_ms_total, want.at("netfleet.partition_ms_total"));
  EXPECT_EQ(s.oracle.cells_applied, want.at("oracle.cells_applied"));

  telemetry::MetricRegistry reg;
  publish(s, reg);
  const auto gauges = reg.gauges();
  const std::map<std::string, u64> have(gauges.begin(), gauges.end());
  EXPECT_EQ(have, want);
  EXPECT_TRUE(reg.counters().empty());
}

TEST(FederateTest, FailureReportCarriesError) {
  NodeReport h;
  ASSERT_TRUE(decode_node_report(
      encode_node_report(procfleet::ProcFleetResult{}, false,
                         "segment attach refused"),
      &h));
  EXPECT_FALSE(h.ok);
  EXPECT_EQ(h.error, "segment attach refused");
  EXPECT_FALSE(h.all_completed);  // empty worker list

  NodeReport none;
  EXPECT_FALSE(decode_node_report("", &none));
  EXPECT_FALSE(decode_node_report("garbage text\n", &none));
}

// ------------------------------------------------------ run_federation --

// The net chaos drill's campaign shape: a shallow planted-bug target
// every worker exhausts within its budget, deterministic timing.
procfleet::ProcFleetConfig drill_config(const std::string& dir, u32 workers,
                                        u64 seed) {
  procfleet::ProcFleetConfig fc;
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
  fc.max_restarts = 10;
  fc.backoff_initial_ms = 5;
  fc.backoff_cap_ms = 50;
  fc.checkpoint_interval = 512;
  fc.persist_dir = dir;
  fc.federation.link.heartbeat_ms = 20;
  fc.federation.link.peer_timeout_ms = 400;
  fc.federation.link.reconnect_initial_ms = 5;
  fc.federation.link.reconnect_cap_ms = 100;
  return fc;
}

// A static federation of `ranks` x 2 workers (rank r from seed 501 + 2r)
// against one fleet of the same width over the same seed ladder.
void expect_federation_matches_single_fleet(u32 ranks) {
  GeneratorParams gp;
  gp.seed = 33;
  gp.live_blocks = 200;
  gp.num_bugs = 3;
  gp.bug_min_depth = 1;
  gp.bug_max_depth = 1;
  const GeneratedTarget target = generate_target(gp);
  const std::vector<Input> seeds = make_seed_corpus(target, 4, 1);
  const std::string root =
      std::filesystem::temp_directory_path() /
      ("bigmap_run_federation_" + std::to_string(ranks) + "_" +
       std::to_string(::getpid()));
  std::filesystem::remove_all(root);

  const procfleet::ProcFleetResult single = procfleet::run_process_fleet(
      target.program, seeds, drill_config(root + "/single", 2 * ranks, 501));
  ASSERT_TRUE(single.all_completed());

  std::vector<procfleet::ProcFleetConfig> nodes;
  for (u32 r = 0; r < ranks; ++r) {
    nodes.push_back(
        drill_config(root + "/r" + std::to_string(r), 2, 501 + 2 * r));
  }
  const FederationResult fed =
      run_federation(target.program, seeds, nodes);
  std::filesystem::remove_all(root);

  ASSERT_TRUE(fed.ok) << fed.error;
  EXPECT_TRUE(fed.all_completed);
  EXPECT_EQ(fed.total_execs, u64{ranks} * 2 * 10000);
  ASSERT_EQ(fed.nodes.size(), ranks);
  for (u32 r = 0; r < ranks; ++r) {
    EXPECT_GT(fed.nodes[r].failover.net.records_sent, 0u) << "rank " << r;
    EXPECT_EQ(fed.nodes[r].failover.elections, 0u) << "rank " << r;
  }
  std::vector<u32> want = single.found_bug_ids;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(fed.found_bug_ids, want);
}

TEST(RunFederationTest, PairMatchesSingleFleet) {
  expect_federation_matches_single_fleet(2);
}

TEST(RunFederationTest, StarMatchesSingleFleet) {
  expect_federation_matches_single_fleet(3);
}

// federation.failover picks every rank's gateway; ranks that disagree
// cannot form one federation, so the harness refuses before forking.
TEST(RunFederationTest, FailoverMismatchIsRejected) {
  GeneratorParams gp;
  gp.seed = 33;
  gp.live_blocks = 200;
  const GeneratedTarget target = generate_target(gp);
  const std::vector<Input> seeds = make_seed_corpus(target, 4, 1);
  const std::string root =
      std::filesystem::temp_directory_path() /
      ("bigmap_run_federation_mismatch_" + std::to_string(::getpid()));
  std::vector<procfleet::ProcFleetConfig> nodes;
  for (u32 r = 0; r < 3; ++r) {
    nodes.push_back(
        drill_config(root + "/r" + std::to_string(r), 2, 501 + 2 * r));
    nodes.back().federation.failover = true;
  }
  nodes[2].federation.failover = false;
  const FederationResult fed = run_federation(target.program, seeds, nodes);
  EXPECT_FALSE(fed.ok);
  EXPECT_NE(fed.error.find("failover"), std::string::npos) << fed.error;
  EXPECT_TRUE(fed.nodes.empty());
  // Refused before any rank ran: nothing was written.
  EXPECT_FALSE(std::filesystem::exists(root));
}

// A gateway link that can never start — here an inherited listener that
// is already closed — fails the coordinator before any worker forks, in
// both gateway modes.
TEST(FederateTest, ClosedListenerFailsFleetFast) {
  // F_DUPFD places the descriptor far above anything the fleet opens on
  // its way to the gateway, so no file reuses the closed number.
  u16 port = 0;
  std::string err;
  const int fd = tcp_listen("127.0.0.1", &port, &err);
  ASSERT_GE(fd, 0) << err;
  const int closed_fd = ::fcntl(fd, F_DUPFD, 900);
  ASSERT_GE(closed_fd, 900);
  ::close(closed_fd);
  ::close(fd);

  GeneratorParams gp;
  gp.seed = 33;
  gp.live_blocks = 200;
  const GeneratedTarget target = generate_target(gp);
  const std::vector<Input> seeds = make_seed_corpus(target, 4, 1);
  const std::string root =
      std::filesystem::temp_directory_path() /
      ("bigmap_closed_listener_" + std::to_string(::getpid()));
  for (bool failover : {false, true}) {
    std::filesystem::remove_all(root);
    procfleet::ProcFleetConfig fc = drill_config(root, 1, 501);
    fc.federation.failover = failover;
    fc.federation.num_nodes = 2;
    fc.federation.listen_fds = {-1, closed_fd};
    fc.federation.dial_ports = {0, port};
    std::string what;
    try {
      (void)procfleet::run_process_fleet(target.program, seeds, fc);
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    EXPECT_EQ(what,
              "run_process_fleet: netfleet: fcntl(O_NONBLOCK) on inherited "
              "listener failed")
        << "failover " << failover;
  }
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace bigmap::netfleet
