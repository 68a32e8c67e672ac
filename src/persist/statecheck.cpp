// fsck-style checks behind the statecheck CLI (see statecheck.h).
#include "persist/statecheck.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "corpus/novelty.h"
#include "corpus/store.h"
#include "persist/checkpoint.h"
#include "persist/federation.h"
#include "persist/fleet.h"
#include "persist/io.h"
#include "persist/record.h"
#include "persist/snapshot.h"

namespace bigmap::persist {

namespace fs = std::filesystem;

namespace {

void dump_records(const ParsedFile& parsed) {
  for (const RecordView& rec : parsed.records) {
    std::printf("  record %-16s %zu bytes\n", record_type_name(rec.type),
                rec.payload.size());
  }
}

void dump_snapshot(const CampaignSnapshot& s) {
  std::printf("  live=%zu of %llu positions\n", s.virgin_queue.size(),
              static_cast<unsigned long long>(s.virgin_size));
  std::printf(
      "  scheme=%u metric=%u seed=%llu instance=%u map_size=%llu "
      "virgin_size=%llu seq=%llu\n",
      s.scheme, s.metric, static_cast<unsigned long long>(s.seed),
      s.instance_id, static_cast<unsigned long long>(s.map_size),
      static_cast<unsigned long long>(s.virgin_size),
      static_cast<unsigned long long>(s.checkpoint_seq));
  std::printf(
      "  execs=%llu interesting=%llu crashes=%llu queue_entries=%zu "
      "bug_ids=%zu stack_hashes=%zu used_key=%u\n",
      static_cast<unsigned long long>(s.execs),
      static_cast<unsigned long long>(s.interesting),
      static_cast<unsigned long long>(s.crashes_total), s.entries.size(),
      s.bug_ids.size(), s.stack_hashes.size(), s.used_key);
}

}  // namespace

bool check_snapshot_file(const std::string& path, bool dump) {
  std::vector<u8> bytes;
  std::string err;
  if (!read_file(path, &bytes, FaultCtx{}, &err)) {
    std::printf("%s: MISSING (%s)\n", path.c_str(), err.c_str());
    return false;
  }
  DecodeResult dec = decode_snapshot(bytes);
  if (dec.status != LoadStatus::kOk) {
    std::printf("%s: INVALID (%s)\n", path.c_str(),
                load_status_name(dec.status));
    if (dump) {
      ParsedFile parsed = parse_records(bytes);
      std::printf("  valid prefix: %zu of %zu bytes, %zu record(s)\n",
                  parsed.valid_bytes, bytes.size(), parsed.records.size());
      dump_records(parsed);
    }
    return false;
  }
  std::printf("%s: ok (%zu bytes)\n", path.c_str(), bytes.size());
  if (dump) {
    dump_records(parse_records(bytes));
    dump_snapshot(*dec.snapshot);
  }
  return true;
}

namespace {

// Journal contents needed for cross-validation against the instance
// directories.
struct JournalSummary {
  bool usable = false;
  FleetFingerprint fp;
  // Newest event per instance id, in journal order.
  std::map<u32, InstanceEvent> last_events;
  u32 bad_event_payloads = 0;
};

bool check_journal(const std::string& path, bool dump, JournalSummary* js) {
  std::vector<u8> bytes;
  std::string err;
  if (!read_file(path, &bytes, FaultCtx{}, &err)) {
    std::printf("%s: MISSING (%s)\n", path.c_str(), err.c_str());
    return false;
  }
  ParsedFile parsed = parse_records(bytes);
  if (parsed.records.empty() ||
      parsed.records.front().type != RecordType::kFleetHeader) {
    std::printf("%s: INVALID (no fleet header)\n", path.c_str());
    return false;
  }
  if (!decode_fleet_fingerprint(parsed.records.front().payload, &js->fp)) {
    std::printf("%s: INVALID (bad fingerprint payload)\n", path.c_str());
    return false;
  }
  bool ok = true;
  for (usize i = 1; i < parsed.records.size(); ++i) {
    if (parsed.records[i].type != RecordType::kFleetEvent) continue;
    InstanceEvent ev;
    if (!decode_instance_event(parsed.records[i].payload, &ev)) {
      ++js->bad_event_payloads;
      ok = false;
      continue;
    }
    js->last_events[ev.instance] = ev;
  }
  js->usable = true;
  if (js->bad_event_payloads > 0) {
    std::printf("%s: INVALID (%u event record(s) failed to decode)\n",
                path.c_str(), js->bad_event_payloads);
  } else if (parsed.status != LoadStatus::kOk) {
    // A torn journal tail is recoverable by design, so report it as a
    // warning, not a failure.
    std::printf("%s: ok with torn tail (%s; valid prefix %zu of %zu "
                "bytes, %zu record(s))\n",
                path.c_str(), load_status_name(parsed.status),
                parsed.valid_bytes, bytes.size(), parsed.records.size());
  } else {
    std::printf("%s: ok (%zu record(s), %zu instance(s))\n", path.c_str(),
                parsed.records.size(), js->last_events.size());
  }
  if (dump) dump_records(parsed);
  return ok;
}

// Cross-validates the journal's view of the world against the instance
// directories. Two distinct error classes beyond structural damage:
//
//  - unknown instance id: an event names an instance the fleet fingerprint
//    says cannot exist (journal corruption or a foreign journal);
//  - dangling checkpoint ref: the newest event for an instance references
//    a checkpoint newer than any snapshot still on disk — resume would
//    silently run with older state than the coordinator believed durable.
//    (References *older* than the newest snapshot are fine: rotation
//    prunes old snapshots by design.)
bool cross_validate(const std::string& dir, const JournalSummary& js) {
  bool ok = true;
  std::error_code ec;
  for (const auto& [id, ev] : js.last_events) {
    if (id >= js.fp.num_instances) {
      std::printf(
          "%s: UNKNOWN INSTANCE ID (journal event for instance %u, "
          "fleet has %u)\n",
          dir.c_str(), id, js.fp.num_instances);
      ok = false;
      continue;
    }
    if (ev.checkpoint_seq == 0) continue;  // no checkpoint referenced
    const std::string inst_dir = dir + "/instance-" + std::to_string(id);
    u64 newest = 0;
    for (const auto& f : fs::directory_iterator(inst_dir, ec)) {
      u64 seq;
      if (f.is_regular_file(ec) &&
          parse_snap_name(f.path().filename().string(), &seq)) {
        newest = std::max(newest, seq);
      }
    }
    if (newest < ev.checkpoint_seq) {
      std::printf(
          "%s: DANGLING CHECKPOINT REF (journal says instance %u had "
          "snapshot seq %llu, newest on disk is %llu)\n",
          inst_dir.c_str(), id,
          static_cast<unsigned long long>(ev.checkpoint_seq),
          static_cast<unsigned long long>(newest));
      ok = false;
    }
  }
  return ok;
}

// Fsck of one federation WAL (failover journal). Two record families are
// meaningful; anything else in the file is foreign and reported:
//
//  - kFederationEpoch: epoch transitions must decode and the epoch stamps
//    must be monotone nondecreasing in journal order — a regression means
//    the node re-entered an older epoch, i.e. split brain made it to disk;
//  - kVirginDelta: each payload must be a structurally valid oracle delta
//    (corpus::decode_oracle_delta enforces exact length and strictly
//    ascending unique cell positions) and the delta epoch stamps must be
//    monotone nondecreasing too (deltas journaled for an older epoch after
//    a newer one were shipped across a fence).
//
// A torn tail is a warning (appends race SIGKILL in drills by design).
bool check_federation_wal(const std::string& path, bool dump) {
  std::vector<u8> bytes;
  std::string err;
  if (!read_file(path, &bytes, FaultCtx{}, &err)) {
    std::printf("%s: MISSING (%s)\n", path.c_str(), err.c_str());
    return false;
  }
  ParsedFile parsed = parse_records(bytes);
  bool ok = true;
  u64 epochs = 0, deltas = 0, foreign = 0;
  u64 last_epoch = 0, last_delta_epoch = 0;
  bool have_epoch = false, have_delta = false;
  for (const RecordView& rec : parsed.records) {
    if (rec.type == RecordType::kFederationEpoch) {
      FederationEpochRecord fe;
      if (!parse_federation_epoch(rec.payload, &fe)) {
        std::printf("%s: INVALID (epoch record %llu failed to decode)\n",
                    path.c_str(), static_cast<unsigned long long>(epochs));
        ok = false;
        continue;
      }
      ++epochs;
      if (have_epoch && fe.epoch < last_epoch) {
        std::printf(
            "%s: EPOCH REGRESSION (transition to epoch %llu after %llu — "
            "split brain reached the journal)\n",
            path.c_str(), static_cast<unsigned long long>(fe.epoch),
            static_cast<unsigned long long>(last_epoch));
        ok = false;
      }
      last_epoch = fe.epoch;
      have_epoch = true;
      if (dump) {
        std::printf("  epoch %-8llu leader=%u rank=%u reason=%s\n",
                    static_cast<unsigned long long>(fe.epoch), fe.leader,
                    fe.rank,
                    epoch_reason_name(static_cast<EpochReason>(fe.reason)));
      }
    } else if (rec.type == RecordType::kVirginDelta) {
      corpus::OracleDelta d;
      if (!corpus::decode_oracle_delta(rec.payload, &d)) {
        std::printf("%s: INVALID (malformed oracle delta record %llu)\n",
                    path.c_str(), static_cast<unsigned long long>(deltas));
        ok = false;
        continue;
      }
      ++deltas;
      if (have_delta && d.epoch < last_delta_epoch) {
        std::printf(
            "%s: DELTA EPOCH REGRESSION (delta stamped epoch %llu after "
            "%llu — a delta crossed an epoch fence)\n",
            path.c_str(), static_cast<unsigned long long>(d.epoch),
            static_cast<unsigned long long>(last_delta_epoch));
        ok = false;
      }
      last_delta_epoch = d.epoch;
      have_delta = true;
      if (dump) {
        std::printf("  delta epoch=%llu seq=%llu map=%u cells=%zu\n",
                    static_cast<unsigned long long>(d.epoch),
                    static_cast<unsigned long long>(d.seq), d.map_kind,
                    d.cells.size());
      }
    } else {
      ++foreign;
      std::printf("%s: FOREIGN RECORD (%s does not belong in a federation "
                  "WAL)\n",
                  path.c_str(), record_type_name(rec.type));
      ok = false;
    }
  }
  if (ok) {
    if (parsed.status != LoadStatus::kOk) {
      std::printf(
          "%s: ok with torn tail (%s; valid prefix %zu of %zu bytes)\n",
          path.c_str(), load_status_name(parsed.status), parsed.valid_bytes,
          bytes.size());
    } else {
      std::printf("%s: ok (%llu epoch transition(s), %llu delta(s))\n",
                  path.c_str(), static_cast<unsigned long long>(epochs),
                  static_cast<unsigned long long>(deltas));
    }
  }
  return ok;
}

}  // namespace

bool check_corpus_dir(const std::string& root, bool dump,
                      usize* federation_wals) {
  std::error_code ec;
  std::string store_dir = root;
  if (!fs::exists(root + "/corpus.wal", ec) &&
      !fs::exists(root + "/corpus.pack", ec) &&
      fs::is_directory(root + "/corpus", ec)) {
    store_dir = root + "/corpus";
  }
  if (!fs::is_directory(store_dir, ec)) {
    std::printf("%s: MISSING (not a directory)\n", store_dir.c_str());
    return false;
  }

  corpus::CorpusStore probe(store_dir);
  const corpus::FsckReport rep = probe.fsck();
  bool ok = rep.ok;
  for (const std::string& e : rep.errors) {
    std::printf("%s: INVALID (%s)\n", store_dir.c_str(), e.c_str());
  }
  if (rep.ok) {
    if (rep.torn_tail_bytes > 0) {
      std::printf(
          "%s: ok with torn tail (%llu trailing byte(s) past the valid "
          "WAL prefix)\n",
          store_dir.c_str(),
          static_cast<unsigned long long>(rep.torn_tail_bytes));
    } else {
      std::printf("%s: ok\n", store_dir.c_str());
    }
    std::printf(
        "  pack=%s wal=%s generation=%llu entries=%llu crash_rows=%llu "
        "wal_records=%llu\n",
        rep.pack_present ? "present" : "absent",
        rep.wal_present ? "present" : "absent",
        static_cast<unsigned long long>(rep.generation),
        static_cast<unsigned long long>(rep.entries),
        static_cast<unsigned long long>(rep.crash_rows),
        static_cast<unsigned long long>(rep.wal_records));
  }
  if (dump) {
    for (const char* name : {"corpus.pack", "corpus.wal"}) {
      const std::string path = store_dir + "/" + name;
      std::vector<u8> bytes;
      std::string err;
      if (!read_file(path, &bytes, FaultCtx{}, &err)) continue;
      std::printf("  %s:\n", name);
      dump_records(parse_records(bytes));
    }
  }
  if (!rep.ok) return false;

  // Snapshot store refs: any snap-*.bms anywhere under `root` that
  // references a content hash the store no longer holds is a resume-time
  // data loss. Skipped when the store itself is damaged (refs against a
  // partial live set would be noise).
  u64 refs = 0, dangling = 0;
  std::vector<std::string> fed_wals;
  for (auto it = fs::recursive_directory_iterator(
           root, fs::directory_options::skip_permission_denied, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    u64 seq;
    if (ec || !it->is_regular_file(ec)) continue;
    if (it->path().filename().string() == kFederationWalName) {
      fed_wals.push_back(it->path().string());
      continue;
    }
    if (!parse_snap_name(it->path().filename().string(), &seq)) {
      continue;
    }
    std::vector<u8> bytes;
    std::string err;
    if (!read_file(it->path().string(), &bytes, FaultCtx{}, &err)) continue;
    DecodeResult dec = decode_snapshot(bytes);
    if (dec.status != LoadStatus::kOk) continue;  // reported by --fleet
    for (const QueueEntrySnap& e : dec.snapshot->entries) {
      if (!e.in_store) continue;
      ++refs;
      if (!std::binary_search(rep.live_hashes.begin(),
                              rep.live_hashes.end(), e.content_hash)) {
        std::printf(
            "%s: DANGLING STORE REF (queue entry %016llx not in %s)\n",
            it->path().c_str(),
            static_cast<unsigned long long>(e.content_hash),
            store_dir.c_str());
        ++dangling;
        ok = false;
      }
    }
  }
  std::printf("  %llu store ref(s) across snapshots, %llu dangling\n",
              static_cast<unsigned long long>(refs),
              static_cast<unsigned long long>(dangling));

  // Federation WALs left by failover drills ride along in the same tree;
  // audit each one (epoch monotonicity, delta well-formedness).
  std::sort(fed_wals.begin(), fed_wals.end());
  for (const std::string& wal : fed_wals) {
    ok = check_federation_wal(wal, dump) && ok;
  }
  if (federation_wals != nullptr) *federation_wals = fed_wals.size();
  return ok;
}

bool check_fleet_dir(const std::string& dir, bool dump) {
  JournalSummary js;
  bool ok = check_journal(dir + "/fleet.journal", dump, &js);
  std::error_code ec;
  std::vector<std::string> snaps;
  for (const auto& inst : fs::directory_iterator(dir, ec)) {
    if (!inst.is_directory(ec)) continue;
    for (const auto& f : fs::directory_iterator(inst.path(), ec)) {
      if (f.path().extension() == ".bms") {
        snaps.push_back(f.path().string());
      }
    }
  }
  std::sort(snaps.begin(), snaps.end());
  for (const std::string& path : snaps) {
    ok = check_snapshot_file(path, dump) && ok;
  }
  if (js.usable) ok = cross_validate(dir, js) && ok;
  return ok;
}

}  // namespace bigmap::persist
