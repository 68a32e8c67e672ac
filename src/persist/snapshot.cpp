#include "persist/snapshot.h"

#include <algorithm>

namespace bigmap::persist {
namespace {

constexpr u32 kUnassigned = 0xFFFFFFFFu;  // TwoLevelCoverageMap::kUnassigned

// Virgin-map subtype tags inside kVirginPrefix records.
constexpr u8 kVirginKinds = 3;  // queue, crash, hang

template <class T>
void put_vec(PayloadWriter& w, std::span<const T> v) {
  w.put_u64(v.size());
  w.put_le_array(v);
}

// A u64 count then that many elements. The count is bounded by what is
// left of the payload before anything is allocated.
template <class T>
bool get_vec(PayloadReader& r, std::vector<T>* out) {
  u64 n;
  if (!r.get_u64(&n) || n > r.remaining() / sizeof(T)) return false;
  out->resize(static_cast<usize>(n));
  return r.get_le_array(out->size(), out->data());
}

// Rebuilds the slot->key log from a whole key->slot table: slot i's key at
// position i, then the keys a saturated map aliased onto its last slot in
// key order (their allocation order is not recorded, and replaying them in
// any order rebuilds the same table). Empty when the table is not one a
// TwoLevelCoverageMap can reach.
std::optional<std::vector<u32>> keys_from_index(std::span<const u32> index,
                                                u32 used_key, u64 saturated) {
  std::vector<u32> keys(used_key, kUnassigned);
  std::vector<u32> aliased;
  for (usize key = 0; key < index.size(); ++key) {
    const u32 slot = index[key];
    if (slot == kUnassigned) continue;
    if (slot >= used_key) return std::nullopt;
    if (keys[slot] == kUnassigned) {
      keys[slot] = static_cast<u32>(key);
    } else if (saturated > 0 && slot + 1 == used_key) {
      aliased.push_back(static_cast<u32>(key));
    } else {
      return std::nullopt;
    }
  }
  if (aliased.size() != saturated ||
      std::find(keys.begin(), keys.end(), kUnassigned) != keys.end()) {
    return std::nullopt;
  }
  keys.insert(keys.end(), aliased.begin(), aliased.end());
  return keys;
}

// The slot->key log is one a TwoLevelCoverageMap of this geometry can hold:
// used_key slots plus `saturated` aliases (only once every slot is taken),
// distinct keys inside the map.
bool map_keys_valid(const CampaignSnapshot& s) {
  if (s.used_key > s.virgin_size || s.map_keys.size() < s.used_key ||
      s.map_keys.size() - s.used_key != s.saturated_updates ||
      (s.saturated_updates > 0 && s.used_key != s.virgin_size)) {
    return false;
  }
  std::vector<u32> sorted = s.map_keys;
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end() &&
         (sorted.empty() || sorted.back() < s.map_size);
}

}  // namespace

std::vector<u8> encode_snapshot(const CampaignSnapshot& s) {
  return encode_snapshot(s, s.checkpoint_seq);
}

std::vector<u8> encode_snapshot(const CampaignSnapshot& s,
                                u64 checkpoint_seq) {
  RecordWriter rw;

  rw.append(RecordType::kCampaignHeader, [&](PayloadWriter& w) {
    w.put_u32(s.scheme);
    w.put_u32(s.metric);
    w.put_u64(s.seed);
    w.put_u32(s.instance_id);
    w.put_u64(s.map_size);
    w.put_u64(s.virgin_size);
    w.put_u64(checkpoint_seq);
  });

  rw.append(RecordType::kCounters, [&](PayloadWriter& w) {
    w.put_u64(s.execs);
    w.put_u64(s.seed_execs);
    w.put_f64(s.seed_seconds);
    w.put_u64(s.interesting);
    w.put_u64(s.hangs);
    w.put_u64(s.trim_execs);
    w.put_u64(s.trimmed_bytes);
    w.put_u64(s.faulted_execs);
    w.put_u64(s.injected_hangs);
    w.put_u64(s.crashes_total);
    w.put_u64(s.crashes_afl_unique);
  });

  // Additive (like kCycleCursor): readers that predate the record skip it,
  // snapshots that lack it decode with zeroed tracing counters.
  rw.append(RecordType::kTracingState, [&](PayloadWriter& w) {
    w.put_u64(s.tracing_untraced_execs);
    w.put_u64(s.tracing_traced_execs);
    w.put_u64(s.tracing_oracle_fires);
    w.put_u64(s.tracing_reexec_ns);
  });

  rw.append(RecordType::kRngState, [&](PayloadWriter& w) {
    for (u64 v : s.rng_state) w.put_u64(v);
    for (u64 v : s.mutator_rng_state) w.put_u64(v);
  });

  rw.append(RecordType::kQueueMeta, [&](PayloadWriter& w) {
    w.put_u64(s.entries.size());
    w.put_u64(s.top_entry.size());
    w.put_u64(s.top_covered);
  });

  rw.append(RecordType::kCycleCursor, [&](PayloadWriter& w) {
    w.put_u8(s.in_cycle ? 1 : 0);
    w.put_u64(s.cycle_qi);
    w.put_u64(s.cycle_len);
    w.put_u64(s.cycle_avg_ns);
  });

  for (const QueueEntrySnap& e : s.entries) {
    if (e.in_store) {
      rw.append(RecordType::kQueueEntryRef, [&](PayloadWriter& w) {
        w.put_u64(e.content_hash);
        w.put_u64(e.stored_len);
        w.put_u64(e.exec_ns);
        w.put_u32(e.bitmap_hash);
        w.put_u32(e.depth);
        w.put_u8(e.favored ? 1 : 0);
        w.put_u8(e.was_fuzzed ? 1 : 0);
        w.put_u64(e.times_selected);
      });
      continue;
    }
    rw.append(RecordType::kQueueEntry, [&](PayloadWriter& w) {
      w.put_u64(e.data.size());
      w.put_bytes(e.data);
      w.put_u64(e.exec_ns);
      w.put_u32(e.bitmap_hash);
      w.put_u32(e.depth);
      w.put_u8(e.favored ? 1 : 0);
      w.put_u8(e.was_fuzzed ? 1 : 0);
      w.put_u64(e.times_selected);
    });
  }

  // Per-position arrays go out as their live prefix, each behind the full
  // size it is a prefix of: the file grows with coverage, not map size.
  rw.append(RecordType::kTopRatedPrefix, [&](PayloadWriter& w) {
    w.put_u64(s.virgin_size);
    put_vec<u32>(w, s.top_entry);
    put_vec<u64>(w, s.top_factor);
  });

  const std::vector<u8>* virgins[kVirginKinds] = {
      &s.virgin_queue, &s.virgin_crash, &s.virgin_hang};
  for (u8 kind = 0; kind < kVirginKinds; ++kind) {
    rw.append(RecordType::kVirginPrefix, [&](PayloadWriter& w) {
      w.put_u8(kind);
      w.put_u64(s.virgin_size);
      put_vec<u8>(w, *virgins[kind]);
    });
  }

  rw.append(RecordType::kMapKeys, [&](PayloadWriter& w) {
    w.put_u8(s.has_two_level ? 1 : 0);
    if (!s.has_two_level) return;
    w.put_u32(s.used_key);
    w.put_u64(s.saturated_updates);
    // A whole-map index goes out as the slot->key log it implies; one no
    // map can reach as an empty log, which decoding rejects unless the map
    // is empty.
    if (s.map_keys.empty() && s.index_bitmap.size() == s.map_size) {
      put_vec<u32>(w, keys_from_index(s.index_bitmap, s.used_key,
                                      s.saturated_updates)
                          .value_or(std::vector<u32>{}));
    } else {
      put_vec<u32>(w, s.map_keys);
    }
  });

  rw.append(RecordType::kTriage, [&](PayloadWriter& w) {
    put_vec<u32>(w, s.bug_ids);
    put_vec<u64>(w, s.stack_hashes);
  });

  rw.append(RecordType::kCommit, [&](PayloadWriter& w) {
    w.put_u64(checkpoint_seq);
  });

  return rw.finish();
}

DecodeResult decode_snapshot(std::span<const u8> file) {
  DecodeResult out;
  ParsedFile parsed = parse_records(file);
  if (parsed.status != LoadStatus::kOk) {
    out.status = parsed.status;
    return out;
  }
  if (parsed.records.empty() ||
      parsed.records.back().type != RecordType::kCommit) {
    out.status = LoadStatus::kNoCommit;
    return out;
  }

  CampaignSnapshot s;
  std::vector<u8>* virgins[kVirginKinds] = {
      &s.virgin_queue, &s.virgin_crash, &s.virgin_hang};
  bool saw_header = false;
  u64 declared_entries = 0;
  auto fail = [&] {
    out.status = LoadStatus::kBadPayload;
    return out;
  };

  for (const RecordView& rec : parsed.records) {
    PayloadReader r(rec.payload);
    switch (rec.type) {
      case RecordType::kCampaignHeader: {
        if (!r.get_u32(&s.scheme) || !r.get_u32(&s.metric) ||
            !r.get_u64(&s.seed) || !r.get_u32(&s.instance_id) ||
            !r.get_u64(&s.map_size) || !r.get_u64(&s.virgin_size) ||
            !r.get_u64(&s.checkpoint_seq)) {
          return fail();
        }
        saw_header = true;
        break;
      }
      case RecordType::kCounters: {
        if (!r.get_u64(&s.execs) || !r.get_u64(&s.seed_execs) ||
            !r.get_f64(&s.seed_seconds) || !r.get_u64(&s.interesting) ||
            !r.get_u64(&s.hangs) || !r.get_u64(&s.trim_execs) ||
            !r.get_u64(&s.trimmed_bytes) || !r.get_u64(&s.faulted_execs) ||
            !r.get_u64(&s.injected_hangs) || !r.get_u64(&s.crashes_total) ||
            !r.get_u64(&s.crashes_afl_unique)) {
          return fail();
        }
        break;
      }
      case RecordType::kTracingState: {
        if (!r.get_u64(&s.tracing_untraced_execs) ||
            !r.get_u64(&s.tracing_traced_execs) ||
            !r.get_u64(&s.tracing_oracle_fires) ||
            !r.get_u64(&s.tracing_reexec_ns)) {
          return fail();
        }
        break;
      }
      case RecordType::kRngState: {
        for (u64& v : s.rng_state) {
          if (!r.get_u64(&v)) return fail();
        }
        for (u64& v : s.mutator_rng_state) {
          if (!r.get_u64(&v)) return fail();
        }
        break;
      }
      case RecordType::kQueueMeta: {
        u64 positions;
        if (!r.get_u64(&declared_entries) || !r.get_u64(&positions) ||
            !r.get_u64(&s.top_covered)) {
          return fail();
        }
        // Every entry is a record of its own, which bounds the count.
        s.entries.reserve(static_cast<usize>(
            std::min<u64>(declared_entries, parsed.records.size())));
        break;
      }
      case RecordType::kQueueEntry: {
        QueueEntrySnap e;
        u64 len;
        if (!r.get_u64(&len) || len > r.remaining()) return fail();
        std::span<const u8> bytes;
        if (!r.get_bytes(static_cast<usize>(len), &bytes)) return fail();
        e.data.assign(bytes.begin(), bytes.end());
        u8 fav, fuzzed;
        if (!r.get_u64(&e.exec_ns) || !r.get_u32(&e.bitmap_hash) ||
            !r.get_u32(&e.depth) || !r.get_u8(&fav) || !r.get_u8(&fuzzed) ||
            !r.get_u64(&e.times_selected)) {
          return fail();
        }
        e.favored = fav != 0;
        e.was_fuzzed = fuzzed != 0;
        s.entries.push_back(std::move(e));
        break;
      }
      case RecordType::kQueueEntryRef: {
        QueueEntrySnap e;
        u8 fav, fuzzed;
        if (!r.get_u64(&e.content_hash) || !r.get_u64(&e.stored_len) ||
            !r.get_u64(&e.exec_ns) || !r.get_u32(&e.bitmap_hash) ||
            !r.get_u32(&e.depth) || !r.get_u8(&fav) || !r.get_u8(&fuzzed) ||
            !r.get_u64(&e.times_selected)) {
          return fail();
        }
        e.in_store = true;
        e.favored = fav != 0;
        e.was_fuzzed = fuzzed != 0;
        s.entries.push_back(std::move(e));
        break;
      }
      case RecordType::kCycleCursor: {
        u8 in_cycle;
        if (!r.get_u8(&in_cycle) || !r.get_u64(&s.cycle_qi) ||
            !r.get_u64(&s.cycle_len) || !r.get_u64(&s.cycle_avg_ns)) {
          return fail();
        }
        s.in_cycle = in_cycle != 0;
        break;
      }
      case RecordType::kTopRated:
      case RecordType::kVirginMap:
      case RecordType::kMapState:
        // The v1 layout's whole-map records: no longer decoded.
        out.status = LoadStatus::kBadVersion;
        return out;
      case RecordType::kTopRatedPrefix: {
        u64 full;
        if (!r.get_u64(&full) || full != s.virgin_size ||
            !get_vec(r, &s.top_entry) || !get_vec(r, &s.top_factor)) {
          return fail();
        }
        break;
      }
      case RecordType::kVirginPrefix: {
        u8 kind;
        u64 full;
        if (!r.get_u8(&kind) || kind >= kVirginKinds || !r.get_u64(&full) ||
            full != s.virgin_size || !get_vec(r, virgins[kind])) {
          return fail();
        }
        break;
      }
      case RecordType::kMapKeys: {
        u8 two;
        if (!r.get_u8(&two)) return fail();
        s.has_two_level = two != 0;
        if (s.has_two_level &&
            (!r.get_u32(&s.used_key) || !r.get_u64(&s.saturated_updates) ||
             !get_vec(r, &s.map_keys))) {
          return fail();
        }
        break;
      }
      case RecordType::kTriage: {
        if (!get_vec(r, &s.bug_ids) || !get_vec(r, &s.stack_hashes)) {
          return fail();
        }
        break;
      }
      case RecordType::kCommit: {
        u64 seq;
        if (!r.get_u64(&seq) || (saw_header && seq != s.checkpoint_seq)) {
          return fail();
        }
        break;
      }
      case RecordType::kFleetHeader:
      case RecordType::kFleetEvent:
      case RecordType::kCorpusEntry:
      case RecordType::kCorpusCrash:
      case RecordType::kCorpusTombstone:
      case RecordType::kCorpusMeta:
      case RecordType::kFederationEpoch:
      case RecordType::kVirginDelta:
        // Journal / corpus-store / federation-WAL records inside a
        // snapshot file: wrong file kind.
        return fail();
    }
  }

  // Structural cross-checks: the snapshot must be internally consistent
  // before any of it is copied into live campaign state. The virgin maps
  // share one live prefix, the top arrays another.
  const usize live = s.virgin_queue.size();
  if (!saw_header || live > s.virgin_size ||
      s.virgin_crash.size() != live || s.virgin_hang.size() != live ||
      s.entries.size() != declared_entries ||
      s.top_factor.size() != s.top_entry.size() ||
      s.top_covered > s.top_entry.size() ||
      (s.has_two_level && !map_keys_valid(s))) {
    out.status = LoadStatus::kBadPayload;
    return out;
  }

  out.snapshot = std::move(s);
  return out;
}

}  // namespace bigmap::persist
