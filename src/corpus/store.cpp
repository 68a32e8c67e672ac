#include "corpus/store.h"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "util/hash.h"

namespace fs = std::filesystem;

namespace bigmap::corpus {
namespace {

using persist::PayloadReader;
using persist::PayloadWriter;
using persist::RecordType;

// Crash payloads carry a leading kind byte so the WAL event layout and the
// pack row layout can share one record type.
constexpr u8 kCrashEvent = 0;
constexpr u8 kCrashRow = 1;

// AFL-style favor factor: cheaper-to-run and smaller entries win positions.
u64 fav_factor(const CorpusEntry& e) noexcept {
  const u64 ns = e.exec_ns == 0 ? 1 : e.exec_ns;
  const u64 len = e.data.empty() ? 1 : e.data.size();
  return ns * len;
}

// Total order on the metadata of two entries holding the SAME content.
// Duplicate observations (e.g. two instances discovering one input via
// different mutation chains, so with different depths) merge to the
// minimum under this order, making the stored row — and therefore the
// pack bytes — independent of which instance got there first.
bool entry_meta_less(const CorpusEntry& a, const CorpusEntry& b) noexcept {
  if (a.exec_ns != b.exec_ns) return a.exec_ns < b.exec_ns;
  if (a.depth != b.depth) return a.depth < b.depth;
  if (a.bitmap_hash != b.bitmap_hash) return a.bitmap_hash < b.bitmap_hash;
  return a.positions < b.positions;
}

// The kCorpusEntry payload, shared by the WAL record and the pack record.
void put_entry(PayloadWriter& w, const CorpusEntry& e) {
  w.put_u64(e.content_hash);
  w.put_u64(e.exec_ns);
  w.put_u32(e.bitmap_hash);
  w.put_u32(e.depth);
  w.put_u32(static_cast<u32>(e.positions.size()));
  w.put_le_array(std::span<const u32>(e.positions));
  w.put_u64(e.data.size());
  w.put_bytes(e.data);
}

}  // namespace

CorpusStore::CorpusStore(std::string dir, persist::FaultCtx fault)
    : dir_(std::move(dir)), fault_(fault), wal_(dir_ + "/corpus.wal", fault) {}

std::string CorpusStore::wal_path() const { return wal_.path(); }
std::string CorpusStore::pack_path() const { return dir_ + "/corpus.pack"; }

void CorpusStore::set_compact_hook(CompactHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  compact_hook_ = std::move(hook);
}

OpenReport CorpusStore::open(bool fresh) {
  std::lock_guard<std::mutex> lock(mu_);
  OpenReport rep;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    rep.error = "create " + dir_ + ": " + ec.message();
    return rep;
  }

  entries_.clear();
  crashes_.clear();
  pending_entries_.clear();
  pending_crashes_.clear();
  generation_ = 0;

  if (fresh) {
    fs::remove(pack_path(), ec);
    fs::remove(wal_path(), ec);
  }

  // Pack first: it is the committed base the WAL layers over. A pack is
  // only ever produced by temp + rename, so anything structurally damaged
  // is real corruption, not a torn write — refuse to guess.
  std::vector<u8> bytes;
  std::string err;
  if (persist::read_file(pack_path(), &bytes, fault_, &err)) {
    if (!replay_file(persist::parse_records(bytes), /*is_pack=*/true,
                     &rep.pack_status, &rep.error)) {
      return rep;
    }
    stats_.pack_entries_loaded = entries_.size();
  }

  // WAL tail. Torn or checksum-damaged tails are truncated away — the
  // valid prefix is the journal.
  const persist::JournalReplay wal = wal_.open();
  rep.wal_status = wal.status;
  if (!wal.ok()) {
    rep.error = "wal: " + wal.error;
    return rep;
  }
  if (wal.truncated_bytes > 0) ++stats_.torn_tail_truncations;
  if (!replay_file(wal, /*is_pack=*/false, &rep.wal_status, &rep.error)) {
    return rep;
  }

  opened_ = true;
  rep.ok = true;
  rep.entries = entries_.size();
  rep.crash_rows = crashes_.size();
  return rep;
}

bool CorpusStore::replay_file(const persist::ParsedFile& parsed,
                              bool is_pack, persist::LoadStatus* status,
                              std::string* err) {
  *status = parsed.status;
  if (parsed.status == persist::LoadStatus::kBadMagic ||
      parsed.status == persist::LoadStatus::kBadVersion) {
    *err = std::string(is_pack ? "pack: " : "wal: ") +
           persist::load_status_name(parsed.status);
    return false;
  }
  if (is_pack && parsed.status != persist::LoadStatus::kOk) {
    *err = std::string("pack: ") + persist::load_status_name(parsed.status);
    return false;
  }
  bool committed = !is_pack;
  for (const persist::RecordView& rec : parsed.records) {
    PayloadReader r(rec.payload);
    bool record_ok = true;
    switch (rec.type) {
      case RecordType::kCorpusEntry:
        record_ok = apply_entry_record(r, is_pack);
        break;
      case RecordType::kCorpusCrash:
        record_ok = apply_crash_record(r);
        break;
      case RecordType::kCorpusTombstone:
        record_ok = !is_pack && apply_tombstone_record(r);
        break;
      case RecordType::kCorpusMeta: {
        u64 gen = 0, ne = 0, nc = 0;
        record_ok = is_pack && r.get_u64(&gen) && r.get_u64(&ne) &&
                    r.get_u64(&nc) && r.done();
        if (record_ok) generation_ = gen;
        break;
      }
      case RecordType::kCommit: {
        u64 seq = 0;
        record_ok = is_pack && r.get_u64(&seq) && r.done();
        if (record_ok) committed = true;
        break;
      }
      default:
        record_ok = false;
        break;
    }
    if (!record_ok) {
      *err = std::string(is_pack ? "pack: " : "wal: ") + "bad " +
             persist::record_type_name(rec.type) + " record";
      *status = persist::LoadStatus::kBadPayload;
      return false;
    }
    if (!is_pack) ++stats_.wal_records_replayed;
  }
  if (is_pack && !committed) {
    *err = "pack: no commit marker";
    *status = persist::LoadStatus::kNoCommit;
    return false;
  }
  return true;
}

bool CorpusStore::apply_entry_record(PayloadReader& r, bool from_pack) {
  CorpusEntry e;
  u32 npos = 0;
  u64 data_len = 0;
  std::span<const u8> raw;
  if (!r.get_u64(&e.content_hash) || !r.get_u64(&e.exec_ns) ||
      !r.get_u32(&e.bitmap_hash) || !r.get_u32(&e.depth) ||
      !r.get_u32(&npos)) {
    return false;
  }
  if (npos > r.remaining() / sizeof(u32)) return false;
  e.positions.resize(npos);
  if (!r.get_le_array(npos, e.positions.data())) return false;
  if (!r.get_u64(&data_len) || !r.get_bytes(data_len, &raw) || !r.done()) {
    return false;
  }
  e.data.assign(raw.begin(), raw.end());
  if (fnv1a64(e.data) != e.content_hash) return false;
  const u64 h = e.content_hash;
  auto it = entries_.find(h);
  if (it == entries_.end()) {
    entries_.emplace(h, std::move(e));
    return true;
  }
  // A pack lists each live hash exactly once; a duplicate is corruption.
  if (from_pack) return false;
  // Replay is idempotent and order-independent: a WAL entry already
  // present (from the pack, or from a resumed campaign re-finding it)
  // min-merges its metadata, mirroring add_entry's dedup path.
  if (entry_meta_less(e, it->second)) it->second = std::move(e);
  return true;
}

bool CorpusStore::apply_crash_record(PayloadReader& r) {
  u8 kind = 0;
  if (!r.get_u8(&kind)) return false;
  if (kind == kCrashEvent) {
    u64 stack = 0, exec_seq = 0, wlen = 0;
    u32 bug = 0, instance = 0;
    std::span<const u8> wit;
    if (!r.get_u64(&stack) || !r.get_u32(&bug) || !r.get_u32(&instance) ||
        !r.get_u64(&exec_seq) || !r.get_u64(&wlen) ||
        !r.get_bytes(wlen, &wit) || !r.done()) {
      return false;
    }
    CrashRow& row = crashes_[stack];
    row.stack_hash = stack;
    if (row.sightings.empty()) row.bug_id = bug;
    CrashSighting& s = row.sightings[instance];
    if (s.count == 0 || exec_seq > s.last_exec) {
      if (s.count == 0) s.first_exec = exec_seq;
      s.last_exec = exec_seq;
      ++s.count;
    }
    if (wlen > 0 && (!row.has_witness || instance < row.witness_instance)) {
      row.has_witness = true;
      row.witness_instance = instance;
      row.witness.assign(wit.begin(), wit.end());
    }
    return true;
  }
  if (kind == kCrashRow) {
    CrashRow row;
    u8 has_wit = 0;
    u64 wlen = 0;
    u32 nsight = 0;
    std::span<const u8> wit;
    if (!r.get_u64(&row.stack_hash) || !r.get_u32(&row.bug_id) ||
        !r.get_u8(&has_wit) || !r.get_u32(&row.witness_instance) ||
        !r.get_u64(&wlen) || !r.get_bytes(wlen, &wit) ||
        !r.get_u32(&nsight)) {
      return false;
    }
    row.has_witness = has_wit != 0;
    row.witness.assign(wit.begin(), wit.end());
    for (u32 i = 0; i < nsight; ++i) {
      u32 inst = 0;
      CrashSighting s;
      if (!r.get_u32(&inst) || !r.get_u64(&s.first_exec) ||
          !r.get_u64(&s.last_exec) || !r.get_u64(&s.count)) {
        return false;
      }
      row.sightings[inst] = s;
    }
    if (!r.done()) return false;
    const u64 stack = row.stack_hash;
    crashes_[stack] = std::move(row);
    return true;
  }
  return false;
}

bool CorpusStore::apply_tombstone_record(PayloadReader& r) {
  u64 hash = 0;
  if (!r.get_u64(&hash) || !r.done()) return false;
  entries_.erase(hash);  // absent hash: replay no-op
  return true;
}

template <class Fill>
bool CorpusStore::append_wal_locked(RecordType type, Fill&& fill,
                                    std::string* err) {
  usize bytes = 0;
  if (!wal_.append(type, std::forward<Fill>(fill), err, &bytes)) {
    ++stats_.wal_append_failures;
    return false;
  }
  ++stats_.wal_appends;
  stats_.wal_bytes += bytes;
  return true;
}

bool CorpusStore::append_entry_locked(const CorpusEntry& e, std::string* err) {
  return append_wal_locked(RecordType::kCorpusEntry,
                           [&](PayloadWriter& w) { put_entry(w, e); }, err);
}

// A WAL crash event carries the reporting instance's own witness bytes
// (empty: none), not the row's current winner, so replay reproduces the
// smallest-instance rule.
bool CorpusStore::append_crash_locked(u64 stack_hash, u32 bug_id,
                                      u32 instance, u64 exec_seq,
                                      std::span<const u8> witness,
                                      std::string* err) {
  return append_wal_locked(
      RecordType::kCorpusCrash,
      [&](PayloadWriter& w) {
        w.put_u8(kCrashEvent);
        w.put_u64(stack_hash);
        w.put_u32(bug_id);
        w.put_u32(instance);
        w.put_u64(exec_seq);
        w.put_u64(witness.size());
        w.put_bytes(witness);
      },
      err);
}

bool CorpusStore::add_entry(std::span<const u8> data, u64 exec_ns,
                            u32 bitmap_hash, u32 depth,
                            std::span<const u32> positions, u64* hash_out,
                            bool* durable_out) {
  const u64 hash = fnv1a64(data);
  if (hash_out != nullptr) *hash_out = hash;
  std::lock_guard<std::mutex> lock(mu_);
  if (durable_out != nullptr) *durable_out = true;
  CorpusEntry e;
  e.content_hash = hash;
  e.data.assign(data.begin(), data.end());
  e.exec_ns = exec_ns;
  e.bitmap_hash = bitmap_hash;
  e.depth = depth;
  e.positions.assign(positions.begin(), positions.end());
  std::sort(e.positions.begin(), e.positions.end());
  e.positions.erase(std::unique(e.positions.begin(), e.positions.end()),
                    e.positions.end());
  auto it = entries_.find(hash);
  if (it != entries_.end()) {
    ++stats_.dedup_hits;
    // Min-merge duplicate observations (see entry_meta_less): the winning
    // metadata is WAL-journaled so replay converges to the same row.
    if (entry_meta_less(e, it->second)) {
      it->second = std::move(e);
      std::string err;
      if (!append_entry_locked(it->second, &err)) {
        pending_entries_.push_back(hash);
        if (durable_out != nullptr) *durable_out = false;
      }
    }
    return false;
  }
  it = entries_.emplace(hash, std::move(e)).first;
  std::string err;
  if (!append_entry_locked(it->second, &err)) {
    pending_entries_.push_back(hash);
    if (durable_out != nullptr) *durable_out = false;
  }
  return true;
}

bool CorpusStore::record_crash(u64 stack_hash, u32 bug_id, u32 instance,
                               u64 exec_seq, std::span<const u8> witness,
                               bool* durable_out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (durable_out != nullptr) *durable_out = true;
  CrashRow& row = crashes_[stack_hash];
  const bool new_row = row.sightings.empty() && !row.has_witness;
  row.stack_hash = stack_hash;
  if (new_row) row.bug_id = bug_id;
  CrashSighting& s = row.sightings[instance];
  const bool first_for_instance = s.count == 0;
  if (!first_for_instance && exec_seq <= s.last_exec) {
    // Checkpoint-resume replay re-reports crashes the WAL already holds.
    ++stats_.crash_dedup_hits;
    return false;
  }
  if (first_for_instance) s.first_exec = exec_seq;
  s.last_exec = exec_seq;
  ++s.count;
  // Witness rule: smallest instance id wins — order-independent, so the
  // row converges to the same bytes however instance threads interleave.
  const bool with_witness = first_for_instance;
  if (!witness.empty() && (!row.has_witness || instance < row.witness_instance)) {
    row.has_witness = true;
    row.witness_instance = instance;
    row.witness.assign(witness.begin(), witness.end());
  }
  std::string err;
  if (!append_crash_locked(stack_hash, bug_id, instance, exec_seq,
                           with_witness ? witness : std::span<const u8>(),
                           &err)) {
    pending_crashes_.push_back(
        PendingCrash{stack_hash, instance, exec_seq, with_witness});
    if (durable_out != nullptr) *durable_out = false;
  }
  return true;
}

bool CorpusStore::fetch(u64 hash, CorpusEntry* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(hash);
  if (it == entries_.end()) return false;
  *out = it->second;
  return true;
}

bool CorpusStore::contains(u64 hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.find(hash) != entries_.end();
}

bool CorpusStore::durable(u64 hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.find(hash) == entries_.end()) return false;
  for (u64 pending : pending_entries_) {
    if (pending == hash) return false;
  }
  return true;
}

bool CorpusStore::flush_pending(std::string* err) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<u64> still_entries;
  for (u64 hash : pending_entries_) {
    auto it = entries_.find(hash);
    if (it == entries_.end()) continue;  // trimmed while pending
    if (!append_entry_locked(it->second, err)) {
      still_entries.push_back(hash);
    }
  }
  pending_entries_ = std::move(still_entries);
  std::vector<PendingCrash> still_crashes;
  for (const PendingCrash& p : pending_crashes_) {
    auto it = crashes_.find(p.stack_hash);
    if (it == crashes_.end()) continue;
    const CrashRow& row = it->second;
    const bool own_witness = p.with_witness && row.has_witness &&
                             row.witness_instance == p.instance;
    if (!append_crash_locked(p.stack_hash, row.bug_id, p.instance,
                             p.exec_seq,
                             own_witness ? std::span<const u8>(row.witness)
                                         : std::span<const u8>(),
                             err)) {
      still_crashes.push_back(p);
    }
  }
  pending_crashes_ = std::move(still_crashes);
  return pending_entries_.empty() && pending_crashes_.empty();
}

TrimReport CorpusStore::trim(const std::unordered_set<u64>& pinned) {
  std::lock_guard<std::mutex> lock(mu_);
  TrimReport rep;
  rep.scanned = entries_.size();

  // Coverage index: position -> entries touching it.
  std::map<u32, std::vector<u64>> by_pos;
  for (const auto& [hash, e] : entries_) {
    for (u32 p : e.positions) by_pos[p].push_back(hash);
  }

  std::unordered_set<u64> keep = pinned;
  for (const auto& [hash, e] : entries_) {
    if (e.positions.empty()) keep.insert(hash);  // no coverage signal: keep
  }
  for (auto& [pos, hashes] : by_pos) {
    if (hashes.size() == 1) ++rep.rare_positions;
    // Winner: cheapest witness for the position (ties broken by hash so
    // the pass is deterministic whatever the map iteration order was).
    u64 best = 0;
    u64 best_factor = ~0ULL;
    std::sort(hashes.begin(), hashes.end());
    for (u64 h : hashes) {
      const u64 f = fav_factor(entries_.at(h));
      if (f < best_factor || (f == best_factor && h < best)) {
        best = h;
        best_factor = f;
      }
    }
    keep.insert(best);
  }

  std::vector<u64> live;
  live.reserve(entries_.size());
  for (const auto& [hash, e] : entries_) live.push_back(hash);
  std::sort(live.begin(), live.end());
  for (u64 hash : live) {
    if (keep.count(hash) != 0) {
      ++rep.kept;
      continue;
    }
    std::string err;
    if (!append_wal_locked(RecordType::kCorpusTombstone,
                           [&](PayloadWriter& w) { w.put_u64(hash); },
                           &err)) {
      // Without a durable tombstone the entry would resurrect on replay —
      // keep it and let a later pass retry.
      ++rep.kept;
      continue;
    }
    entries_.erase(hash);
    ++rep.dropped;
    ++stats_.entries_trimmed;
  }
  return rep;
}

std::vector<u8> CorpusStore::build_pack_locked(u64 generation) const {
  persist::RecordWriter rw;
  rw.append(RecordType::kCorpusMeta, [&](PayloadWriter& w) {
    w.put_u64(generation);
    w.put_u64(entries_.size());
    w.put_u64(crashes_.size());
  });
  std::vector<u64> hashes;
  hashes.reserve(entries_.size());
  for (const auto& [hash, e] : entries_) hashes.push_back(hash);
  std::sort(hashes.begin(), hashes.end());
  for (u64 hash : hashes) {
    const CorpusEntry& e = entries_.at(hash);
    rw.append(RecordType::kCorpusEntry,
              [&](PayloadWriter& w) { put_entry(w, e); });
  }
  std::vector<u64> stacks;
  stacks.reserve(crashes_.size());
  for (const auto& [stack, row] : crashes_) stacks.push_back(stack);
  std::sort(stacks.begin(), stacks.end());
  for (u64 stack : stacks) {
    const CrashRow& row = crashes_.at(stack);
    rw.append(RecordType::kCorpusCrash, [&](PayloadWriter& w) {
      w.put_u8(kCrashRow);
      w.put_u64(row.stack_hash);
      w.put_u32(row.bug_id);
      w.put_u8(row.has_witness ? 1 : 0);
      w.put_u32(row.witness_instance);
      w.put_u64(row.witness.size());
      w.put_bytes(row.witness);
      w.put_u32(static_cast<u32>(row.sightings.size()));
      for (const auto& [inst, s] : row.sightings) {
        w.put_u32(inst);
        w.put_u64(s.first_exec);
        w.put_u64(s.last_exec);
        w.put_u64(s.count);
      }
    });
  }
  rw.append(RecordType::kCommit,
            [&](PayloadWriter& w) { w.put_u64(generation); });
  return rw.finish();
}

bool CorpusStore::compact(std::string* err) {
  std::lock_guard<std::mutex> lock(mu_);
  if (compact_hook_ && !compact_hook_(CompactPhase::kBeforePackWrite)) {
    if (err != nullptr) *err = "compaction aborted before pack write";
    return false;
  }
  const std::vector<u8> pack = build_pack_locked(generation_ + 1);
  if (!persist::write_file_atomic(pack_path(), pack, fault_, err)) {
    return false;
  }
  if (compact_hook_ && !compact_hook_(CompactPhase::kAfterPackRename)) {
    // New pack is committed; the stale WAL replays idempotently, so this
    // abort point is crash-equivalent, not corruption.
    if (err != nullptr) *err = "compaction aborted before wal reset";
    return false;
  }
  if (!wal_.reset(err)) {
    return false;
  }
  ++generation_;
  ++stats_.compactions;
  pending_entries_.clear();
  pending_crashes_.clear();
  return true;
}

bool CorpusStore::export_canonical(const std::string& path, std::string* err) {
  std::lock_guard<std::mutex> lock(mu_);
  // Generation 0: unlike the live pack, the export must not encode how
  // many compactions happened along the way, only what is live now.
  return persist::write_file_atomic(path, build_pack_locked(0), fault_, err);
}

FsckReport CorpusStore::fsck() {
  std::lock_guard<std::mutex> lock(mu_);
  FsckReport rep;
  entries_.clear();
  crashes_.clear();
  pending_entries_.clear();
  pending_crashes_.clear();
  generation_ = 0;
  opened_ = false;

  std::vector<u8> bytes;
  std::string err;
  if (persist::read_file(pack_path(), &bytes, fault_, &err)) {
    rep.pack_present = true;
    std::string perr;
    if (!replay_file(persist::parse_records(bytes), /*is_pack=*/true,
                     &rep.pack_status, &perr)) {
      rep.errors.push_back(perr);
    }
  }

  bytes.clear();
  const u64 wal_before = stats_.wal_records_replayed;
  if (persist::read_file(wal_path(), &bytes, fault_, &err) &&
      !bytes.empty()) {
    rep.wal_present = true;
    const persist::ParsedFile parsed = persist::parse_records(bytes);
    std::string werr;
    if (!replay_file(parsed, /*is_pack=*/false, &rep.wal_status, &werr)) {
      rep.errors.push_back(werr);
    } else if (parsed.valid_bytes < bytes.size()) {
      // Recoverable by design: open() would truncate this tail away.
      rep.torn_tail_bytes = bytes.size() - parsed.valid_bytes;
    }
  }
  rep.wal_records = stats_.wal_records_replayed - wal_before;

  rep.entries = entries_.size();
  rep.crash_rows = crashes_.size();
  rep.generation = generation_;
  rep.live_hashes.reserve(entries_.size());
  for (const auto& [hash, e] : entries_) rep.live_hashes.push_back(hash);
  std::sort(rep.live_hashes.begin(), rep.live_hashes.end());
  rep.ok = rep.errors.empty();
  return rep;
}

usize CorpusStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

usize CorpusStore::crash_row_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashes_.size();
}

u64 CorpusStore::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

CorpusStats CorpusStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<u64> CorpusStore::entry_hashes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<u64> out;
  out.reserve(entries_.size());
  for (const auto& [hash, e] : entries_) out.push_back(hash);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<CrashRow> CorpusStore::crash_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CrashRow> out;
  out.reserve(crashes_.size());
  for (const auto& [stack, row] : crashes_) out.push_back(row);
  std::sort(out.begin(), out.end(),
            [](const CrashRow& a, const CrashRow& b) {
              return a.stack_hash < b.stack_hash;
            });
  return out;
}

u64 CorpusStore::corpus_digest() const {
  std::vector<u64> hashes = entry_hashes();
  u64 digest = 0xcbf29ce484222325ULL;
  for (u64 h : hashes) digest = hash_combine(digest, h);
  return digest;
}

}  // namespace bigmap::corpus
