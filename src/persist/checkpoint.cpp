#include "persist/checkpoint.h"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <system_error>

namespace bigmap::persist {

namespace fs = std::filesystem;

namespace {

constexpr const char* kSnapPrefix = "snap-";
constexpr const char* kSnapSuffix = ".bms";

}  // namespace

bool parse_snap_name(const std::string& name, u64* seq) {
  const std::string_view v(name);
  const std::string_view prefix(kSnapPrefix);
  const std::string_view suffix(kSnapSuffix);
  if (v.size() <= prefix.size() + suffix.size() ||
      v.substr(0, prefix.size()) != prefix ||
      v.substr(v.size() - suffix.size()) != suffix) {
    return false;
  }
  const std::string_view digits =
      v.substr(prefix.size(), v.size() - prefix.size() - suffix.size());
  u64 value = 0;
  const auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), value);
  if (ec != std::errc() || ptr != digits.data() + digits.size()) return false;
  *seq = value;
  return true;
}

namespace {

// All snapshot sequence numbers present in `dir`, ascending.
std::vector<u64> list_snaps(const std::string& dir) {
  std::vector<u64> seqs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    u64 seq;
    if (entry.is_regular_file(ec) &&
        parse_snap_name(entry.path().filename().string(), &seq)) {
      seqs.push_back(seq);
    }
  }
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

}  // namespace

void PersistStats::add(const PersistStats& o) noexcept {
  checkpoints_written += o.checkpoints_written;
  checkpoint_bytes += o.checkpoint_bytes;
  save_failures += o.save_failures;
  checkpoints_loaded += o.checkpoints_loaded;
  recovered_torn_tail += o.recovered_torn_tail;
  recovered_bad_crc += o.recovered_bad_crc;
  recovered_version_mismatch += o.recovered_version_mismatch;
  recovered_other += o.recovered_other;
  fallbacks += o.fallbacks;
  cold_starts += o.cold_starts;
  journal_events += o.journal_events;
  journal_tail_dropped += o.journal_tail_dropped;
}

CheckpointStore::CheckpointStore(std::string dir, FaultCtx fault, bool fresh)
    : dir_(std::move(dir)), fault_(fault) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (fresh) {
    for (u64 seq : list_snaps(dir_)) {
      fs::remove(snap_path(seq), ec);
    }
    return;
  }
  // Resume: never reuse a sequence number that may already exist on disk,
  // even as a damaged file — save() must not overwrite evidence.
  const std::vector<u64> seqs = list_snaps(dir_);
  if (!seqs.empty()) {
    next_seq_.store(seqs.back() + 1, std::memory_order_relaxed);
  }
}

u64 CheckpointStore::newest_seq_on_disk() const {
  const std::vector<u64> seqs = list_snaps(dir_);
  return seqs.empty() ? 0 : seqs.back();
}

std::string CheckpointStore::snap_path(u64 seq) const {
  return dir_ + "/" + kSnapPrefix + std::to_string(seq) + kSnapSuffix;
}

bool CheckpointStore::save(const CampaignSnapshot& s, u32 keep,
                           std::string* err) {
  const u64 seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  const std::vector<u8> bytes = encode_snapshot(s, seq);
  if (!write_file_atomic(snap_path(seq), bytes, fault_, err)) {
    save_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
  checkpoint_bytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
  // Progress-keyed kill point: snapshot `seq` is committed and newest.
  if (fault_.injector != nullptr) {
    fault_.injector->commit_point(fault_.instance, seq);
  }

  // Prune oldest snapshots beyond the retention window. Failures here are
  // ignorable: extra old snapshots cost disk, not correctness.
  std::vector<u64> seqs = list_snaps(dir_);
  if (keep > 0 && seqs.size() > keep) {
    std::error_code ec;
    for (usize i = 0; i + keep < seqs.size(); ++i) {
      fs::remove(snap_path(seqs[i]), ec);
    }
  }
  return true;
}

void CheckpointStore::classify_failure(LoadStatus s) noexcept {
  switch (s) {
    case LoadStatus::kTruncatedTail:
    case LoadStatus::kNoCommit:
      recovered_torn_tail_.fetch_add(1, std::memory_order_relaxed);
      break;
    case LoadStatus::kBadCrc:
      recovered_bad_crc_.fetch_add(1, std::memory_order_relaxed);
      break;
    case LoadStatus::kBadMagic:
    case LoadStatus::kBadVersion:
      recovered_version_mismatch_.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      recovered_other_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

CheckpointStore::LoadOutcome CheckpointStore::load_latest() {
  LoadOutcome out;
  const std::vector<u64> seqs = list_snaps(dir_);
  for (auto it = seqs.rbegin(); it != seqs.rend(); ++it) {
    std::vector<u8> bytes;
    std::string err;
    if (!read_file(snap_path(*it), &bytes, fault_, &err)) {
      out.last_failure = LoadStatus::kMissing;
      classify_failure(LoadStatus::kMissing);
      ++out.snapshots_skipped;
      continue;
    }
    DecodeResult dec = decode_snapshot(bytes);
    if (dec.status != LoadStatus::kOk) {
      out.last_failure = dec.status;
      classify_failure(dec.status);
      ++out.snapshots_skipped;
      continue;
    }
    out.snapshot = std::move(dec.snapshot);
    checkpoints_loaded_.fetch_add(1, std::memory_order_relaxed);
    if (out.snapshots_skipped > 0) {
      fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }
    return out;
  }
  cold_starts_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

PersistStats CheckpointStore::stats() const noexcept {
  PersistStats s;
  s.checkpoints_written = checkpoints_written_.load(std::memory_order_relaxed);
  s.checkpoint_bytes = checkpoint_bytes_.load(std::memory_order_relaxed);
  s.save_failures = save_failures_.load(std::memory_order_relaxed);
  s.checkpoints_loaded = checkpoints_loaded_.load(std::memory_order_relaxed);
  s.recovered_torn_tail =
      recovered_torn_tail_.load(std::memory_order_relaxed);
  s.recovered_bad_crc = recovered_bad_crc_.load(std::memory_order_relaxed);
  s.recovered_version_mismatch =
      recovered_version_mismatch_.load(std::memory_order_relaxed);
  s.recovered_other = recovered_other_.load(std::memory_order_relaxed);
  s.fallbacks = fallbacks_.load(std::memory_order_relaxed);
  s.cold_starts = cold_starts_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace bigmap::persist
