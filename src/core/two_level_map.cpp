#include "core/two_level_map.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/kernels/kernels.h"

namespace bigmap {

namespace {

// Entries in a fresh index table: one page, or the whole reservation of a
// smaller map.
usize fresh_table_entries(usize map_size) {
  return std::min<usize>(4096 / sizeof(u64), 2 * map_size);
}

// Validates `opt` and returns the index table's reservation in bytes.
usize index_reservation_bytes(const MapOptions& opt) {
  validate_map_options(opt);
  // An empty entry's low word is 0xFFFFFFFF, which no key may equal.
  if (opt.map_size > (usize{1} << 31)) {
    throw std::invalid_argument(
        "TwoLevelCoverageMap: map_size must be at most 2^31");
  }
  return 2 * opt.map_size * sizeof(u64);
}

}  // namespace

TwoLevelCoverageMap::TwoLevelCoverageMap(const MapOptions& opt)
    : index_(index_reservation_bytes(opt)),
      coverage_(opt.condensed_size == 0 ? opt.map_size : opt.condensed_size),
      key_log_(opt.map_size * sizeof(u32)),
      key_log_data_(reinterpret_cast<u32*>(key_log_.data())),
      kernel_(&kernels::resolve_kernel(opt.kernel)),
      table_(reinterpret_cast<u64*>(index_.data())),
      map_size_(opt.map_size),
      mask_(static_cast<u32>(opt.map_size - 1)),
      merged_classify_compare_(opt.merged_classify_compare) {
  // Nothing is filled whole: the coverage bitmap's fresh pages read as
  // zero and fault in only as used_key grows over them, and the index
  // starts as one page of empty entries.
  clear_table(fresh_table_entries(map_size_));
}

void TwoLevelCoverageMap::clear_table(usize capacity) noexcept {
  table_mask_ = capacity - 1;
  table_shift_ = static_cast<u32>(32 - std::countr_zero(capacity));
  std::fill_n(table_, capacity, kEmpty);
}

void TwoLevelCoverageMap::grow() noexcept {
  clear_table(2 * (table_mask_ + 1));
  const std::span<const u32> keys = slot_keys();
  for (usize n = 0; n < keys.size(); ++n) {
    table_[find(keys[n])] = keys[n] | u64{slot_at(n)} << 32;
  }
}

u32 TwoLevelCoverageMap::allocate_slot(u32 key, usize e) noexcept {
  const usize n = used_key_ + saturated_;
  // Keep the load at or below 1/2. The reservation holds 2 * map_size
  // entries and at most map_size keys are ever logged, so this always
  // fits.
  if (2 * (n + 1) > table_mask_ + 1) {
    grow();
    e = find(key);
  }
  key_log_data_[n] = key;
  // With the default condensed_size == map_size the bitmap never fills
  // (there are at most map_size distinct keys); once an undersized one
  // does, every new key aliases the final slot.
  const u32 k = slot_at(n);
  if (used_key_ < coverage_.size()) {
    ++used_key_;
  } else {
    ++saturated_;
  }
  table_[e] = key | u64{k} << 32;
  return k;
}

void TwoLevelCoverageMap::reset() noexcept {
  ++ops_.resets;
  kernel_->reset(coverage_.data(), used_key_);
}

void TwoLevelCoverageMap::classify() noexcept {
  ++ops_.classifies;
  kernel_->classify(coverage_.data(), used_key_);
}

NewBits TwoLevelCoverageMap::compare_update(VirginMap& virgin) noexcept {
  ++ops_.compares;
  return kernel_->compare_update(coverage_.data(), virgin.data(),
                                 used_key_);
}

NewBits TwoLevelCoverageMap::classify_and_compare(VirginMap& virgin) noexcept {
  if (merged_classify_compare_) {
    ++ops_.classifies;
    ++ops_.compares;
    return kernel_->classify_compare(coverage_.data(), virgin.data(),
                                     used_key_);
  }
  classify();
  return compare_update(virgin);
}

u32 TwoLevelCoverageMap::hash() const noexcept {
  ++ops_.hashes;
  // §IV-D: hash up to the last non-zero byte so the hash of a path is
  // independent of used_key growth caused by other paths.
  const usize end = kernel_->find_used_end(coverage_.data(), used_key_);
  return kernel_->hash(coverage_.data(), end);
}

usize TwoLevelCoverageMap::count_nonzero() const noexcept {
  return kernel_->count_ne(coverage_.data(), used_key_, 0);
}

void TwoLevelCoverageMap::export_state(std::vector<u32>* index, u32* used_key,
                                       u64* saturated) const {
  index->assign(map_size_, kUnassigned);
  const std::span<const u32> keys = slot_keys();
  for (usize n = 0; n < keys.size(); ++n) (*index)[keys[n]] = slot_at(n);
  *used_key = used_key_;
  *saturated = saturated_;
}

bool TwoLevelCoverageMap::import_slot_keys(std::span<const u32> keys) {
  if (used_key_ != 0 || saturated_ != 0) return false;
  for (const u32 key : keys) {
    const usize e = key < map_size_ ? find(key) : 0;
    if (key >= map_size_ || table_[e] != kEmpty) {
      used_key_ = 0;
      saturated_ = 0;
      clear_table(fresh_table_entries(map_size_));
      return false;
    }
    allocate_slot(key, e);
  }
  return true;
}

}  // namespace bigmap
