#include "core/two_level_map.h"

#include <cstring>

#include "core/kernels/kernels.h"

namespace bigmap {

TwoLevelCoverageMap::TwoLevelCoverageMap(const MapOptions& opt)
    : index_((validate_map_options(opt), opt.map_size * sizeof(u32)),
             opt.backing()),
      coverage_(opt.condensed_size == 0 ? opt.map_size : opt.condensed_size),
      key_log_(opt.map_size * sizeof(u32)),
      key_log_data_(reinterpret_cast<u32*>(key_log_.data())),
      kernel_(&kernels::resolve_kernel(opt.kernel)),
      index_data_(reinterpret_cast<u32*>(index_.data())),
      index_size_(opt.map_size),
      mask_(static_cast<u32>(opt.map_size - 1)),
      merged_classify_compare_(opt.merged_classify_compare) {
  // The one-time full-map initialization (§IV-B): index entries to -1.
  // The coverage bitmap needs none: its fresh pages read as zero and fault
  // in only as used_key grows over them.
  std::memset(index_.data(), 0xFF, index_.size());
}

u32 TwoLevelCoverageMap::allocate_slot(u32* slot) noexcept {
  key_log_data_[used_key_ + saturated_] =
      static_cast<u32>(slot - index_data_);
  u32 k;
  if (used_key_ < coverage_.size()) {
    k = used_key_++;
  } else {
    // Condensed bitmap exhausted: alias the final slot. With the default
    // condensed_size == map_size this is unreachable (there are at most
    // map_size distinct keys).
    k = static_cast<u32>(coverage_.size() - 1);
    ++saturated_;
  }
  *slot = k;
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
  index->assign(index_data_, index_data_ + index_size_);
  *used_key = used_key_;
  *saturated = saturated_;
}

bool TwoLevelCoverageMap::import_slot_keys(std::span<const u32> keys) {
  if (used_key_ != 0 || saturated_ != 0) return false;
  for (usize i = 0; i < keys.size(); ++i) {
    if (keys[i] >= index_size_ || index_data_[keys[i]] != kUnassigned) {
      for (usize j = 0; j < i; ++j) index_data_[keys[j]] = kUnassigned;
      used_key_ = 0;
      saturated_ = 0;
      return false;
    }
    allocate_slot(index_data_ + keys[i]);
  }
  return true;
}

}  // namespace bigmap
