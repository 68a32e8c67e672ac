#include "core/flat_map.h"

#include <bit>
#include <stdexcept>

#include "core/kernels/kernels.h"

namespace bigmap {

void validate_map_options(const MapOptions& opt) {
  if (opt.map_size < 8 || !std::has_single_bit(opt.map_size)) {
    throw std::invalid_argument(
        "MapOptions::map_size must be a power of two >= 8");
  }
  if (opt.condensed_size != 0 && opt.condensed_size % 8 != 0) {
    throw std::invalid_argument(
        "MapOptions::condensed_size must be a multiple of 8");
  }
  // Fails loudly on an unknown/unsupported kernel name.
  kernels::resolve_kernel(opt.kernel);
}

FlatCoverageMap::FlatCoverageMap(const MapOptions& opt)
    : trace_((validate_map_options(opt), opt.map_size), opt.backing()),
      kernel_(&kernels::resolve_kernel(opt.kernel)),
      mask_(static_cast<u32>(opt.map_size - 1)),
      merged_classify_compare_(opt.merged_classify_compare) {}

void FlatCoverageMap::reset() noexcept {
  ++ops_.resets;
  kernel_->reset(trace_.data(), scan_cost_bytes());
}

void FlatCoverageMap::classify() noexcept {
  ++ops_.classifies;
  kernel_->classify(trace_.data(), scan_cost_bytes());
}

NewBits FlatCoverageMap::compare_update(VirginMap& virgin) noexcept {
  ++ops_.compares;
  return kernel_->compare_update(trace_.data(), virgin.data(),
                                 scan_cost_bytes());
}

NewBits FlatCoverageMap::classify_and_compare(VirginMap& virgin) noexcept {
  if (merged_classify_compare_) {
    ++ops_.classifies;
    ++ops_.compares;
    return kernel_->classify_compare(trace_.data(), virgin.data(),
                                     scan_cost_bytes());
  }
  classify();
  return compare_update(virgin);
}

u32 FlatCoverageMap::hash() const noexcept {
  ++ops_.hashes;
  return kernel_->hash(trace_.data(), scan_cost_bytes());
}

u32 FlatCoverageMap::classify_hash_clear() noexcept {
  ++ops_.classifies;
  ++ops_.hashes;
  return kernel_->classify_hash_clear(trace_.data(), scan_cost_bytes());
}

usize FlatCoverageMap::count_nonzero() const noexcept {
  return kernel_->count_ne(trace_.data(), trace_.size(), 0);
}

}  // namespace bigmap
