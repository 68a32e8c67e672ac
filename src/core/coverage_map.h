// CoverageMapVariant: runtime selection between the two map schemes.
//
// Hot loops (per-edge update) stay fully inlined inside the concrete map
// classes; this wrapper dispatches once per *operation*, never per edge.
// Code that is itself templated on the map type (the executor) should use
// the concrete classes directly; the variant exists for configuration-driven
// call sites (benches, examples) that pick the scheme at runtime.
#pragma once

#include <variant>

#include "core/flat_map.h"
#include "core/map_options.h"
#include "core/two_level_map.h"

namespace bigmap {

class CoverageMapVariant {
 public:
  CoverageMapVariant(MapScheme scheme, const MapOptions& opt)
      : map_(make(scheme, opt)) {}

  MapScheme scheme() const noexcept {
    return std::holds_alternative<FlatCoverageMap>(map_) ? MapScheme::kFlat
                                                         : MapScheme::kTwoLevel;
  }

  usize map_size() const noexcept {
    return std::visit([](const auto& m) { return m.map_size(); }, map_);
  }

  // Size a virgin map must have to be comparable against this map's trace:
  // the full map for the flat scheme, the condensed bitmap for BigMap.
  usize virgin_size() const noexcept {
    if (const auto* two = std::get_if<TwoLevelCoverageMap>(&map_)) {
      return two->condensed_size();
    }
    return std::get<FlatCoverageMap>(map_).map_size();
  }

  void update(u32 key) noexcept {
    std::visit([key](auto& m) { m.update(key); }, map_);
  }

  void reset() noexcept {
    std::visit([](auto& m) { m.reset(); }, map_);
  }

  void classify() noexcept {
    std::visit([](auto& m) { m.classify(); }, map_);
  }

  NewBits compare_update(VirginMap& virgin) noexcept {
    return std::visit([&](auto& m) { return m.compare_update(virgin); },
                      map_);
  }

  NewBits classify_and_compare(VirginMap& virgin) noexcept {
    return std::visit(
        [&](auto& m) { return m.classify_and_compare(virgin); }, map_);
  }

  u32 hash() const noexcept {
    return std::visit([](const auto& m) { return m.hash(); }, map_);
  }

  usize scan_cost_bytes() const noexcept {
    return std::visit([](const auto& m) { return m.scan_cost_bytes(); },
                      map_);
  }

  usize count_nonzero() const noexcept {
    return std::visit([](const auto& m) { return m.count_nonzero(); }, map_);
  }

  MapOpCounts op_counts() const noexcept {
    return std::visit(
        [](const auto& m) -> MapOpCounts { return m.op_counts(); }, map_);
  }

  const char* kernel_name() const noexcept {
    return std::visit([](const auto& m) { return m.kernel_name(); }, map_);
  }

  // Persistence passthrough (see the concrete maps for semantics).
  void export_state(std::vector<u32>* index, u32* used_key,
                    u64* saturated) const {
    std::visit(
        [&](const auto& m) { m.export_state(index, used_key, saturated); },
        map_);
  }

  // Concrete access for scheme-specific introspection.
  FlatCoverageMap* as_flat() noexcept {
    return std::get_if<FlatCoverageMap>(&map_);
  }
  TwoLevelCoverageMap* as_two_level() noexcept {
    return std::get_if<TwoLevelCoverageMap>(&map_);
  }
  const TwoLevelCoverageMap* as_two_level() const noexcept {
    return std::get_if<TwoLevelCoverageMap>(&map_);
  }

 private:
  using Variant = std::variant<FlatCoverageMap, TwoLevelCoverageMap>;

  static Variant make(MapScheme scheme, const MapOptions& opt) {
    if (scheme == MapScheme::kFlat) {
      return Variant(std::in_place_type<FlatCoverageMap>, opt);
    }
    return Variant(std::in_place_type<TwoLevelCoverageMap>, opt);
  }

  Variant map_;
};

}  // namespace bigmap
