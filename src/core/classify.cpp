#include "core/classify.h"

namespace bigmap {
namespace {

std::array<u8, 256> make_lookup8() noexcept {
  std::array<u8, 256> lut{};
  for (u32 i = 0; i < 256; ++i) lut[i] = classify_count(static_cast<u8>(i));
  return lut;
}

}  // namespace

const std::array<u8, 256>& count_class_lookup8() noexcept {
  static const std::array<u8, 256> lut = make_lookup8();
  return lut;
}

bool is_classified(std::span<const u8> mem) noexcept {
  for (u8 b : mem) {
    switch (b) {
      case 0:
      case 1:
      case 2:
      case 4:
      case 8:
      case 16:
      case 32:
      case 64:
      case 128:
        break;
      default:
        return false;
    }
  }
  return true;
}

}  // namespace bigmap
