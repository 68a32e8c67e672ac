#!/usr/bin/env bash
# Fails if a translation unit compiled above the baseline ISA defines a
# global or weak symbol other than its one entry point.
#
# Such a TU (the AVX2 and AVX-512 kernels, the PCLMULQDQ CRC fold) is only
# entered after a runtime CPU check. Any other symbol it exports, above all
# a weak inline or template instantiation the linker may pick over the
# baseline copy, could run ISA-extended code on a CPU without that
# extension. Allowed: the entry point and DW.ref.__gxx_personality_v0 (the
# EH personality reference every C++ object with unwind tables carries).
#
# Usage: scripts/lint_isa.sh <build-dir>
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi
build=$1
cache="$build/CMakeCache.txt"
if [[ ! -f "$cache" ]]; then
  echo "isa lint: $cache not found; configure and build first" >&2
  exit 2
fi

status=0

# check <source> <entry point> <CMake cache variable set when the compiler
# takes the TU's ISA flag>
check() {
  local src=$1 entry=$2 flag_var=$3
  local has_flag obj
  has_flag=$(sed -n "s/^${flag_var}:INTERNAL=//p" "$cache")
  if [[ "$has_flag" != 1 ]]; then
    echo "isa lint: $src built at the baseline ISA (no $flag_var); skipped"
    return
  fi
  obj=$(find "$build" -path '*/CMakeFiles/*.dir/*' -name "${src##*/}.o" |
        head -n 1)
  if [[ -z "$obj" ]]; then
    echo "isa lint: no object for $src although the compiler takes its" \
         "ISA flag; build first" >&2
    status=1
    return
  fi
  local extra
  extra=$(nm -g --defined-only "$obj" | awk '{print $NF}' | c++filt |
          grep -vxE "DW\.ref\.__gxx_personality_v0|(.*::)?${entry}\(.*\)" ||
          true)
  if [[ -n "$extra" ]]; then
    echo "isa lint: $src ($obj) defines symbols besides ${entry}():" >&2
    echo "$extra" | sed 's/^/  /' >&2
    status=1
  fi
}

check core/kernels/kernel_avx2.cpp avx2_kernel_ops BIGMAP_COMPILER_HAS_MAVX2
check core/kernels/kernel_avx512.cpp avx512_kernel_ops \
  BIGMAP_COMPILER_HAS_MAVX512
check util/crc32_clmul.cpp crc32_clmul_fold BIGMAP_COMPILER_HAS_MPCLMUL

if [[ $status -ne 0 ]]; then
  exit 1
fi
echo "isa lint: ok"
