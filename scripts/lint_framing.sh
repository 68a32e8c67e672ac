#!/usr/bin/env bash
# Fails if BMSP framing is hand-rolled outside the codec: no file under
# src/persist, src/corpus or src/fuzzer/netfleet other than
# persist/framing.h may compute a CRC or write the BMSP magic.
set -euo pipefail

cd "$(dirname "$0")/.."

hits=$(grep -rnE 'crc32(_update)?\(|frame_crc|bmsp::kMagic' \
         src/persist src/corpus src/fuzzer/netfleet |
       grep -v '^src/persist/framing\.h:' || true)
if [[ -n "$hits" ]]; then
  echo "BMSP framing outside persist/framing.h:" >&2
  echo "$hits" >&2
  exit 1
fi
echo "framing lint: ok"
