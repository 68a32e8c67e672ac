#!/usr/bin/env bash
# Fails if an event is counted twice: outside src/telemetry no code may
# hold a telemetry::Counter* (subsystems count in their stats structs, and
# the fleet driver publishes those into the registry); TelemetrySink holds
# no Counter, Gauge or Histogram but the supervisor's `restarts` (the
# campaign counts in its CampaignResult and publishes a StatsSnapshot at
# each stamp); and src/util may not include a telemetry/ header (util sits
# below telemetry).
set -euo pipefail

cd "$(dirname "$0")/.."

status=0
hits=$(grep -rnE 'telemetry::Counter[[:space:]]*\*' src |
       grep -v '^src/telemetry/' || true)
if [[ -n "$hits" ]]; then
  echo "telemetry::Counter* outside src/telemetry:" >&2
  echo "$hits" >&2
  status=1
fi
hits=$(grep -nE '^[[:space:]]*(telemetry::)?(Counter|Gauge|Histogram)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*[;{]' \
         src/telemetry/sink.h |
       grep -vE '(Counter|Gauge|Histogram)[[:space:]]+restarts[[:space:]]*[;{]' || true)
if [[ -n "$hits" ]]; then
  echo "src/telemetry/sink.h mirrors a counter (only restarts may stay):" >&2
  echo "$hits" >&2
  status=1
fi
hits=$(grep -rnE '#include[[:space:]]*"telemetry/' src/util || true)
if [[ -n "$hits" ]]; then
  echo "src/util includes a telemetry/ header:" >&2
  echo "$hits" >&2
  status=1
fi
if [[ $status -ne 0 ]]; then
  exit 1
fi
echo "stats lint: ok"
