#!/usr/bin/env bash
# Real-signal crash sweep for the durable stores.
#
# SIGKILLs `gnnavigate` at five staggered points of a run against one
# store directory, then runs once uninterrupted over whatever the kills
# left behind. That last run must print what a fresh-store run prints,
# see no CRC failure, and cut at most one torn tail per log it reopens.
#
#   ci/kill_sweep.sh <gnnavigate binary> <artifact dir> <seed>
set -euo pipefail

bin=$1
out=$2
seed=$3
mkdir -p "$out/fresh" "$out/killed"

navigate=("$bin" --dataset RD2 --scale 0.01 --seed "$seed")
stores() { echo --profile-db "$1/profiles.db" --explore-cache "$1/explore"; }

start=$(date +%s.%N)
"${navigate[@]}" $(stores "$out/fresh") > "$out/baseline.out"
wall=$(awk -v a="$start" -v b="$(date +%s.%N)" 'BEGIN { print b - a }')

# Kill points as fractions of the uninterrupted wall time, so the sweep
# lands inside the profile sweep and around the cache insert on any
# machine.
for frac in 0.15 0.35 0.55 0.75 0.95; do
  delay=$(awk -v w="$wall" -v f="$frac" 'BEGIN { print w * f }')
  code=0
  timeout -s KILL "${delay}s" "${navigate[@]}" $(stores "$out/killed") \
    > /dev/null 2>&1 || code=$?
  echo "kill at ${delay}s of ${wall}s: exit $code" | tee -a "$out/kills.log"
done
grep -q 'exit 137' "$out/kills.log" # at least one run really died

"${navigate[@]}" $(stores "$out/killed") \
  --metrics-out "$out/final-metrics.json" > "$out/final.out" 2> "$out/final.err"
diff "$out/baseline.out" "$out/final.out"
python3 - "$out/final-metrics.json" <<'PY'
import json, sys
c = json.load(open(sys.argv[1])).get("counters", {})
assert c.get("store.wal.crc_failures", 0) == 0, c
# Two logs are reopened: the profile store and the exploration cache.
assert c.get("store.wal.torn_truncated", 0) <= 2, c
print("replayed", c.get("store.wal.replayed", 0),
      "torn", c.get("store.wal.torn_truncated", 0))
PY
