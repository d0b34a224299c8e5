#!/usr/bin/env bash
# Determinism gate: run CMD in two fresh processes and require both to
# print the same PATTERN line(s).  A non-zero exit from either run, a
# run with no matching line, or differing lines fail the gate.
#
#   bash .github/scripts/twice.sh "aggregate fingerprint digest" \
#       python -m repro verify --seeds 50
set -euo pipefail

pattern=$1
shift
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
for run in 1 2; do
  "$@" | tee "$out/run$run"
  grep -e "$pattern" "$out/run$run" > "$out/line$run"
done
diff "$out/line1" "$out/line2"
echo "identical across two runs: $(cat "$out/line1")"
