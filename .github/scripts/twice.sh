#!/usr/bin/env bash
# Determinism gate: run CMD in two fresh processes and require both to
# print the same PATTERN line(s), equal to the line(s) pinned for CMD in
# expected-lines.tsv next to this script.  A non-zero exit from either
# run, a run with no matching line, differing lines, a CMD with no
# pinned line or a line that differs from the pinned one fail the gate.
#
#   bash .github/scripts/twice.sh "aggregate fingerprint digest" \
#       python -m repro verify --seeds 50
set -euo pipefail

pattern=$1
shift
pins="$(dirname "$0")/expected-lines.tsv"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
for run in 1 2; do
  "$@" | tee "$out/run$run"
  grep -e "$pattern" "$out/run$run" > "$out/line$run"
done
diff "$out/line1" "$out/line2"
echo "identical across two runs: $(cat "$out/line1")"
awk -F '\t' -v cmd="$*" '$1 == cmd { print $2 }' "$pins" > "$out/pinned"
if [ ! -s "$out/pinned" ]; then
  echo "no pinned line for '$*' in $pins" >&2
  exit 1
fi
if ! diff "$out/pinned" "$out/line1"; then
  echo "the line differs from the one pinned in $pins (< pinned, > this run)" >&2
  exit 1
fi
echo "matches the pinned line"
