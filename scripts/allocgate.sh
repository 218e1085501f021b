#!/usr/bin/env bash
# allocgate.sh — static allocation gate for the hot-path packages.
#
# The engine's steady-state claim (ROADMAP: "allocation-free in hot
# paths") is enforced dynamically by testing.AllocsPerRun in a few
# benchmarks, but nothing stopped a PR from quietly adding a heap
# escape to a path those benchmarks miss. This gate closes that hole
# statically: it parses the compiler's escape analysis (`go build
# -gcflags=-m`) for the hot-path packages, aggregates escape counts
# per file, and fails if any file gained escapes over the committed
# baseline (scripts/allocgate_baseline.txt).
#
# Per-file counts, not per-line: line numbers churn with every edit,
# but "this file now heap-allocates more than it used to" is exactly
# the signal we want a human to look at. Escapes that merely move
# within a file stay invisible; new ones anywhere fail the gate.
#
# Usage:
#   scripts/allocgate.sh            # compare against the baseline
#   scripts/allocgate.sh -update    # rewrite the baseline from HEAD
#
# The escape output is replayed from the build cache, so a warm run
# costs almost nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

PKGS=(./internal/hypercube ./internal/collective ./internal/core ./internal/flightrec ./internal/router)
BASELINE=scripts/allocgate_baseline.txt

# current prints "file count" per source file, sorted, for every
# "escapes to heap" / "moved to heap" diagnostic in the gated
# packages. -gcflags without a pattern applies only to the packages
# named on the command line, so dependencies don't pollute the count.
current() {
  go build -gcflags=-m "${PKGS[@]}" 2>&1 |
    grep -E 'escapes to heap|moved to heap' |
    cut -d: -f1 |
    sort | uniq -c |
    awk '{ print $2, $1 }'
}

if [[ "${1:-}" == "-update" ]]; then
  {
    echo "# Per-file heap-escape counts in the hot-path packages,"
    echo "# from 'go build -gcflags=-m' (escapes to heap + moved to heap)."
    echo "# Regenerate with: scripts/allocgate.sh -update"
    current
  } > "$BASELINE"
  echo "allocgate: baseline updated ($(grep -cv '^#' "$BASELINE") files)"
  exit 0
fi

if [[ ! -f "$BASELINE" ]]; then
  echo "allocgate: missing $BASELINE — run scripts/allocgate.sh -update" >&2
  exit 1
fi

now=$(mktemp)
trap 'rm -f "$now"' EXIT
current > "$now"

fail=0
improved=0
while read -r file count; do
  base=$(awk -v f="$file" '$1 == f { print $2 }' "$BASELINE")
  base=${base:-0}
  if (( count > base )); then
    echo "allocgate: $file has $count heap escapes, baseline allows $base (+$((count - base)))" >&2
    fail=1
  elif (( count < base )); then
    improved=1
  fi
done < "$now"

# A file dropping out of the output entirely is also an improvement.
while read -r file base; do
  if ! grep -q "^$file " "$now"; then
    improved=1
  fi
done < <(grep -v '^#' "$BASELINE")

if (( fail )); then
  echo "allocgate: new heap escapes in hot-path packages — inspect with" >&2
  echo "  go build -gcflags=-m ${PKGS[*]} |& grep 'to heap'" >&2
  echo "and either remove the allocation or re-baseline deliberately with scripts/allocgate.sh -update" >&2
  exit 1
fi
if (( improved )); then
  echo "allocgate: escape counts improved — consider ratcheting: scripts/allocgate.sh -update"
fi
echo "allocgate: ok (no new heap escapes in ${PKGS[*]})"
