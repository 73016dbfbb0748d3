#!/usr/bin/env bash
# Checks or rewrites tests/golden/counters_t1.txt, the golden counters of
# the 28 gen:NAME:medium suite graphs solved at --threads 1.
#
#   tools/golden_counters.sh check BUILD_DIR [REP...]   # default: all four
#   tools/golden_counters.sh write BUILD_DIR [REP...]
#
# BUILD_DIR holds the lazymc binary.  `check` fails, listing every changed
# line, when a counter differs from the file; `write` regenerates the file
# (a change that alters it lists each changed counter in CHANGES.md).
set -euo pipefail

if [ $# -lt 2 ] || { [ "$1" != check ] && [ "$1" != write ]; }; then
  echo "usage: $0 check|write BUILD_DIR [auto|bitset|hash|sorted ...]" >&2
  exit 2
fi
mode=$1
build=$2
shift 2
root=$(cd "$(dirname "$0")/.." && pwd)
reps="auto;bitset;hash;sorted"
if [ $# -gt 0 ]; then
  reps=$(IFS=';'; echo "$*")
fi
exec cmake -DLAZYMC_BIN="$build/lazymc" \
  -DGOLDEN="$root/tests/golden/counters_t1.txt" \
  -DREPS="$reps" -DMODE="$mode" \
  -P "$root/cmake/golden_counters.cmake"
