#!/usr/bin/env bash
# Writes a benchmark baseline in the schema of BENCH_9.json.
#
# Runs the micro-kernel shoot-out from bench_micro, then a suite omega
# sweep (3 graphs x 3 neighborhood representations through the CLI),
# asserts that every representation agrees on omega per graph, and
# merges everything into one stable-schema JSON document.
#
# usage: tools/bench_baseline.sh BUILD_DIR [OUT_JSON]
#
# OUT_JSON defaults to bench_baseline.json; BENCH_9.json is a historical
# record and is not rewritten unless named explicitly.
#
# environment:
#   BENCH_SCALE        suite scale for the omega sweep (default: medium;
#                      CI uses small to stay time-bounded)
#   BENCH_TIME_LIMIT   per-solve wall-clock limit in seconds (default 120)
set -euo pipefail

BUILD_DIR=${1:?usage: tools/bench_baseline.sh BUILD_DIR [OUT_JSON]}
OUT=${2:-bench_baseline.json}
SCALE=${BENCH_SCALE:-medium}
TIME_LIMIT=${BENCH_TIME_LIMIT:-120}
GRAPHS=(webcc soflow flickr)
REPS=(hash bitset auto)

for bin in bench_micro lazymc; do
  if [ ! -x "$BUILD_DIR/$bin" ]; then
    echo "bench_baseline: $BUILD_DIR/$bin not found (build it first)" >&2
    exit 1
  fi
done

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "== micro shoot-out (bench_micro) =="
"$BUILD_DIR/bench_micro" --shootout --json="$TMP/micro.json"

echo "== omega sweep (${GRAPHS[*]} x ${REPS[*]}, scale=$SCALE) =="
for g in "${GRAPHS[@]}"; do
  for rep in "${REPS[@]}"; do
    "$BUILD_DIR/lazymc" --graph "gen:$g:$SCALE" --rep "$rep" \
      --time-limit "$TIME_LIMIT" --json >"$TMP/sweep-$g-$rep.json"
    echo "  $g/$rep done"
  done
done

python3 - "$TMP" "$OUT" "$SCALE" <<'PY'
import json
import sys

tmp, out, scale = sys.argv[1], sys.argv[2], sys.argv[3]
graphs = ["webcc", "soflow", "flickr"]
reps = ["hash", "bitset", "auto"]

with open(f"{tmp}/micro.json") as f:
    micro = json.load(f)

sweep = []
for g in graphs:
    entry = {"graph": g, "scale": scale, "reps": {}}
    omegas = set()
    for rep in reps:
        with open(f"{tmp}/sweep-{g}-{rep}.json") as f:
            r = json.load(f)
        if r.get("timed_out"):
            sys.exit(f"bench_baseline: {g}/{rep} timed out; baseline unusable")
        lg = r.get("lazy_graph", {})
        entry["reps"][rep] = {
            "omega": r["omega"],
            "solve_seconds": r["solve_seconds"],
            "zone_size": lg.get("zone_size", 0),
            "rows_built": lg.get("bitset_built", 0),
            "row_bytes": lg.get("bitset_bytes", 0),
        }
        omegas.add(r["omega"])
    if len(omegas) != 1:
        sys.exit(f"bench_baseline: omega disagrees on {g}: "
                 f"{ {rep: v['omega'] for rep, v in entry['reps'].items()} }")
    entry["omega"] = omegas.pop()
    sweep.append(entry)

doc = {
    "schema": "lazymc-bench-baseline/1",
    "issue": 9,
    "generated_by": "tools/bench_baseline.sh",
    "micro": micro,
    "omega_sweep": sweep,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {out}")
PY
