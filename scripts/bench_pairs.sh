#!/usr/bin/env bash
# Is this checkout faster than <parent-rev> on one benchmark workload? The
# paired before/after every perf PR needs, as the driver takes it: the
# BENCHMARK.json command on the parent's committed files and on this
# working tree, strictly alternating (parent first on even pairs, change
# first on odd ones, so neither side always runs on the warmer machine),
# one seed per pair.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> [pairs=5] [seconds=12]
#   scripts/bench_pairs.sh HEAD stencil_local
#   scripts/bench_pairs.sh HEAD "cg_dsm sync_directives" 3   # one build, two workloads
#
# Prints every run, then per end-to-end metric the two medians, their
# middle halves (quartile 1 .. quartile 3), the change of the median in
# percent and in how many pairs the change was lower. The parent is
# `git archive`d into a temp dir (BENCH_PAIRS_TMP, default /tmp) and both
# sides are built once, before the first run. Needs python3; not tier-1.
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:?usage: scripts/bench_pairs.sh <parent-rev> <workload> [pairs=5] [seconds=12]}"
workloads="${2:?usage: scripts/bench_pairs.sh <parent-rev> <workload> [pairs=5] [seconds=12]}"
pairs="${3:-5}"
seconds="${4:-12}"
first_seed="${BENCH_PAIRS_SEED:-301}"

tmp="$(mktemp -d "${BENCH_PAIRS_TMP:-/tmp}/bench_pairs.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$rev" | tar -x -C "$tmp/parent"

# The driver's command, read from BENCHMARK.json itself.
mapfile -t cmd < <(python3 -c '
import json
print(*json.load(open("BENCHMARK.json"))["command"], sep="\n")')

run() { # <dir> <workload> <seed> <seconds>: the one JSON line printed last
  (cd "$1" && "${cmd[@]}" --workload "$2" --seed "$3" --seconds "$4" \
    --trace 0 | tail -n 1)
}

# Build both once; a 1 s run is the cheapest way to say "the command's build".
for side in "$tmp/parent" "$PWD"; do
  run "$side" "${workloads%% *}" 1 1 > /dev/null
done

for workload in $workloads; do
  for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then
      run "$tmp/parent" "$workload" "$seed" "$seconds" > "$tmp/parent.$i.json"
      run "$PWD" "$workload" "$seed" "$seconds" > "$tmp/change.$i.json"
    else
      run "$PWD" "$workload" "$seed" "$seconds" > "$tmp/change.$i.json"
      run "$tmp/parent" "$workload" "$seed" "$seconds" > "$tmp/parent.$i.json"
    fi
    echo "$workload: pair $i (seed $seed) done" >&2
  done

  python3 - "$tmp" "$pairs" "$workload" "$rev" <<'EOF'
import json, statistics, sys
tmp, pairs, workload, rev = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
names = [m["name"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]]

def metrics(path):
    return {k: m["value"] for k, m in json.load(open(path))["metrics"].items()}

parent = [metrics(f"{tmp}/parent.{i}.json") for i in range(pairs)]
change = [metrics(f"{tmp}/change.{i}.json") for i in range(pairs)]

def middle(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print(f"{workload}: {pairs} alternating pairs, parent = {rev}")
for name in names:
    p = [r[name] for r in parent]
    c = [r[name] for r in change]
    print(f"\n{name}")
    print("  parent " + " ".join(f"{v:.6g}" for v in p))
    print("  change " + " ".join(f"{v:.6g}" for v in c))
    mp, mc = statistics.median(p), statistics.median(c)
    (p1, p3), (c1, c3) = middle(p), middle(c)
    delta = f"{(mc - mp) / mp * 100:+.1f} %" if mp else "n/a"
    wins = sum(cv < pv for pv, cv in zip(p, c))
    print(f"  median {mp:.6g} [{p1:.6g} .. {p3:.6g}] -> {mc:.6g} [{c1:.6g} .. {c3:.6g}]"
          f"  {delta}, lower in {wins}/{pairs}")
EOF
done
