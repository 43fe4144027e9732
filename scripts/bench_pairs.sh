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
# percent, in how many pairs the change was lower, and a verdict by the
# small-sandbox rule: "met" when the change is better in at least 9 of
# every 10 pairs and its median beats the parent's by more than the
# parent's own quartile distance (Q3 - Q1), "worse" when the same holds
# the other way round, "unresolved" otherwise. Then one `--trace 1` child
# per side on the first seed, and every per-layer metric whose value
# differs between them: name, parent, change, change in percent (the
# counters say which layer a gain came from; host-time probes differ on
# every run). Last, each side's `failed` / `attempted` ops summed over its
# runs, with the verdict "worse" when the change's failed share is the
# larger one, "ok" otherwise. Ten pairs, on seeds not used while the change was written,
# are what a claim needs. The parent is
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

run() { # <dir> <workload> <seed> <seconds> [trace=0]: the one JSON line printed last
  (cd "$1" && "${cmd[@]}" --workload "$2" --seed "$3" --seconds "$4" \
    --trace "${5:-0}" | tail -n 1)
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
  run "$tmp/parent" "$workload" "$first_seed" "$seconds" 1 > "$tmp/parent.trace.json"
  run "$PWD" "$workload" "$first_seed" "$seconds" 1 > "$tmp/change.trace.json"

  python3 - "$tmp" "$pairs" "$workload" "$rev" "$first_seed" <<'EOF'
import json, statistics, sys
tmp, pairs, workload, rev, seed = sys.argv[1], int(sys.argv[2]), *sys.argv[3:6]
end_to_end = json.load(open("BENCHMARK.json"))["end_to_end"]

def metrics(run):
    return {k: m["value"] for k, m in run["metrics"].items()}

runs = {side: [json.load(open(f"{tmp}/{side}.{i}.json")) for i in range(pairs)]
        for side in ("parent", "change")}
parent = [metrics(r) for r in runs["parent"]]
change = [metrics(r) for r in runs["change"]]

def middle(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

def verdict(p, c, lower_is_better):
    """Choosing-metrics §8: most pairs, and medians apart by more than the
    parent's middle half."""
    sign = 1 if lower_is_better else -1
    better = sum(sign * (pv - cv) > 0 for pv, cv in zip(p, c))
    worse = sum(sign * (cv - pv) > 0 for pv, cv in zip(p, c))
    p1, p3 = middle(p)
    gain = sign * (statistics.median(p) - statistics.median(c))
    apart = abs(gain) > p3 - p1
    if 10 * better >= 9 * len(p) and apart and gain > 0:
        return "met"
    if 10 * worse >= 9 * len(p) and apart and gain < 0:
        return "worse"
    return "unresolved"

print(f"{workload}: {pairs} alternating pairs, parent = {rev}")
for metric in end_to_end:
    name = metric["name"]
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
    print(f"  verdict: {verdict(p, c, metric['better'] == 'lower')}")

p, c = (metrics(json.load(open(f"{tmp}/{side}.trace.json"))) for side in ("parent", "change"))
moved = [name for name in p if p[name] != c.get(name)]
print(f"\nper-layer metrics that differ (--trace 1, seed {seed}): {len(moved)}")
for name in moved:
    pv, cv = p[name], c.get(name)
    delta = f"{(cv - pv) / pv * 100:+.1f} %" if pv and cv is not None else "n/a"
    print(f"  {name:32} {pv!s:>14} {cv!s:>14}  {delta}")

share = {}
print("\nfailed ops (summed over the timed runs)")
for side, rs in runs.items():
    failed, attempted = sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)
    share[side] = failed / attempted if attempted else 0.0
    print(f"  {side} {failed} / {attempted}")
print(f"  verdict: {'worse' if share['change'] > share['parent'] else 'ok'}")
EOF
done
