#!/usr/bin/env bash
# Where does a benchmark workload spend host CPU, and how many thread
# hand-offs does it make? Two tools for containers without `perf`:
#
#   scripts/profile.sh <workload> [seed]           # e.g. translate_corpus 5
#   scripts/profile.sh --futex <workload> [seed]   # e.g. --futex sync_directives
#
# Both build benchmark/ with frame pointers into its own target directory.
# The first runs the driver's form of the workload (BENCHMARK.json) under the
# LD_PRELOAD sampler of scripts/prof/ and prints flat and inclusive top-20
# tables for the workload's child process; to split the samples of one leaf
# (say `syscall`) by the product function that reached it, run
# `scripts/prof/symbolize.py --leaf syscall target/prof/samples.*` afterwards.
# The second runs the workload's child for 4 s under the futex-counting
# interposer and prints parks and wakes, in total and per rep. Not part of
# tier-1; skips when a tool it needs is missing. Everything it writes goes
# under target/prof/.
set -euo pipefail
cd "$(dirname "$0")/.."

mode=sample
if [[ "${1:-}" == "--futex" ]]; then
  mode=futex
  shift
fi
workload="${1:?usage: scripts/profile.sh [--futex] <workload> [seed]}"
seed="${2:-1}"
for tool in cc python3 nm; do
  if ! command -v "$tool" >/dev/null 2>&1; then
    echo "profile.sh: skipped ($tool not installed)"
    exit 0
  fi
done

out="$PWD/target/prof"
mkdir -p "$out"
RUSTFLAGS="-C force-frame-pointers=yes -C debuginfo=1" \
  cargo build --release --offline --quiet \
  --manifest-path benchmark/Cargo.toml --target-dir "$out/build"

if [[ "$mode" == "futex" ]]; then
  cc -O2 -shared -fPIC -o "$out/libfutexcount.so" scripts/prof/futexcount.c -ldl
  rm -f "$out"/futex.*
  # The child itself, not the driver's form: its document says how many
  # reps the counts cover.
  PARADE_FUTEX_OUT="$out/futex" LD_PRELOAD="$out/libfutexcount.so" \
    "$out/build/release/parade-benchmark" \
    --child "$workload" --seed "$seed" --seconds 4 > "$out/futex_child.json"
  python3 - "$out/futex_child.json" "$out"/futex.* <<'PY'
import json, sys
doc = json.loads(open(sys.argv[1]).read().splitlines()[-1])
# Timed reps plus the child's two warm-up reps (benchmark/src/child.rs).
reps = doc["reps"] + 2
print(f"{doc['workload']}: {reps} reps")
print(f"{'':18}{'total':>12}{'per rep':>12}")
for line in open(sys.argv[2]):
    name, count = line.split()
    print(f"{name:18}{int(count):12d}{int(count) / reps:12.0f}")
PY
  exit 0
fi

cc -O2 -shared -fPIC -o "$out/libsampler.so" scripts/prof/sampler.c
rm -f "$out"/samples.*
PARADE_PROF_OUT="$out/samples" LD_PRELOAD="$out/libsampler.so" \
  "$out/build/release/parade-benchmark" \
  --workload "$workload" --seed "$seed" --seconds 12 --trace 0
python3 scripts/prof/symbolize.py "$out"/samples.*
