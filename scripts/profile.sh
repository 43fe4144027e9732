#!/usr/bin/env bash
# Where does a benchmark workload spend host CPU? A sampling profile for
# containers without `perf`:
#
#   scripts/profile.sh <workload> [seed]     # e.g. translate_corpus 5
#
# builds benchmark/ with frame pointers into its own target directory, runs
# the driver's form of the workload (BENCHMARK.json) under the LD_PRELOAD
# sampler of scripts/prof/ and prints flat and inclusive top-20 tables for
# the workload's child process. Not part of tier-1; skips when a tool it
# needs is missing. Everything it writes goes under target/prof/.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:?usage: scripts/profile.sh <workload> [seed]}"
seed="${2:-1}"
for tool in cc python3 nm; do
  if ! command -v "$tool" >/dev/null 2>&1; then
    echo "profile.sh: skipped ($tool not installed)"
    exit 0
  fi
done

out="$PWD/target/prof"
mkdir -p "$out"
cc -O2 -shared -fPIC -o "$out/libsampler.so" scripts/prof/sampler.c
RUSTFLAGS="-C force-frame-pointers=yes -C debuginfo=1" \
  cargo build --release --offline --quiet \
  --manifest-path benchmark/Cargo.toml --target-dir "$out/build"

rm -f "$out"/samples.*
PARADE_PROF_OUT="$out/samples" LD_PRELOAD="$out/libsampler.so" \
  "$out/build/release/parade-benchmark" \
  --workload "$workload" --seed "$seed" --seconds 12 --trace 0
python3 scripts/prof/symbolize.py "$out"/samples.*
