#!/usr/bin/env bash
# Record this checkout's end-to-end numbers for the committed trajectory:
# BENCH_e2e.json is the whole `run --seed N` document (provenance included)
# and BENCH_HISTORY.tsv gains one row per workload. Run it once per PR, on
# the finished change, and commit both files (~3 min; needs python3).
#
#   scripts/bench_record.sh [seed]      # seed defaults to 1
set -euo pipefail
cd "$(dirname "$0")/.."
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  run --seed "${1:-1}" --out BENCH_e2e.json
COLS="wall_s cpu_s sim_s setup_s peak_rss_mb"
[[ -s BENCH_HISTORY.tsv ]] ||
  echo "utc_timestamp parent_commit workload seed $COLS" | tr ' ' '\t' > BENCH_HISTORY.tsv
python3 - "$(date -u +%Y-%m-%dT%H:%M:%SZ)" $COLS >> BENCH_HISTORY.tsv <<'EOF'
import json, sys
stamp, cols = sys.argv[1], sys.argv[2:]
doc = json.load(open("BENCH_e2e.json"))
run = doc["provenance"]  # git_head is HEAD at run time: the PR's parent commit
for name, w in doc["workloads"].items():
    values = [format(w["end_to_end"][c]["value"], ".6g") for c in cols]
    print(stamp, run["git_head"], name, run["seed"], *values, sep="\t")
EOF
tail -n 7 BENCH_HISTORY.tsv
