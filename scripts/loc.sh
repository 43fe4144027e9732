#!/usr/bin/env bash
# Lines of Rust per crate, split into non-test and test.
#
#   scripts/loc.sh                       # every crate under crates/, then the total
#   scripts/loc.sh translator mir check  # those crates, then their subtotal
#   scripts/loc.sh benchmark             # a directory: one row per subdirectory
#
# A file's lines up to its first `#[cfg(test)]` are non-test, that line and
# everything after it are test. A file declared as `#[cfg(test)] mod name;`
# by another file of its directory (dsm's cluster_tests.rs, translator's
# interp_tests.rs, ...) is test from its first line. Blank lines and
# comments count: this is `wc -l`, split.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT=crates
if [ $# -eq 1 ] && [ -d "$1" ]; then
  ROOT="$1"
  shift
fi
label=total
names=()
if [ $# -gt 0 ]; then
  label=subtotal
  names=("$@")
else
  for crate in "$ROOT"/*/; do
    names+=("$(basename "$crate")")
  done
fi

printf '%-12s %9s %9s %9s\n' crate non-test test total
total_code=0
total_test=0
for name in "${names[@]}"; do
  crate="$ROOT/$name"
  if [ ! -d "$crate" ]; then
    echo "loc.sh: no crate $crate" >&2
    exit 1
  fi
  code=0
  test=0
  while IFS= read -r f; do
    dir="$(dirname "$f")"
    mod="$(basename "$f" .rs)"
    if grep -s -A1 '^[[:space:]]*#\[cfg(test)\]' "$dir"/*.rs | grep -q "mod $mod;"; then
      split=1
    else
      split="$(grep -n -m1 '^[[:space:]]*#\[cfg(test)\]' "$f" | cut -d: -f1 || true)"
    fi
    lines="$(wc -l < "$f")"
    before=$(( ${split:-$((lines + 1))} - 1 ))
    code=$((code + before))
    test=$((test + lines - before))
  done < <(find "$crate" -name '*.rs' -not -path '*/target/*' | sort)
  printf '%-12s %9d %9d %9d\n' "$name" "$code" "$test" $((code + test))
  total_code=$((total_code + code))
  total_test=$((total_test + test))
done
printf '%-12s %9d %9d %9d\n' "$label" "$total_code" "$total_test" $((total_code + total_test))
