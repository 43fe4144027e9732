#!/usr/bin/env bash
# Public functions nothing calls.
#
#   scripts/unused_pub.sh    # prints `file:line: name` per unused `pub fn`, exits 1 if any
#
# Lists every `pub fn` in the non-test part of crates/*/src (split as
# scripts/loc.sh splits: a file's lines up to its first `#[cfg(test)]`, and
# no line of a file declared `#[cfg(test)] mod name;`) whose name occurs, as
# a whole word, nowhere in crates/, src/, tests/, examples/ or benchmark/src
# except on its own definition line. A call from a unit test counts as a
# call; a mention on a comment line (`//`, `///`, `//!`) does not.
set -euo pipefail
cd "$(dirname "$0")/.."
SEARCH=(crates src tests examples benchmark/src)
DEF='^[[:space:]]*pub (const |unsafe )?fn [A-Za-z_][A-Za-z0-9_]*'

defs="$(
  find crates/*/src -name '*.rs' | sort | while IFS= read -r f; do
    dir="$(dirname "$f")"
    mod="$(basename "$f" .rs)"
    if grep -s -A1 '^[[:space:]]*#\[cfg(test)\]' "$dir"/*.rs | grep -q "mod $mod;"; then
      continue
    fi
    split="$(grep -n -m1 '^[[:space:]]*#\[cfg(test)\]' "$f" | cut -d: -f1 || true)"
    head -n "$(( ${split:-$(( $(wc -l < "$f") + 1 ))} - 1 ))" "$f" \
      | grep -nEo "$DEF" \
      | sed -E "s|^([0-9]+):.*fn |$f:\\1 |" || true
  done
)"

# One grep over the tree: how often each defined name occurs as a word on a
# line that is not a comment.
names="$(cut -d' ' -f2 <<< "$defs" | sort -u)"
counts="$(grep -rhwF -f <(printf '%s\n' "$names") \
  --include='*.rs' --exclude-dir=target "${SEARCH[@]}" \
  | grep -vE '^[[:space:]]*//' \
  | grep -owF -f <(printf '%s\n' "$names") | sort | uniq -c)"

# A name is unused when it occurs no more often than it is defined.
awk 'NR == FNR { uses[$2] = $1; next }
     { loc[FNR] = $1; name[FNR] = $2; defs[$2]++ }
     END {
       bad = 0
       for (i = 1; i <= FNR; i++)
         if (uses[name[i]] <= defs[name[i]]) { print loc[i] ": " name[i]; bad = 1 }
       exit bad
     }' <(printf '%s\n' "$counts") <(printf '%s\n' "$defs")
