#!/usr/bin/env bash
# Which cells of a paper figure does this checkout move against
# <parent-rev>? The figures half of the perf-claims rule (ROADMAP, "A rule
# for perf claims"): a `sim_s` claim on a DSM or MPI workload lists the
# `figures` cells it moves, parent against change.
#
#   scripts/figures_pairs.sh <parent-rev> <figure> [figures args...]
#   scripts/figures_pairs.sh HEAD fig10
#   scripts/figures_pairs.sh HEAD fig8 --quick
#   scripts/figures_pairs.sh HEAD "fig7 fig8 fig10 fig11 home"   # one build
#
# The parent is `git archive`d into a temp dir (FIGURES_PAIRS_TMP, default
# /tmp); the `figures` binary of each side is built once (release), each
# figure runs once on each, and every table cell prints as one line of a
# markdown table: table, row, column, parent, change, change in percent
# (a cell without a number on both sides prints its two texts when they
# differ, nothing when they agree). Tables are matched by the heading's
# name before its first colon ("Figure 8"), so a reworded heading still
# compares; a heading whose text differs is printed as a row of its own.
# Columns are matched by header: a column only one side prints shows `—`
# on the other. The script gives up only when the table names differ.
# Needs python3; not tier-1.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/figures_pairs.sh <parent-rev> <figure...> [figures args...]"
rev="${1:?$usage}"
figures="${2:?$usage}"
shift 2

tmp="$(mktemp -d "${FIGURES_PAIRS_TMP:-/tmp}/figures_pairs.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$rev" | tar -x -C "$tmp/parent"

for side in "$tmp/parent" "$PWD"; do
  (cd "$side" && cargo build -q --release --offline -p parade-kernels --bin figures)
done
for figure in $figures; do
  "$tmp/parent/target/release/figures" "$figure" "$@" >> "$tmp/parent.md"
  target/release/figures "$figure" "$@" >> "$tmp/change.md"
done

python3 - "$tmp/parent.md" "$tmp/change.md" <<'EOF'
import re, sys

def tables(path):
    """Each `### title` table as (title, headers, rows of cells)."""
    out, title, rows = [], None, []
    for line in open(path):
        line = line.rstrip("\n")
        if line.startswith("### "):
            title, rows = line[4:], []
            out.append((title, rows))
        elif line.startswith("|") and not set(line) <= set("|- "):
            rows.append([c.strip() for c in line.strip("|").split("|")])
    return [(t, r[0], r[1:]) for t, r in out if r]

number = re.compile(r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
short = lambda title: title.split(":")[0]
parent, change = tables(sys.argv[1]), tables(sys.argv[2])
if [short(t) for t, _, _ in parent] != [short(t) for t, _, _ in change]:
    sys.exit("the two sides print different tables; compare them by hand")
print("| table | row | column | parent | change | Δ |")
print("|---|---|---|---|---|---|")
for (title, pheads, prows), (ctitle, cheads, crows) in zip(parent, change):
    if title != ctitle:
        print(f"| {short(title)} | heading | | {title} | {ctitle} | — |")
    # Columns are matched by header; one that only one side prints shows
    # `—` on the other.
    cols = pheads[1:] + [h for h in cheads[1:] if h not in pheads]
    for prow, crow in zip(prows, crows):
        pcells, ccells = dict(zip(pheads, prow)), dict(zip(cheads, crow))
        for col in cols:
            p, c = pcells.get(col, "—"), ccells.get(col, "—")
            pn, cn = number.search(p), number.search(c)
            if pn and cn:
                a, b = float(pn.group()), float(cn.group())
                delta = f"{(b - a) / a * 100:+.1f} %" if a else "—"
                print(f"| {short(title)} | {prow[0]} | {col} | {p} | {c} | {delta} |")
            elif p != c:
                print(f"| {short(title)} | {prow[0]} | {col} | {p} | {c} | — |")
EOF
