#!/usr/bin/env python3
"""Turn the dumps of `sampler.c` into flat and inclusive top-N tables.

usage: symbolize.py [--top N] [--leaf SYMBOL] DUMP...

Each dump holds /proc/self/maps and one stack per line (hex program
counters, innermost first). Addresses are mapped to their object file and
resolved against `nm -C`; when several dumps are given (the benchmark parent
and its child), the one with the most samples is reported.

With `--leaf SYMBOL` (say `syscall`) the report is instead of the samples
whose innermost frame is SYMBOL, grouped by the first `parade_*` frame above
it: which product function each of those calls was made for. Frames of
`parade_net::sync`, the lock and condvar wrappers every blocking call goes
through, are passed over.
"""

import bisect
import os
import re
import subprocess
import sys
from collections import Counter

RUST_HASH = re.compile(r"::h[0-9a-f]{16}$")
NM_LINE = re.compile(r"(?P<addr>[0-9a-f]+) (?:(?P<size>[0-9a-f]+) )?(?P<type>[A-Za-z]) (?P<name>.*)")


def load(path):
    maps, stacks, section = [], [], None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line in ("MAPS", "SAMPLES"):
                section = line
            elif section == "MAPS":
                parts = line.split(None, 5)
                if len(parts) == 6 and parts[5].startswith("/"):
                    lo, hi = (int(x, 16) for x in parts[0].split("-"))
                    maps.append((lo, hi, int(parts[2], 16), "x" in parts[1], parts[5]))
            elif section == "SAMPLES" and line:
                stacks.append([int(pc, 16) for pc in line.split()])
    return maps, stacks


class Objects:
    """Symbol tables of the mapped object files, loaded on first use."""

    def __init__(self, maps):
        self.maps = sorted(maps)
        # Where each file's offset 0 is mapped: its load bias.
        self.bias = {}
        for lo, _, off, _, path in self.maps:
            if off == 0:
                self.bias.setdefault(path, lo)
        self.tables = {}
        self.names = {}

    def table(self, path):
        if path not in self.tables:
            syms = {}
            # A stripped library (libc) keeps only its dynamic symbols.
            for table in ([], ["-D"]):
                out = subprocess.run(
                    ["nm", "-C", "-S", "--defined-only", *table, path],
                    capture_output=True, text=True, check=False,
                ).stdout
                for line in out.splitlines():
                    # address [size] type name
                    m = NM_LINE.match(line)
                    if m and m["type"] in "TtWwi":
                        name = RUST_HASH.sub("", m["name"]).split("@")[0]
                        size = int(m["size"], 16) if m["size"] else 0
                        key = (int(m["addr"], 16), name)
                        syms[key] = max(size, syms.get(key, 0))
            syms = sorted((addr, size, name) for (addr, name), size in syms.items())
            with open(path, "rb") as f:
                position_independent = f.read(18)[16:18] == b"\x03\x00"  # ET_DYN
            self.tables[path] = ([a for a, _, _ in syms], syms, position_independent)
        return self.tables[path]

    def name(self, pc):
        if pc not in self.names:
            self.names[pc] = self.resolve(pc)
        return self.names[pc]

    def resolve(self, pc):
        for lo, hi, _, executable, path in self.maps:
            if lo <= pc < hi and executable:
                addrs, syms, position_independent = self.table(path)
                vaddr = pc - self.bias.get(path, 0) if position_independent else pc
                at = bisect.bisect_right(addrs, vaddr) - 1
                short = path.rsplit("/", 1)[-1]
                if at < 0:
                    return f"[{short}]"
                addr, size, name = syms[at]
                # Past the end of the nearest symbol below: the code of a
                # local function whose name was stripped (most of libc), not
                # of that symbol. A size of 0 is a symbol that declares none.
                if size and vaddr >= addr + size:
                    return f"{short}+{vaddr:#x}"
                return name
        return "[unmapped]"


def report(title, counts, total, top):
    print(f"\n{title} (top {top} of {total} samples)")
    for name, n in counts.most_common(top):
        print(f"{100.0 * n / total:6.2f}%  {n:6d}  {name}")


def main(argv):
    top, leaf = 20, None
    while argv[:1] in (["--top"], ["--leaf"]):
        if argv[0] == "--top":
            top = int(argv[1])
        else:
            leaf = argv[1]
        argv = argv[2:]
    if not argv:
        sys.exit(__doc__)
    path, (maps, stacks) = max(((p, load(p)) for p in argv), key=lambda d: len(d[1][1]))
    if not stacks:
        sys.exit(f"{path}: no samples")
    objects = Objects(maps)
    # Return addresses point after the call; step back into it.
    flat, inclusive, callers = Counter(), Counter(), Counter()
    for stack in stacks:
        names = [objects.name(pc if depth == 0 else pc - 1)
                 for depth, pc in enumerate(stack)]
        flat[names[0]] += 1
        inclusive.update(set(names))
        if names[0] == leaf:
            product = (n for n in names if "parade_" in n and "parade_net::sync::" not in n)
            callers[next(product, "[no parade_* frame]")] += 1
    print(f"{path}: {len(stacks)} samples")
    if leaf is None:
        report("flat", flat, len(stacks), top)
        report("inclusive", inclusive, len(stacks), top)
    elif not callers:
        sys.exit(f"{path}: no sample has `{leaf}` as its innermost frame")
    else:
        report(f"first parade_* frame above `{leaf}`", callers, flat[leaf], top)


if __name__ == "__main__":
    try:
        main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # `symbolize.py ... | head`: the reader has what it wanted. Point
        # stdout away so the interpreter's exit flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
