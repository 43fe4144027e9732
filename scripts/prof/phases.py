#!/usr/bin/env python3
"""Split one traced benchmark rep into three phases of virtual time.

usage: phases.py TRACE.json

TRACE is the Chrome JSON a `PARADE_TRACE=<file>` run of one benchmark
child writes, for example

    PARADE_TRACE=/tmp/t.json PARADE_TRACE_CAP=4000000 \
      benchmark/target/release/parade-benchmark --child stencil_dsm \
      --seed 1 --reps 1 --trace 0

All three phases are read on node 0's `main` thread, in virtual ms:

  first written barrier  run start .. end of its second `dsm.barrier`
                         (the first is the fork's, before any write)
  iterations             .. end of its last `dsm.barrier`
  final read             .. its last event
"""

import json
import sys


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    events = json.load(open(sys.argv[1]))
    if isinstance(events, dict):
        events = events["traceEvents"]
    names = {
        (e["pid"], e["tid"]): e["args"]["name"]
        for e in events
        if e.get("ph") == "M" and e.get("name") == "thread_name"
    }
    main_thread = [
        e
        for e in events
        if e.get("ph") in ("B", "E", "i")
        and e["pid"] == 0
        and names.get((0, e["tid"])) == "main"
    ]
    ends = sorted(
        e["ts"] for e in main_thread if e["ph"] == "E" and e["name"] == "dsm.barrier"
    )
    if len(ends) < 2:
        sys.exit("fewer than two DSM barriers on node 0: no written barrier to split at")
    start = min(e["ts"] for e in main_thread)
    end = max(e["ts"] for e in main_thread)
    first, last = ends[1], ends[-1]
    print(
        f"first written barrier {(first - start) / 1000:.1f} ms, "
        f"iterations {(last - first) / 1000:.1f} ms, "
        f"final read {(end - last) / 1000:.1f} ms "
        f"(total {(end - start) / 1000:.1f} ms; {len(ends)} DSM barriers on node 0)"
    )


if __name__ == "__main__":
    main()
