#!/usr/bin/env python3
"""Self time per span from a traced benchmark run.

    python3 benchmark/trace_summary.py TRACE.json [--ops N]

TRACE.json is the Chrome trace-event file `nsfbench --traced` writes. A
span's self time is its duration minus the part of it that its child spans
on the same thread cover. Prints one line per (span, thread) and one
`span.<name>.self_ms` metric per span name: the summed self time divided by
the number of measured operations (--ops, from the run's `trace.ops`), so
the per-span values of one operation add up to its wall time.
"""

import argparse
import collections
import json
import sys

# Timestamps are microseconds with three decimals; allow for the rounding.
_EPSILON_US = 0.002


def self_times(trace):
    """Returns {(name, tid): [calls, self_us]} for the complete ("X") events."""
    by_thread = collections.defaultdict(list)
    for event in trace.get("traceEvents", []):
        if event.get("ph") == "X":
            by_thread[event.get("tid", 0)].append(event)
    out = collections.defaultdict(lambda: [0, 0.0])
    for tid, events in by_thread.items():
        # Parents sort before the children they enclose.
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end_us, name, child_covered_us, dur]
        finished = []

        def close(entry):
            finished.append((entry[1], entry[3] - entry[2]))

        for event in events:
            start, dur = float(event["ts"]), float(event["dur"])
            while stack and stack[-1][0] <= start + _EPSILON_US:
                close(stack.pop())
            if stack:
                parent = stack[-1]
                parent[2] += min(start + dur, parent[0]) - start
            stack.append([start + dur, event["name"], 0.0, dur])
        while stack:
            close(stack.pop())
        for name, self_us in finished:
            slot = out[(name, tid)]
            slot[0] += 1
            slot[1] += max(self_us, 0.0)
    return out


def summarize(trace_path, ops):
    """The span.<name>.self_ms metrics of one trace, in ms per operation."""
    with open(trace_path, encoding="utf-8") as f:
        trace = json.load(f)
    totals = collections.defaultdict(float)
    for (name, _tid), (_calls, self_us) in self_times(trace).items():
        totals[name] += self_us
    ops = max(ops, 1)
    return {f"span.{name}.self_ms": us / 1e3 / ops for name, us in sorted(totals.items())}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace")
    parser.add_argument("--ops", type=int, default=1, help="measured operations in the trace")
    args = parser.parse_args()
    with open(args.trace, encoding="utf-8") as f:
        trace = json.load(f)
    names = {e["tid"]: e["args"]["name"] for e in trace.get("traceEvents", [])
             if e.get("ph") == "M" and e.get("name") == "thread_name"}
    rows = sorted(self_times(trace).items(), key=lambda kv: -kv[1][1])
    print(f"{'span':<24} {'thread':<20} {'calls':>9} {'self_ms':>12}")
    for (name, tid), (calls, self_us) in rows:
        print(f"{name:<24} {names.get(tid, str(tid)):<20} {calls:>9} {self_us / 1e3:>12.3f}")
    for metric, value in summarize(args.trace, args.ops).items():
        print(f"{metric} {value!r} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
