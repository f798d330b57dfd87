#!/usr/bin/env python3
"""Validate a Chrome/Perfetto trace-event JSON file.

Used by CI's trace-smoke job on the dmp run --perfetto output. Checks,
with the standard library only:

  * the file is well-formed JSON with a "traceEvents" list,
  * every event carries the required keys for its phase,
  * per (pid, tid), complete ("X") slices nest properly: sorted by
    timestamp, a slice never overlaps a previously-opened slice it is
    not contained in (monotonic slice nesting),
  * async spans ("b"/"e") match up by (cat, id, name) with begin before
    end and no dangling ends.

Exit status 0 when the trace is valid; 1 with a diagnostic otherwise.
"""

import argparse
import json
import sys

REQUIRED_BY_PHASE = {
    "X": ("name", "cat", "ts", "dur", "pid", "tid"),
    "b": ("name", "cat", "ts", "id", "pid", "tid"),
    "e": ("name", "cat", "ts", "id", "pid", "tid"),
    "i": ("name", "ts", "pid", "tid"),
    "M": ("name", "pid"),
}


def fail(msg):
    print(f"check_trace_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_required_keys(events):
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"event {i} is not an object")
        ph = ev.get("ph")
        if ph is None:
            fail(f"event {i} has no phase ('ph')")
        required = REQUIRED_BY_PHASE.get(ph)
        if required is None:
            fail(f"event {i} has unsupported phase {ph!r}")
        for key in required:
            if key not in ev:
                fail(f"event {i} (ph={ph}) is missing {key!r}")
        for key in ("ts", "dur", "id"):
            if key in ev and not isinstance(ev[key], int):
                fail(f"event {i}: {key!r} must be an integer")
        if "dur" in ev and ev["dur"] < 0:
            fail(f"event {i}: negative duration")


def check_slice_nesting(events):
    """X slices per track must be time-sorted and properly nested."""
    tracks = {}
    for i, ev in enumerate(events):
        if ev.get("ph") == "X":
            key = (ev["pid"], ev["tid"])
            tracks.setdefault(key, []).append((i, ev))
    for (pid, tid), slices in tracks.items():
        last_ts = -1
        stack = []  # (start, end) of open enclosing slices
        for i, ev in slices:
            ts, end = ev["ts"], ev["ts"] + ev["dur"]
            if ts < last_ts:
                fail(
                    f"event {i}: slice on tid {tid} starts at {ts}, "
                    f"before the previous slice start {last_ts} "
                    "(slices must be emitted in timestamp order)"
                )
            last_ts = ts
            while stack and ts >= stack[-1][1]:
                stack.pop()
            if stack and end > stack[-1][1]:
                fail(
                    f"event {i}: slice [{ts}, {end}) on tid {tid} "
                    f"overlaps enclosing slice ending at {stack[-1][1]} "
                    "without nesting inside it"
                )
            stack.append((ts, end))


def check_async_pairing(events):
    open_spans = {}  # (cat, id, name) -> begin ts
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in ("b", "e"):
            continue
        key = (ev["cat"], ev["id"], ev["name"])
        if ph == "b":
            if key in open_spans:
                fail(f"event {i}: async span {key} begun twice")
            open_spans[key] = ev["ts"]
        else:
            begin_ts = open_spans.pop(key, None)
            if begin_ts is None:
                fail(f"event {i}: async end {key} without a begin")
            if ev["ts"] < begin_ts:
                fail(
                    f"event {i}: async span {key} ends at {ev['ts']}, "
                    f"before its begin at {begin_ts}"
                )
    if open_spans:
        key = sorted(open_spans)[0]
        fail(
            f"{len(open_spans)} async span(s) never ended "
            f"(first: {key}; the writer's finish() should close them)"
        )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", help="trace-event JSON file to validate")
    args = ap.parse_args()

    try:
        with open(args.trace, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{args.trace}: {e}")

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail("top level must be an object with a 'traceEvents' member")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail("'traceEvents' must be a list")
    if not events:
        fail("'traceEvents' is empty")

    check_required_keys(events)
    check_slice_nesting(events)
    check_async_pairing(events)

    n_x = sum(1 for e in events if e.get("ph") == "X")
    n_async = sum(1 for e in events if e.get("ph") == "b")
    n_inst = sum(1 for e in events if e.get("ph") == "i")
    print(
        f"check_trace_json: OK: {len(events)} events "
        f"({n_x} slices, {n_async} async spans, {n_inst} instants)"
    )


if __name__ == "__main__":
    main()
