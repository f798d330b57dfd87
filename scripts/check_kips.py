#!/usr/bin/env python3
"""Same-host KIPS regression gate over `dmp paper --stats-json` records.

Usage:
  check_kips.py --baseline BASE.jsonl... --change CHANGE.jsonl...

Each file holds the records of one `dmp paper` run. Within a side,
every configuration (a record's `(workload, label)`, unique within one
run) keeps its smallest `host_seconds` across the files given: the simulator is deterministic,
so the spread between repeats is host noise and the best of N is the
least noisy estimate. A side's total KIPS is the sum of retired
instructions (`counters.retired_insts`) over the sum of those best
times. The change fails when
its total falls below 0.85 x the baseline's.

Stdout is a Markdown table of the per-(workload, label) ratios, worst
first, ending in the totals, so CI can append it to the job summary.

KIPS is host- and build-dependent: time both sides on the same machine,
with the same preset and the same `dmp paper` command, so that they
cover the same configurations. Pairing by (workload, label) rather
than by fingerprint lets the two sides straddle a record-schema change.

Exit status: 0 ok, 1 regression, 2 usage or input error (a malformed
record, or a configuration timed on one side only).
"""

import argparse
import json
import sys

THRESHOLD = 0.85


def fail(msg):
    print(f"check_kips: {msg}", file=sys.stderr)
    sys.exit(2)


def load_side(paths):
    """(workload, label) -> (workload, label, retired_insts, best secs)."""
    best = {}
    for path in paths:
        try:
            with open(path) as f:
                lines = f.read().splitlines()
        except OSError as e:
            fail(f"cannot read {path}: {e}")
        for n, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                r = json.loads(line)
                row = (r["workload"], r["label"],
                       int(r["counters"]["retired_insts"]),
                       float(r["host_seconds"]))
            except (ValueError, KeyError, TypeError) as e:
                fail(f"{path}:{n}: not a dmp paper record ({e!r})")
            if row[3] <= 0:
                fail(f"{path}:{n}: host_seconds is {row[3]}")
            key = row[:2]
            old = best.get(key)
            if old and old[2] != row[2]:
                fail(f"{path}:{n}: {row[0]}/{row[1]} retired {row[2]} "
                     f"instructions, {old[2]} in another file")
            if old is None or row[3] < old[3]:
                best[key] = row
    if not best:
        fail("no records in " + " ".join(paths))
    return best


def kips(insts, seconds):
    return insts / seconds / 1000.0


def total_kips(side):
    return kips(sum(r[2] for r in side.values()),
                sum(r[3] for r in side.values()))


def main():
    ap = argparse.ArgumentParser(
        description="Fail when the change's total KIPS falls below "
                    f"{THRESHOLD} x the baseline's.")
    ap.add_argument("--baseline", nargs="+", required=True,
                    metavar="JSONL")
    ap.add_argument("--change", nargs="+", required=True, metavar="JSONL")
    args = ap.parse_args()

    base = load_side(args.baseline)
    change = load_side(args.change)
    one_sided = sorted(set(base) ^ set(change))
    if one_sided:
        names = [f"{w}/{l}" for w, l in one_sided]
        fail(f"{len(names)} configurations timed on one side only: "
             + ", ".join(names))

    rows = []
    for key, (wl, label, insts, secs) in base.items():
        b = kips(insts, secs)
        c = kips(change[key][2], change[key][3])
        rows.append((c / b, wl, label, b, c))
    rows.sort()
    b_total, c_total = total_kips(base), total_kips(change)
    ratio = c_total / b_total

    print(f"### KIPS, change vs baseline (best of {len(args.baseline)} "
          f"and {len(args.change)} runs, worst first)\n")
    print("| workload | label | baseline KIPS | change KIPS | ratio |")
    print("|---|---|---:|---:|---:|")
    for r, wl, label, b, c in rows:
        print(f"| {wl} | {label} | {b:.1f} | {c:.1f} | {r:.3f} |")
    print(f"| **total** | | **{b_total:.1f}** | **{c_total:.1f}** | "
          f"**{ratio:.3f}** |")

    if ratio < THRESHOLD:
        print(f"check_kips: REGRESSION: total KIPS ratio {ratio:.3f} is "
              f"below {THRESHOLD}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
