#!/usr/bin/env python3
"""Compare two sets of dmpbench results.

    python3 benchmark/compare.py PARENT CHANGE
    python3 benchmark/compare.py --agree SET_A SET_B

Each set is a directory of result files written by run.py (--out), or
a list of files separated by commas. Only untraced runs are compared;
runs pair up in file-name order (run.py names files by start time), so
run the parent and the change alternately, switching which goes first.

Default mode, per workload and end-to-end metric: each side's median
and quartiles, the fraction of pairs the change wins (ties count for
neither), and a verdict with the bounds in BENCHMARK.json:

  improved    the change wins at least 9/10 of at least 10 pairs and
              the medians differ by more than the parent's quartile
              spread
  regressed   the change's median is worse than the parent's by more
              than the bound
  unresolved  the parent's quartile spread is wider than the bound and
              not every change run beats every parent run, or a gain
              rests on fewer than 10 pairs
  unchanged   otherwise

--agree checks two sets from the same code: every metric must have a
quartile spread within its bound on both sides, and no median may be
worse than the first set's by more than the bound.

Exit code: 1 when a metric regressed (or, with --agree, disagrees).
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_spec(path):
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def result_files(arg):
    if os.path.isdir(arg):
        return sorted(os.path.join(arg, n) for n in os.listdir(arg)
                      if n.endswith(".json") and not n.endswith(
                          ".trace.json"))
    return [p for p in arg.split(",") if p]


def load_set(arg):
    """{workload: {"runs": [{metric: value}], "failed": n}}."""
    out = {}
    for path in result_files(arg):
        with open(path) as f:
            r = json.load(f)
        if r.get("traced"):
            continue
        w = out.setdefault(r["workload"], {"runs": [], "failed": 0})
        w["runs"].append({k: v["value"] for k, v in
                          r["end_to_end"].items()})
        w["failed"] += r["failed"]
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Quartile distance as a share of the median."""
    lo, hi = quartiles(values)
    m = statistics.median(values)
    return (hi - lo) / abs(m) if m else float("inf")


def verdict(parent, change, bound, better):
    """(verdict, win fraction) of `change` against `parent`."""
    sign = 1 if better == "higher" else -1
    pm = statistics.median(parent)
    cm = statistics.median(change)
    lo, hi = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    gain = sign * (cm - pm)
    if win_frac >= 0.9 and gain > hi - lo:
        return ("improved" if len(pairs) >= 10 else "unresolved"), win_frac
    if -gain > bound * abs(pm):
        return "regressed", win_frac
    every_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if hi - lo > bound * abs(pm) and not every_better:
        return "unresolved", win_frac
    return "unchanged", win_frac


def agreement(first, second, bound, better):
    """(ok, worse-by share) of two sets from the same code."""
    sign = 1 if better == "higher" else -1
    m1 = statistics.median(first)
    m2 = statistics.median(second)
    worse = -sign * (m2 - m1) / abs(m1) if m1 else float("inf")
    ok = (worse <= bound and spread(first) <= bound
          and spread(second) <= bound)
    return ok, worse


def fmt(v):
    return f"{v:.6g}"


def compare(parent, change, spec, agree):
    rows = []
    bad = False
    for w in sorted(set(parent) | set(change)):
        if w not in parent or w not in change:
            rows.append(f"{w}: only in one set")
            bad = True
            continue
        p, c = parent[w], change[w]
        rows.append(f"{w}: {len(p['runs'])} vs {len(c['runs'])} runs, "
                    f"failed checks {p['failed']} vs {c['failed']}")
        if c["failed"] > p["failed"]:
            bad = True
        for name, m in spec.items():
            pv = [r[name] for r in p["runs"] if name in r]
            cv = [r[name] for r in c["runs"] if name in r]
            if not pv or not cv:
                rows.append(f"  {name}: missing")
                bad = True
                continue
            plo, phi = quartiles(pv)
            clo, chi = quartiles(cv)
            head = (f"  {name:<20} {fmt(statistics.median(pv))} "
                    f"[{fmt(plo)}, {fmt(phi)}] -> "
                    f"{fmt(statistics.median(cv))} [{fmt(clo)}, {fmt(chi)}]"
                    f" {m['unit']}")
            if agree:
                ok, worse = agreement(pv, cv, m["bound"], m["better"])
                bad = bad or not ok
                rows.append(f"{head}  spread {spread(pv):.1%}/"
                            f"{spread(cv):.1%} worse-by {worse:+.1%} "
                            f"bound {m['bound']:.0%} "
                            f"{'agree' if ok else 'DISAGREE'}")
            else:
                v, frac = verdict(pv, cv, m["bound"], m["better"])
                bad = bad or v == "regressed"
                rows.append(f"{head}  wins {frac:.0%} of {min(len(pv), len(cv))}"
                            f" pairs  {v}")
    return rows, bad


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("first", help="parent (or first) result set")
    ap.add_argument("second", help="change (or second) result set")
    ap.add_argument("--agree", action="store_true",
                    help="both sets come from the same code")
    ap.add_argument("--spec", default=DEFAULT_SPEC,
                    help="BENCHMARK.json with the metric bounds")
    args = ap.parse_args(argv)
    rows, bad = compare(load_set(args.first), load_set(args.second),
                        load_spec(args.spec), args.agree)
    print("\n".join(rows))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
