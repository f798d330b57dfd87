#!/usr/bin/env python3
"""Record-by-record diff of two stats-JSONL files.

Usage:
  diff_records.py OLD.jsonl NEW.jsonl

Each file holds `dmp paper --stats-json` records (or the trimmed copy
in tests/sim/reference/paper_records.jsonl). Records are paired by
(workload, label), which is unique within one `dmp paper` run and the
same across schema versions.

For each pair every value present on both sides is compared: the
counters, the marking block, the accounting block, the distributions
and the other top-level fields. The wall-clock fields (`host_*`) are
not compared. `schema` and `fingerprint` name the record's format and
configuration, so a change there is listed but is not a moved value.

Output: one `moved:` line per value that differs, then the `changed:`
schema and fingerprint counts, then the keys one side has and the
other lacks, each distinct set once with the number of records it
covers. A key whose whole block is new or gone is listed once, not
per member.

Exit status: 0 no value moved, 1 a value moved or a record is on one
side only, 2 usage or input error (a malformed line, or two records
with the same (workload, label) in one file).
"""

import json
import sys

SKIPPED = ("host_seconds", "host_inst_rate")
META = ("schema", "fingerprint")


def fail(msg):
    print(f"diff_records: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    """(workload, label) -> record, in file order."""
    out = {}
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
            key = (r["workload"], r["label"])
        except (ValueError, KeyError, TypeError) as e:
            fail(f"{path}:{n}: not a stats record ({e!r})")
        if key in out:
            fail(f"{path}:{n}: a second record of {key[0]}/{key[1]}")
        out[key] = r
    return out


def walk(old, new, path, moved, added, dropped):
    """Compare two JSON values below `path` (a dotted key prefix)."""
    if isinstance(old, dict) and isinstance(new, dict):
        for k in old:
            if k not in new:
                dropped.append(path + k)
        for k in new:
            if k not in old:
                added.append(path + k)
            else:
                walk(old[k], new[k], f"{path}{k}.", moved, added, dropped)
    elif isinstance(old, list) and isinstance(new, list):
        for i, (o, n) in enumerate(zip(old, new)):
            walk(o, n, f"{path}[{i}].", moved, added, dropped)
        if len(old) != len(new):
            moved.append((path + "length", len(old), len(new)))
    elif old != new or type(old) is not type(new):
        moved.append((path[:-1], old, new))


def main():
    if len(sys.argv) != 3:
        fail("usage: diff_records.py OLD.jsonl NEW.jsonl")
    old, new = load(sys.argv[1]), load(sys.argv[2])

    moved_lines, meta, shapes = [], {}, {}
    for key in (k for k in old if k in new):
        o, n = dict(old[key]), dict(new[key])
        for k in SKIPPED + META:
            if k in o and k in n:
                if k in META and o[k] != n[k]:
                    what = f"{o[k]} -> {n[k]}" if k == "schema" else ""
                    meta[(k, what)] = meta.get((k, what), 0) + 1
                del o[k], n[k]
        moved, added, dropped = [], [], []
        walk(o, n, "", moved, added, dropped)
        name = "/".join(key)
        moved_lines += [f"moved: {name} {p}: {a} -> {b}"
                        for p, a, b in moved]
        shape = (tuple(sorted(added)), tuple(sorted(dropped)))
        if shape != ((), ()):
            count, first = shapes.get(shape, (0, name))
            shapes[shape] = (count + 1, first)
    one_sided = ([f"only in OLD: {'/'.join(k)}" for k in old
                  if k not in new] +
                 [f"only in NEW: {'/'.join(k)}" for k in new
                  if k not in old])

    paired = len(old.keys() & new.keys())
    print(f"diff_records: {paired} records paired by (workload, label), "
          f"{len(moved_lines)} moved values")
    for line in sorted(moved_lines) + one_sided:
        print(line)
    for (k, what), count in sorted(meta.items()):
        print(f"changed: {k} on {count} records" +
              (f" ({what})" if what else ""))
    for (added, dropped), (count, first) in sorted(shapes.items()):
        for verb, keys in (("added", added), ("dropped", dropped)):
            if keys:
                print(f"{verb}: {', '.join(keys)} on {count} records "
                      f"(first: {first})")
    sys.exit(1 if moved_lines or one_sided else 0)


if __name__ == "__main__":
    main()
