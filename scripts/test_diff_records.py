#!/usr/bin/env python3
"""Tests of diff_records.py's output and exit status on synthetic records.

    python3 scripts/test_diff_records.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "diff_records.py")


def record(wl, label, schema=3):
    """A record of `schema` (2 or 3) with every block the diff reads."""
    r = {"schema": schema, "label": label, "workload": wl,
         "host_seconds": 0.25,
         "fingerprint": f"workload={wl},label={label}",
         "bench_iters": 2000,
         "counters": {"cycles": 400, "pipeline_flushes": 7,
                      "retired_insts": 300},
         "marking": {"candidates": 4, "diverge": 3, "hammock": 1,
                     "loop": 0,
                     "classification": {"simple_hammock_diverge": 1,
                                        "complex_diverge": 2,
                                        "other_complex": 3,
                                        "total_insts": 1000}},
         "accounting": {"total_cycles": 400,
                        "buckets": {"retire_useful": 300, "idle": 100},
                        "branches": [{"pc": "0x1300", "episodes": 5}]}}
    if schema == 2:
        r.update(ipc=0.75, cycles=400, retired_insts=300,
                 host_inst_rate=1200.0, fingerprint=f"wl:{wl}|{label}")
    return r


def run_of(records):
    return "".join(json.dumps(r) + "\n" for r in records)


class DiffRecordsTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.n = 0
        self.base = [record("bzip2", "base"), record("bzip2", "dmp"),
                     record("mcf", "base")]

    def tearDown(self):
        self.tmp.cleanup()

    def file(self, text):
        self.n += 1
        path = os.path.join(self.tmp.name, f"run{self.n}.jsonl")
        with open(path, "w") as f:
            f.write(text)
        return path

    def diff(self, old, new):
        """(exit status, stdout) of diff_records.py on two JSONL texts."""
        p = subprocess.run([sys.executable, SCRIPT, self.file(old),
                            self.file(new)], capture_output=True,
                           text=True)
        return p.returncode, p.stdout

    def moved(self, edit):
        """Diff of self.base against a copy changed by edit(records)."""
        new = copy.deepcopy(self.base)
        edit(new)
        return self.diff(run_of(self.base), run_of(new))

    def test_identical_files_move_nothing(self):
        status, out = self.diff(run_of(self.base), run_of(self.base))
        self.assertEqual(status, 0)
        self.assertIn("3 records paired by (workload, label), "
                      "0 moved values", out)

    def test_host_time_is_not_a_moved_value(self):
        def edit(rs):
            rs[0]["host_seconds"] = 9.0
        status, out = self.moved(edit)
        self.assertEqual(status, 0)
        self.assertIn("0 moved values", out)
        self.assertNotIn("host_seconds", out)

    def test_schema_2_to_3_lists_only_the_shape_change(self):
        old = [record(r["workload"], r["label"], schema=2)
               for r in self.base]
        status, out = self.diff(run_of(old), run_of(self.base))
        self.assertEqual(status, 0, out)
        self.assertIn("changed: schema on 3 records (2 -> 3)", out)
        self.assertIn("changed: fingerprint on 3 records", out)
        self.assertIn("dropped: cycles, host_inst_rate, ipc, "
                      "retired_insts on 3 records (first: bzip2/base)", out)

    def test_moved_counter_is_named(self):
        def edit(rs):
            rs[1]["counters"]["pipeline_flushes"] = 8
        status, out = self.moved(edit)
        self.assertEqual(status, 1)
        self.assertIn("moved: bzip2/dmp counters.pipeline_flushes: 7 -> 8",
                      out)
        self.assertIn("1 moved values", out)

    def test_moved_marking_value_is_named(self):
        def edit(rs):
            rs[2]["marking"]["classification"]["complex_diverge"] = 5
        status, out = self.moved(edit)
        self.assertEqual(status, 1)
        self.assertIn("moved: mcf/base "
                      "marking.classification.complex_diverge: 2 -> 5", out)

    def test_moved_accounting_bucket_is_named(self):
        def edit(rs):
            rs[0]["accounting"]["buckets"]["idle"] = 99
        status, out = self.moved(edit)
        self.assertEqual(status, 1)
        self.assertIn("moved: bzip2/base accounting.buckets.idle: "
                      "100 -> 99", out)

    def test_added_block_is_listed_once_and_moves_nothing(self):
        def edit(rs):
            for r in rs:
                r["counters"]["l1d_misses"] = 3
                r["distributions"] = {"lat": {"samples": 1}}
        status, out = self.moved(edit)
        self.assertEqual(status, 0, out)
        self.assertIn("added: counters.l1d_misses, distributions on 3 "
                      "records (first: bzip2/base)", out)

    def test_record_on_one_side_only_fails(self):
        status, out = self.diff(run_of(self.base), run_of(self.base[:2]))
        self.assertEqual(status, 1)
        self.assertIn("only in OLD: mcf/base", out)

    def test_duplicate_or_malformed_record_is_an_input_error(self):
        dup = run_of(self.base + [record("mcf", "base")])
        self.assertEqual(self.diff(dup, run_of(self.base))[0], 2)
        self.assertEqual(self.diff(run_of(self.base) + "{not json\n",
                                   run_of(self.base))[0], 2)


if __name__ == "__main__":
    unittest.main()
