#!/usr/bin/env python3
"""Tests of check_kips.py's exit status on synthetic dmp paper records.

    python3 scripts/test_check_kips.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_kips.py")

CELLS = [("bzip2", "base", 80000), ("bzip2", "mcfm_eexit_mdb", 80000),
         ("mcf", "base", 35000), ("mcf", "mcfm_eexit_mdb", 35000)]


def record(wl, label, insts, seconds, schema=3):
    """One record in the shape of `schema` (2 or 3)."""
    r = {"schema": schema, "label": label, "workload": wl,
         "host_seconds": seconds,
         "fingerprint": f"workload={wl},label={label}",
         "counters": {"cycles": 2 * insts, "retired_insts": insts}}
    if schema == 2:
        # Schema 2 repeated the counters at the top level and named the
        # configuration in another fingerprint format.
        r.update(ipc=0.5, cycles=2 * insts, retired_insts=insts,
                 fingerprint=f"wl:{wl}|{label}")
    return r


def records(seconds, cells=CELLS, schema=3):
    """One JSONL run: each cell timed at `seconds` (or seconds[i])."""
    if not isinstance(seconds, list):
        seconds = [seconds] * len(cells)
    return "".join(
        json.dumps(record(wl, label, insts, s, schema)) + "\n"
        for (wl, label, insts), s in zip(cells, seconds))


class CheckKipsTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.n = 0

    def tearDown(self):
        self.tmp.cleanup()

    def file(self, text):
        self.n += 1
        path = os.path.join(self.tmp.name, f"run{self.n}.jsonl")
        with open(path, "w") as f:
            f.write(text)
        return path

    def gate(self, baseline, change):
        """Exit status of check_kips.py on lists of JSONL texts."""
        cmd = [sys.executable, SCRIPT, "--baseline"]
        cmd += [self.file(t) for t in baseline]
        cmd += ["--change"] + [self.file(t) for t in change]
        return subprocess.run(cmd, capture_output=True, text=True).returncode

    def test_equal_files_pass(self):
        self.assertEqual(self.gate([records(0.05)], [records(0.05)]), 0)

    def test_total_20_percent_slower_fails(self):
        self.assertEqual(self.gate([records(0.05)], [records(0.0625)]), 1)

    def test_total_10_percent_slower_passes(self):
        self.assertEqual(self.gate([records(0.05)], [records(0.0555)]), 0)

    def test_best_of_n_takes_the_minimum_per_configuration(self):
        # Every slow run is 50% slower, but each cell has one fast run;
        # a mean or a last-wins reading would fail the gate.
        slow_first = records([0.075, 0.05, 0.075, 0.05])
        slow_second = records([0.05, 0.075, 0.05, 0.075])
        self.assertEqual(self.gate([records(0.05)],
                                   [slow_first, slow_second]), 0)
        self.assertEqual(self.gate([records(0.05)], [slow_first]), 1)

    def test_configuration_on_one_side_only_is_an_input_error(self):
        self.assertEqual(self.gate([records(0.05)],
                                   [records(0.05, CELLS[:3])]), 2)
        self.assertEqual(self.gate([records(0.05, CELLS[:3])],
                                   [records(0.05)]), 2)

    def test_malformed_line_is_an_input_error(self):
        self.assertEqual(self.gate([records(0.05)],
                                   [records(0.05) + "{not json\n"]), 2)
        no_counters = json.dumps({"label": "base", "workload": "mcf",
                                  "retired_insts": 1, "host_seconds": 0.1})
        self.assertEqual(self.gate([records(0.05) + no_counters],
                                   [records(0.05)]), 2)

    def test_schema_2_baseline_against_schema_3_change(self):
        # The fingerprints differ across the schema bump; the cells pair
        # by (workload, label) and compare their counters' work.
        self.assertEqual(self.gate([records(0.05, schema=2)],
                                   [records(0.05)]), 0)
        self.assertEqual(self.gate([records(0.05, schema=2)],
                                   [records(0.0625)]), 1)

    def test_runs_of_one_side_that_disagree_on_work_are_an_input_error(self):
        other = [(wl, label, insts + 1) for wl, label, insts in CELLS]
        self.assertEqual(self.gate([records(0.05)],
                                   [records(0.05), records(0.05, other)]),
                         2)


if __name__ == "__main__":
    unittest.main()
