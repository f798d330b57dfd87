#!/usr/bin/env python3
"""Unit tests of compare.py on synthetic result sets.

    python3 benchmark/test_compare.py
"""

import json
import os
import statistics
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402

SPEC = {
    "wall_s": {"name": "wall_s", "unit": "s", "better": "lower",
               "bound": 0.1},
    "sim_kips": {"name": "sim_kips", "unit": "kips", "better": "higher",
                 "bound": 0.1},
    "setup_s": {"name": "setup_s", "unit": "s", "better": "lower",
                "bound": 0.1},
}


def runs(**series):
    """Per-run metric dicts from equal-length value lists."""
    n = len(next(iter(series.values())))
    return {"runs": [{k: v[i] for k, v in series.items()}
                     for i in range(n)], "failed": 0}


class VerdictTest(unittest.TestCase):
    def test_clear_gain_is_improved(self):
        parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
        change = [v - 1.0 for v in parent]
        v, frac = compare.verdict(parent, change, 0.1, "lower")
        self.assertEqual(v, "improved")
        self.assertEqual(frac, 1.0)

    def test_gain_on_few_pairs_is_unresolved(self):
        parent = [10.0, 10.1, 9.9]
        change = [9.0, 9.1, 8.9]
        self.assertEqual(compare.verdict(parent, change, 0.1, "lower")[0],
                         "unresolved")

    def test_higher_is_better_direction(self):
        parent = [100.0 + i % 3 for i in range(10)]
        change = [v * 1.3 for v in parent]
        self.assertEqual(compare.verdict(parent, change, 0.1, "higher")[0],
                         "improved")
        self.assertEqual(compare.verdict(change, parent, 0.1, "higher")[0],
                         "regressed")

    def test_worse_beyond_bound_is_regressed(self):
        parent = [10.0] * 10
        change = [11.5] * 10
        self.assertEqual(compare.verdict(parent, change, 0.1, "lower")[0],
                         "regressed")

    def test_small_drift_is_unchanged(self):
        parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.1, 10.0, 9.9, 10.0]
        change = [v * 1.02 for v in parent]
        self.assertEqual(compare.verdict(parent, change, 0.1, "lower")[0],
                         "unchanged")

    def test_noisy_parent_is_unresolved(self):
        parent = [8.0, 12.0, 8.5, 11.5, 9.0, 11.0, 8.0, 12.0, 9.5, 10.5]
        change = [10.0 + (i % 2) * 0.5 for i in range(10)]
        self.assertEqual(compare.verdict(parent, change, 0.1, "lower")[0],
                         "unresolved")

    def test_ties_count_for_neither_side(self):
        parent = [10.0] * 10
        change = [10.0] * 9 + [9.0]
        v, frac = compare.verdict(parent, change, 0.1, "lower")
        self.assertAlmostEqual(frac, 0.1)
        self.assertEqual(v, "unchanged")


class AgreementTest(unittest.TestCase):
    def test_quartiles_match_statistics(self):
        vals = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
        q = statistics.quantiles(vals, n=4)
        self.assertEqual(compare.quartiles(vals), (q[0], q[2]))

    def test_same_code_agrees(self):
        a = [10.0, 10.1, 9.9, 10.0, 10.05]
        b = [10.02, 9.95, 10.1, 10.0, 9.98]
        ok, _ = compare.agreement(a, b, 0.1, "lower")
        self.assertTrue(ok)

    def test_wide_spread_disagrees(self):
        a = [5.0, 10.0, 15.0, 10.0, 12.0]
        self.assertFalse(compare.agreement(a, a, 0.1, "lower")[0])

    def test_second_median_worse_disagrees(self):
        a = [100.0] * 5
        b = [85.0] * 5
        ok, worse = compare.agreement(a, b, 0.1, "higher")
        self.assertFalse(ok)
        self.assertAlmostEqual(worse, 0.15)
        # Better is never a disagreement.
        self.assertTrue(compare.agreement(b, a, 0.1, "higher")[0])


class CompareTest(unittest.TestCase):
    def test_report_flags_regression_and_missing_workload(self):
        parent = {"serial_sim": runs(wall_s=[10.0] * 10,
                                     sim_kips=[100.0] * 10,
                                     setup_s=[1.0] * 10)}
        change = {"serial_sim": runs(wall_s=[12.0] * 10,
                                     sim_kips=[100.0] * 10,
                                     setup_s=[1.0] * 10)}
        rows, bad = compare.compare(parent, change, SPEC, agree=False)
        self.assertTrue(bad)
        text = "\n".join(rows)
        self.assertIn("regressed", text)
        self.assertIn("unchanged", text)

        change["mark_lint"] = change["serial_sim"]
        rows, bad = compare.compare(parent, change, SPEC, agree=False)
        self.assertIn("mark_lint: only in one set", rows)

    def test_more_failures_is_bad(self):
        parent = {"w": runs(wall_s=[1.0] * 3, sim_kips=[1.0] * 3,
                            setup_s=[1.0] * 3)}
        change = {"w": dict(parent["w"], failed=2)}
        self.assertTrue(compare.compare(parent, change, SPEC, False)[1])

    def test_load_set_skips_traced_runs(self):
        def result(workload, traced, wall):
            return {"workload": workload, "traced": traced, "failed": 0,
                    "end_to_end": {"wall_s": {"value": wall, "unit": "s"}}}

        with tempfile.TemporaryDirectory() as d:
            for i, (traced, wall) in enumerate([(False, 1.0), (True, 9.0),
                                                (False, 2.0)]):
                with open(os.path.join(d, f"r{i}.json"), "w") as f:
                    json.dump(result("serial_sim", traced, wall), f)
            with open(os.path.join(d, "r1.trace.json"), "w") as f:
                f.write("{}")
            got = compare.load_set(d)
        self.assertEqual([r["wall_s"] for r in got["serial_sim"]["runs"]],
                         [1.0, 2.0])


if __name__ == "__main__":
    unittest.main()
