#!/usr/bin/env python3
"""Tests of the benchmark's own arithmetic, on hand-built inputs.

    python3 perfbench/test_metrics.py
"""

import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics as m  # noqa: E402


class PercentileChoiceTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(m.percentile(xs, 50), 50)
        self.assertEqual(m.percentile(xs, 90), 90)
        self.assertEqual(m.percentile(xs, 99), 99)
        self.assertEqual(m.percentile([7], 99), 7)
        self.assertEqual(m.percentile([3, 1, 2], 50), 2)

    def test_samples_beyond(self):
        self.assertEqual(m.samples_beyond(100, 90), 10)
        self.assertEqual(m.samples_beyond(100, 99), 1)
        self.assertEqual(m.samples_beyond(1000, 99), 10)
        self.assertEqual(m.samples_beyond(999, 99), 9)  # rank ceil(989.01) = 990
        self.assertEqual(m.samples_beyond(10000, 99.9), 10)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(m.tail_percentile(19))  # p50 leaves 9 beyond
        self.assertEqual(m.tail_percentile(20), 50.0)
        self.assertEqual(m.tail_percentile(99), 50.0)  # p90 leaves 9 beyond
        self.assertEqual(m.tail_percentile(100), 90.0)
        self.assertEqual(m.tail_percentile(999), 90.0)
        self.assertEqual(m.tail_percentile(1000), 99.0)
        self.assertEqual(m.tail_percentile(9999), 99.0)
        self.assertEqual(m.tail_percentile(10000), 99.9)


class SelfTimeTest(unittest.TestCase):
    @staticmethod
    def span(start, end, parent=-1):
        return {"start_ns": start, "end_ns": end, "parent": parent}

    def test_span_minus_children(self):
        spans = {
            0: self.span(0, 100),
            1: self.span(10, 30, parent=0),
            2: self.span(50, 60, parent=0),
            3: self.span(12, 20, parent=1),  # grandchild: only its parent subtracts it
        }
        selfs = m.self_times(spans)
        self.assertEqual(selfs[0], 100 - 20 - 10)
        self.assertEqual(selfs[1], 20 - 8)
        self.assertEqual(selfs[2], 10)
        self.assertEqual(selfs[3], 8)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = {
            0: self.span(0, 100),
            1: self.span(10, 40, parent=0),
            2: self.span(30, 50, parent=0),    # overlaps child 1 on [30, 40)
            3: self.span(90, 120, parent=0),   # only [90, 100) lies inside the parent
        }
        self.assertEqual(m.self_times(spans)[0], 100 - 40 - 10)

    def test_no_children(self):
        self.assertEqual(m.self_times({5: self.span(7, 19)}), {5: 12})


class WrenAccuracyTest(unittest.TestCase):
    def test_relative_error_against_truth(self):
        estimates = [10.0, 12.0, None, 5.0, math.nan, 8.0]
        truths = [10.0, 8.0, 9.0, 10.0, 4.0, 0.0]
        observations = [1, 3, 2, 0, 1, 1]
        # Window 2 has no estimate, 3 no observation, 4 a NaN estimate,
        # 5 no positive truth; windows 0 and 1 count.
        self.assertEqual(m.relative_errors(estimates, truths, observations), [0.0, 0.5])

    def test_coverage(self):
        self.assertEqual(m.coverage([0, 1, 4, 0]), 0.5)
        self.assertEqual(m.coverage([2, 2]), 1.0)
        self.assertEqual(m.coverage([]), 0.0)

    def test_error_percentiles(self):
        truths = [100.0] * 10
        estimates = [100.0 + i for i in range(10)]  # errors 0.00 .. 0.09
        errors = m.relative_errors(estimates, truths, [1] * 10)
        self.assertAlmostEqual(m.percentile(errors, 50), 0.04)
        self.assertAlmostEqual(m.percentile(errors, 90), 0.08)


class SpreadTest(unittest.TestCase):
    def test_quartile_spread_and_median(self):
        self.assertEqual(m.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(m.median([5, 1, 3]), 3)
        # statistics.quantiles(n=4) on 1..9: Q1 2.5, Q3 7.5, median 5.
        self.assertAlmostEqual(m.quartile_spread(list(range(1, 10))), 1.0)


if __name__ == "__main__":
    unittest.main()
