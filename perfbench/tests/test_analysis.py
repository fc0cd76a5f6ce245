"""Unit tests for the benchmark's own arithmetic and metric tables.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import analysis as an  # noqa: E402
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_and_count_beyond(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(an.percentile(values, 50), (50, 100, 50))
        self.assertEqual(an.percentile(values, 99), (99, 100, 1))
        self.assertEqual(an.percentile(values, 100), (100, 100, 0))
        self.assertEqual(an.percentile([7], 50), (7, 1, 0))

    def test_order_does_not_matter(self):
        self.assertEqual(an.percentile([5, 1, 4, 2, 3], 40), (2, 5, 3))

    def test_checked_percentile_needs_ten_beyond(self):
        values = list(range(1000))
        self.assertEqual(an.checked_percentile(values, 99, "x"), 989)
        with self.assertRaises(an.InsufficientSamples):
            an.checked_percentile(values[:999], 99, "x")  # 9 beyond
        self.assertEqual(an.checked_percentile(list(range(20)), 50, "x"), 9)
        with self.assertRaises(an.InsufficientSamples):
            an.checked_percentile(list(range(19)), 50, "x")
        with self.assertRaises(an.InsufficientSamples):
            an.checked_percentile([], 50, "x")

    def test_median(self):
        self.assertEqual(an.median([3, 1, 2]), 2)
        self.assertEqual(an.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(an.InsufficientSamples):
            an.median([])


class SteadyWindowTest(unittest.TestCase):
    def test_interpolated_crossing(self):
        self.assertEqual(an.crossing_time([0, 10], [0, 100], 25), 2.5)
        self.assertEqual(an.crossing_time([0, 10, 20], [0, 0, 10], 10), 20)
        self.assertEqual(an.crossing_time([5, 10], [3, 9], 1), 5)
        self.assertIsNone(an.crossing_time([0, 10], [0, 5], 6))

    def test_cuts_warmup_and_drain(self):
        # Slow start (10/unit), steady middle (100/unit), slow drain.
        t = [0, 1, 2, 3, 4, 5, 6, 7]
        c = [0, 10, 110, 210, 310, 410, 420, 430]
        t0, t1, rate = an.steady_window(t, c)
        self.assertAlmostEqual(t0, 1 + 33 / 100)    # 43 = 10% of 430
        self.assertAlmostEqual(t1, 4 + 77 / 100)    # 387 = 90% of 430
        self.assertAlmostEqual(rate, 100.0)

    def test_flat_series(self):
        self.assertIsNone(an.steady_window([0, 1], [0, 0]))
        self.assertIsNone(an.steady_window([], []))


class FifoLagTest(unittest.TestCase):
    def test_constant_delay(self):
        # The receiver delivers exactly what was sent 2 time units earlier.
        t = list(range(10))
        sent = [10 * i for i in t]
        delivered = [max(0, 10 * (i - 2)) for i in t]
        lags = an.fifo_lags(t, sent, delivered)
        self.assertEqual(len(lags), 7)  # every step from i=3 on
        for lag in lags:
            self.assertAlmostEqual(lag, 2.0)

    def test_burst_then_idle(self):
        t = [0, 1, 2, 3, 4]
        sent = [0, 100, 100, 100, 100]
        delivered = [0, 0, 0, 100, 100]
        # The 100th frame crossed the sender at t=1 and the receiver at t=3.
        self.assertEqual(an.fifo_lags(t, sent, delivered), [2.0])

    def test_skew_clamps_to_zero(self):
        t = [0, 1]
        self.assertEqual(an.fifo_lags(t, [0, 5], [0, 6]), [])
        self.assertEqual(an.fifo_lags(t, [0, 6], [0, 6]), [0.0])


class TailSplitTest(unittest.TestCase):
    def test_busy_and_idle(self):
        ms = 1_000_000
        t = [0, 10 * ms, 20 * ms, 30 * ms, 40 * ms]
        # 1 core for 20 ms, then 0.1 core for 20 ms.
        cpu = [0.0, 0.010, 0.020, 0.021, 0.022]
        busy, idle = an.tail_split(t, cpu, 5 * ms, 40 * ms)
        self.assertAlmostEqual(busy, 15 * ms)
        self.assertAlmostEqual(idle, 20 * ms)

    def test_unsampled_time_is_idle(self):
        busy, idle = an.tail_split([0, 10], [0.0, 1.0], 0, 30)
        self.assertEqual((busy, idle), (10, 20))

    def test_empty_window(self):
        self.assertEqual(an.tail_split([0, 10], [0, 1], 10, 5), (0.0, 0.0))


class StarvationTest(unittest.TestCase):
    def test_longest_gap_while_work_remains(self):
        t = [0, 1, 2, 3, 4, 5, 6, 7, 8]
        sent = [0, 1, 1, 1, 1, 2, 3, 3, 3]
        # 1 held from t=1 to t=5; the final count 3 from t=6 on is no starvation.
        self.assertEqual(an.longest_starvation(t, sent, 3), 4)

    def test_trailing_gap_counts(self):
        self.assertEqual(an.longest_starvation([0, 1, 2, 9], [0, 1, 1, 1], 5), 8)
        self.assertEqual(an.longest_starvation([], [], 0), 0.0)


class RepetitionTest(unittest.TestCase):
    def test_count_is_fixed_by_seconds_and_split_when_traced(self):
        self.assertEqual(run.rep_count("mesh_chain2", 30, False), 31)
        self.assertEqual(run.rep_count("mesh_chain2", 30, True), 16)
        self.assertEqual(run.rep_count("sim_chain2", 30, False), 46)
        self.assertEqual(run.rep_count("sim_chain2", 30, True), 23)
        self.assertEqual(run.rep_count("sim_chain2", 1, False), 40)
        self.assertEqual(run.rep_count("check_cm", 30, False), 1)
        self.assertEqual(run.rep_count("check_cm", 30, True), 1)

    def test_sim_reports_the_slower_quartile(self):
        # Repetition i took (i + 1) s for 1000 pairs and 2(i + 1) s of CPU.
        reps = [{"pairs_received": 1000, "setup_s": 0.01, "maxrss_kb": 1024,
                 "usage": {"wall_s": i + 1.0, "user_s": 2 * (i + 1.0),
                           "sys_s": 0.0},
                 "verify": {"check_s": i + 1.0}} for i in range(40)]
        m = run.end_to_end("sim_chain2", reps, quartile=True)
        # Nearest-rank p75 of 40 is the 30th sample, with ten beyond it.
        self.assertAlmostEqual(m["pairs_per_s"], 1000 / 30.0)
        self.assertAlmostEqual(m["cpu_us_per_pair"], 60.0 * 1e6 / 1000)
        self.assertAlmostEqual(m["check_s"], 30.0)
        self.assertAlmostEqual(m["setup_s"], 0.01)
        self.assertAlmostEqual(run.end_to_end("sim_chain2", reps)["check_s"],
                               20.5)
        with self.assertRaises(an.InsufficientSamples):
            run.end_to_end("sim_chain2", reps[:39], quartile=True)

    def test_seeds_are_reproducible_and_distinct(self):
        seeds = {run.rep_seed(s, k) for s in (1, 2) for k in range(50)}
        self.assertEqual(len(seeds), 100)
        self.assertEqual(run.rep_seed(7, 3), run.rep_seed(7, 3))
        self.assertTrue(all(0 <= x < 1 << 64 for x in seeds))


class MetricTableTest(unittest.TestCase):
    def test_matches_benchmark_json(self):
        path = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                            "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(layers, run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
