"""Self-tests for the benchmark's arithmetic (run.py runs them before every
measurement; `python3 perfbench/test_benchlib.py` runs them alone)."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchlib  # noqa: E402
from benchlib import BenchError  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_selection(self):
        values = list(range(1, 101))  # 1..100, shuffled order must not matter
        values.reverse()
        self.assertEqual(benchlib.percentile(values, 0.5), 50)
        self.assertEqual(benchlib.percentile(values, 0.9), 90)
        self.assertEqual(benchlib.percentile(values, 0.25), 25)

    def test_rank_rounds_up(self):
        # ceil(0.5 * 21) = 11th smallest of 0..20 is 10.
        self.assertEqual(benchlib.percentile(list(range(21)), 0.5), 10)

    def test_ten_beyond_rule(self):
        # p99 of 1000 samples is rank 990: exactly ten beyond it.
        self.assertEqual(benchlib.percentile(list(range(1000)), 0.99), 989)
        with self.assertRaises(BenchError):
            benchlib.percentile(list(range(999)), 0.99)
        # p90 needs 100 samples, p50 needs 20.
        self.assertEqual(benchlib.min_samples(0.99), 1000)
        self.assertEqual(benchlib.min_samples(0.9), 100)
        self.assertEqual(benchlib.min_samples(0.5), 20)
        with self.assertRaises(BenchError):
            benchlib.percentile(list(range(19)), 0.5)

    def test_window_quantiles(self):
        # Ten 20-sample windows with medians 10..19, the fourth disturbed.
        values = []
        for w in range(10):
            values += [1000] * 20 if w == 3 else [w + 10] * 20
        self.assertEqual(benchlib.window_quantiles(values, 0.5, 10),
                         [10, 11, 12, 1000, 14, 15, 16, 17, 18, 19])
        with self.assertRaises(BenchError):  # p90 of 20 samples: 2 beyond
            benchlib.window_quantiles(values, 0.9, 10)
        with self.assertRaises(BenchError):
            benchlib.window_quantiles([1] * 5, 0.5, 10)
        with self.assertRaises(BenchError):
            benchlib.window_quantiles([1] * 50, 0.5, 0)

    def test_lower_quartile(self):
        # Third lowest of ten: an episode raising 7 windows is ignored...
        self.assertEqual(benchlib.lower_quartile([9, 9, 9, 9, 9, 9, 9, 1, 2, 3]), 3)
        # ...while a slowdown in 8 of 10 windows moves the figure.
        self.assertEqual(benchlib.lower_quartile([9, 9, 9, 9, 9, 9, 9, 9, 2, 3]), 9)
        self.assertEqual(benchlib.lower_quartile([5, 4]), 4)
        self.assertEqual(benchlib.lower_quartile([7]), 7)

    def test_window_rates(self):
        ms = 1_000_000
        # From 100 ms on, 100 ms windows holding 3, 5, 0, 1 and 2 tasks,
        # then a partial one; the events before 100 ms are skipped.
        events = [(20 * ms, 50), (100 * ms, 1), (150 * ms, 2), (220 * ms, 5),
                  (410 * ms, 1), (520 * ms, 2), (610 * ms, 9)]
        self.assertEqual(benchlib.window_rates(events, 100 * ms, 0.1),
                         [30.0, 50.0, 0.0, 10.0, 20.0])
        with self.assertRaises(BenchError):
            benchlib.window_rates([(0, 1), (250 * ms, 1)], 0, 0.1)

    def test_quantile_domain(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([1] * 100, 1.0)


class CoordinatedOmissionTest(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        # Requests due every 1 ms; the server stalls 10 ms on the first,
        # so the next ones start late. Timing from the send would report
        # 1 ms each; timing from the due time charges the stall.
        recs = []
        for i in range(5):
            due = i * 1_000_000
            start = max(due, 10_000_000 + (i - 1) * 1_000_000) if i else 0
            recs.append({"due": due, "eligible": start, "start": start,
                         "done": (10_000_000 if i == 0 else start + 1_000_000)})
        lat = benchlib.co_latencies(recs)
        self.assertEqual(lat[0], 10_000_000)
        self.assertEqual(lat[1], 10_000_000)  # due at 1 ms, done at 11 ms
        self.assertEqual(lat[4], 10_000_000)
        send_timed = [r["done"] - r["start"] for r in recs]
        self.assertEqual(send_timed[1], 1_000_000)

    def test_generator_lag_excludes_connection_wait(self):
        # Due at 0, every connection busy until 5 ms (server's doing),
        # started 20 us after one freed (generator's doing).
        rec = {"due": 0, "eligible": 5_000_000, "start": 5_020_000,
               "done": 6_000_000}
        self.assertEqual(benchlib.generator_lag([rec]), [20_000])
        self.assertEqual(benchlib.co_latencies([rec]), [6_000_000])


class BudgetAndErrorTest(unittest.TestCase):
    def test_budget_gap(self):
        self.assertAlmostEqual(benchlib.budget_gap(100.0, [60.0, 10.0, 5.0]), 0.25)
        self.assertAlmostEqual(benchlib.budget_gap(100.0, [80.0, 30.0]), -0.1)
        with self.assertRaises(BenchError):
            benchlib.budget_gap(0.0, [1.0])

    def test_error_ratio(self):
        self.assertEqual(benchlib.error_ratio(0, 10), 0.0)
        self.assertEqual(benchlib.error_ratio(3, 12), 0.25)
        with self.assertRaises(BenchError):
            benchlib.error_ratio(0, 0)
        with self.assertRaises(BenchError):
            benchlib.error_ratio(11, 10)

    def test_histogram_mean_is_exact(self):
        self.assertEqual(benchlib.histogram_mean(1234567, 1000), 1234.567)
        with self.assertRaises(BenchError):
            benchlib.histogram_mean(0, 0)


class OutputCheckTest(unittest.TestCase):
    def test_submit_must_accept_every_task(self):
        self.assertEqual(benchlib.check_response(
            "submit", 202, '{"accepted":64,"rejected":0}\n', 64), (64, 0))
        with self.assertRaises(BenchError):
            benchlib.check_response("submit", 202, '{"accepted":63,"rejected":1}', 64)
        with self.assertRaises(BenchError):
            benchlib.check_response("submit", 503, '{"accepted":0,"rejected":1}', 1)

    def test_saturation_allows_backpressure_only(self):
        self.assertEqual(benchlib.check_response(
            "submit", 202, '{"accepted":63,"rejected":1}', 64, saturating=True), (63, 1))
        self.assertEqual(benchlib.check_response(
            "submit", 503, '{"accepted":0,"rejected":1}', 1, saturating=True), (0, 1))
        with self.assertRaises(BenchError):  # counts must cover the body
            benchlib.check_response("submit", 202, '{"accepted":60,"rejected":1}',
                                    64, saturating=True)
        with self.assertRaises(BenchError):
            benchlib.check_response("submit", 500, "oops", 1, saturating=True)

    def test_bodies_must_parse(self):
        with self.assertRaises(BenchError):
            benchlib.check_response("schedule", 200, '{"core":', 0)
        with self.assertRaises(BenchError):
            benchlib.check_response("metrics", 200, "dvfs_x_total one\n", 0)
        self.assertEqual(benchlib.check_response("healthz", 503, "{}", 0), (0, 0))

    def test_prometheus_exact_counters(self):
        text = ("# TYPE dvfs_svc_placed_total counter\n"
                "dvfs_svc_placed_total 42\n"
                'dvfs_svc_submit_rejected_total{shard="0"} 1\n'
                'dvfs_svc_submit_rejected_total{shard="1"} 2\n'
                'dvfs_x_bucket{le="+Inf"} 3 # {trace_id="00ab"} 5 1.5\n')
        prom = benchlib.parse_prometheus(text)
        self.assertEqual(benchlib.metric_sum(prom, "dvfs_svc_placed_total"), 42)
        self.assertEqual(benchlib.metric_sum(prom, "dvfs_svc_submit_rejected_total"), 3)

    def test_drained_line_accounts_for_every_task(self):
        line = "drained: 100 submitted, 103 placed, 2 rejected, 3 stolen, 90 completed"
        self.assertEqual(benchlib.check_drained(line, 100, 2), (100, 103, 3))
        with self.assertRaises(BenchError):
            benchlib.check_drained(line, 99, 2)
        with self.assertRaises(BenchError):
            benchlib.check_drained(line, 100, 0)
        with self.assertRaises(BenchError):
            benchlib.check_drained(line.replace("103 placed", "102 placed"), 100, 2)
        with self.assertRaises(BenchError):
            benchlib.check_drained("no summary", 100, 0)


if __name__ == "__main__":
    unittest.main()
