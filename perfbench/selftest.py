"""Self-tests of the benchmark's own arithmetic, on synthetic inputs.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Covers the tail-percentile rule, self time from nested spans, failure
accounting, backlog detection behind ``slo_qps``, and that
``BENCHMARK.json`` names exactly the workloads and metrics the
benchmark prints.
"""

from __future__ import annotations

import json
import sys
import time
import unittest
from pathlib import Path

import numpy as np

import spans
import stats

ROOT = Path(__file__).resolve().parent.parent


class TailRule(unittest.TestCase):
    def test_percentile_matches_linear_interpolation(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
        for pct in (0.0, 25.0, 50.0, 90.0, 100.0):
            self.assertAlmostEqual(stats.percentile(values, pct),
                                   float(np.percentile(values, pct)))

    def test_highest_percentile_with_ten_samples_beyond(self):
        cases = {5: 50.0, 19: 50.0, 20: 50.0, 39: 50.0, 40: 75.0, 99: 75.0,
                 100: 90.0, 199: 90.0, 200: 95.0, 999: 95.0, 1000: 99.0,
                 9999: 99.0, 10000: 99.9}
        for count, pct in cases.items():
            self.assertEqual(stats.tail_percentile(count), pct, count)

    def test_summary_reports_percentile_and_count(self):
        samples = list(range(1, 101))            # 1..100 ms
        summary = stats.latency_summary(samples)
        self.assertEqual(summary["samples"], 100)
        self.assertEqual(summary["tail_pct"], 90.0)
        # Harrell-Davis on 1..n: p * n + 0.5.
        self.assertAlmostEqual(summary["tail_ms"], 90.5, places=6)
        self.assertAlmostEqual(summary["p50_ms"], 50.5, places=6)

    def test_harrell_davis_moves_smoothly_across_a_gap(self):
        self.assertAlmostEqual(stats.hd_percentile([7.0] * 9, 50.0), 7.0)
        self.assertEqual(stats.hd_percentile([3.0], 99.0), 3.0)
        even = [10.0] * 40 + [20.0] * 40
        self.assertAlmostEqual(stats.hd_percentile(even, 50.0), 15.0,
                               places=6)
        # One sample across the gap moves linear interpolation by half
        # the gap, the Harrell-Davis estimate by far less.
        shifted = [10.0] * 41 + [20.0] * 39
        self.assertEqual(stats.percentile(shifted, 50.0), 10.0)
        self.assertLess(15.0 - stats.hd_percentile(shifted, 50.0), 1.0)
        self.assertGreater(15.0 - stats.hd_percentile(shifted, 50.0), 0.0)


class SelfTime(unittest.TestCase):
    @staticmethod
    def span(span_id, name, start, end, parent=None):
        return spans.Span(span_id, name, start, end, parent=parent)

    def test_overlapping_children_count_once(self):
        found = [
            self.span(1, "root", 0.0, 10.0),
            self.span(2, "child", 1.0, 3.0, parent=1),
            self.span(3, "child", 2.0, 5.0, parent=1),   # overlaps span 2
            self.span(4, "child", 8.0, 9.0, parent=1),
            self.span(5, "leaf", 2.5, 3.5, parent=3),
        ]
        totals = spans.self_times(found)
        self.assertAlmostEqual(totals["root"], 10.0 - 5.0)
        self.assertAlmostEqual(totals["child"], 2.0 + (3.0 - 1.0) + 1.0)
        self.assertAlmostEqual(totals["leaf"], 1.0)
        self.assertAlmostEqual(spans.root_busy(found), 10.0)

    def test_children_outside_the_parent_are_clipped(self):
        self.assertAlmostEqual(spans.covered([(-1.0, 1.0), (4.0, 9.0)],
                                             0.0, 5.0), 2.0)

    def test_tracer_links_nested_spans_per_thread(self):
        tracer = spans.Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        self.assertIsNone(outer.parent)
        self.assertEqual(inner.parent, outer.span_id)
        self.assertLessEqual(outer.start, inner.start)
        self.assertLessEqual(inner.end, outer.end)

    def test_patched_restores_the_original(self):
        class Owner:
            def value(self):
                return 1

        with spans.patched(Owner, "value",
                           lambda original: lambda self: original(self) + 1):
            self.assertEqual(Owner().value(), 2)
        self.assertEqual(Owner().value(), 1)
        self.assertNotIn("value", vars(Owner()))


class HostSpeedScaling(unittest.TestCase):
    def test_factor_is_reference_over_the_mean_of_the_unit_probes(self):
        import hostspeed

        speed = hostspeed.HostSpeed()
        ref = hostspeed.REFERENCE_S
        back = hostspeed.LOOKBACK_S
        for at, scale in ((0.0, 4.0), (10.0, 1.0), (10.4, 1.5),
                          (10.9, 2.5), (11.5, 9.0)):
            speed.add_sample(at, scale * ref)
        # A unit sees the probes from LOOKBACK_S before it to its end.
        self.assertAlmostEqual(speed.factor(back + 9.9, 11.0), 1 / (5 / 3))
        self.assertAlmostEqual(speed.factor(back + 10.4, 11.0), 1 / 2.0)
        # No probe in the window: the last one before the unit's end.
        self.assertAlmostEqual(speed.factor(back + 5.0, 6.0), 1 / 4.0)
        self.assertEqual(len(speed.factors), 3)

    def test_idle_factor_is_reference_over_the_mean_of_the_brackets(self):
        import hostspeed

        speed = hostspeed.HostSpeed()
        ref = hostspeed.REFERENCE_S
        self.assertAlmostEqual(speed.scale(ref, ref), 1.0)
        self.assertAlmostEqual(speed.scale(1.5 * ref, 2.5 * ref), 0.5)
        self.assertEqual(len(speed.factors), 2)

    def test_meter_probes_in_the_background_and_stops(self):
        import hostspeed

        with hostspeed.HostSpeed(every_s=0.01) as speed:
            time.sleep(0.1)
        self.assertGreater(len(speed._at), 2)
        self.assertFalse(speed._thread.is_alive())


class FailureAccounting(unittest.TestCase):
    def test_failures_and_mismatches_count_against_attempts(self):
        ledger = stats.Ledger()
        ledger.ok(8)
        ledger.fail("served_by=fallback")
        ledger.fail("hang")
        ledger.mismatch("oracle: order differs")   # an answered request
        self.assertEqual(ledger.attempted, 10)
        self.assertEqual(ledger.failed, 3)
        self.assertAlmostEqual(ledger.fail_rate, 0.3)
        self.assertAlmostEqual(ledger.success_rate, 0.7)
        self.assertEqual(ledger.reasons["hang"], 1)

    def test_nothing_attempted_is_total_failure(self):
        self.assertEqual(stats.Ledger().fail_rate, 1.0)

    def test_goodput_counts_only_requests_within_the_limit(self):
        self.assertAlmostEqual(stats.goodput([1.0, 5.0, 20.0, 2.0], 2.0,
                                             limit_ms=5.0), 1.5)


class SloLadder(unittest.TestCase):
    def test_steady_latency_is_no_backlog(self):
        rng = np.random.default_rng(0)
        due = np.sort(rng.uniform(0.0, 10.0, 1000))
        latency = 2.0 + rng.exponential(0.5, 1000)
        self.assertFalse(stats.backlog_growing(due, latency, limit_ms=10.0))

    def test_climbing_latency_is_a_growing_backlog(self):
        due = np.linspace(0.0, 10.0, 1000)
        latency = 2.0 + 3.0 * due                  # +30 ms over the rung
        self.assertTrue(stats.backlog_growing(due, latency, limit_ms=10.0))

    def test_a_few_late_spikes_are_not_a_backlog(self):
        due = np.linspace(0.0, 10.0, 1000)
        latency = np.full(1000, 2.0)
        latency[-5:] = 500.0
        self.assertFalse(stats.backlog_growing(due, latency, limit_ms=10.0))

    def test_slo_rate_is_the_highest_rung_meeting_the_limit(self):
        def rung(offered, achieved, tail, backlog=False, failed=0):
            return {"offered_qps": offered, "achieved_qps": achieved,
                    "tail_ms": tail, "backlog": backlog, "failed": failed}

        rungs = [rung(100, 99.0, 3.0), rung(300, 297.0, 8.0),
                 rung(900, 870.0, 40.0)]
        self.assertEqual(stats.slo_rate(rungs, limit_ms=10.0), 297.0)
        self.assertEqual(stats.slo_rate(rungs, limit_ms=50.0), 870.0)
        rungs[2] = rung(900, 870.0, 4.0, backlog=True)
        self.assertEqual(stats.slo_rate(rungs, limit_ms=50.0), 297.0)
        rungs[1] = rung(300, 297.0, 4.0, failed=1)
        self.assertEqual(stats.slo_rate(rungs, limit_ms=50.0), 99.0)
        self.assertEqual(stats.slo_rate([rung(100, 99.0, 60.0)], 50.0), 0.0)


class Declaration(unittest.TestCase):
    """BENCHMARK.json names what the benchmark prints, unit for unit."""

    def test_benchmark_json_matches_the_emitted_metrics(self):
        sys.path.insert(0, str(ROOT / "src"))
        import common
        import run

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = {w["name"] for w in spec["workloads"]}
        self.assertLessEqual(declared, set(run.WORKLOADS))
        self.assertEqual(set(run.WORKLOADS) - declared, set(run.UNDECLARED))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         common.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         common.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
