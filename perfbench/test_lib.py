"""Tests of the benchmark's own pieces.

    python3 perfbench/test_lib.py
"""
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import lib  # noqa: E402
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # p99 of n samples leaves n - ceil(0.99 n) beyond it: ten from n=1000.
        self.assertIsNone(lib.percentile(list(range(999)), 99))
        self.assertEqual(lib.percentile(list(range(1000)), 99), 989)
        self.assertIsNone(lib.percentile(list(range(19)), 50))
        self.assertEqual(lib.percentile(list(range(20)), 50), 9)
        self.assertIsNone(lib.percentile([], 50))

    def test_lower_quartile(self):
        self.assertEqual(lib.lower_quartile([3.0, 1.0, 2.0]), 1.0)
        self.assertEqual(lib.lower_quartile([float(v) for v in range(1, 8)]),
                         2.0)
        # Slow outliers, however many below half, leave it where it was.
        fast = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5]
        self.assertEqual(lib.lower_quartile(fast + [9.0, 9.0]),
                         lib.lower_quartile(fast + [5.0, 7.0]))

    def test_nearest_rank_ignores_input_order(self):
        values = [float(v) for v in range(2000, 0, -1)]
        self.assertEqual(lib.percentile(values, 99), 1980.0)
        self.assertEqual(lib.percentile(values, 50), 1000.0)


class SelfTimeTest(unittest.TestCase):
    # (name, start, end, id, parent, request)
    SPANS = [
        ("driver.report", 0, 100, 1, 0, 0),
        ("sim.run_campaign", 10, 80, 2, 1, 0),
        ("analysis.extract_feed", 20, 30, 3, 2, 0),
        ("telemetry.spill", 25, 40, 4, 2, 0),   # overlaps its sibling
        ("analysis.fanout", 85, 95, 5, 1, 0),
    ]

    def test_self_time_subtracts_union_of_children(self):
        own = lib.self_times(self.SPANS)
        self.assertEqual(own[1], 100 - 70 - 10)
        self.assertEqual(own[2], 70 - 20)       # union of [20,30] and [25,40]
        self.assertEqual(own[3], 10)
        self.assertEqual(own[4], 15)

    def test_self_times_add_up_to_root_wall(self):
        own = lib.self_times(self.SPANS[:3] + self.SPANS[4:])
        self.assertEqual(sum(own.values()), 100)

    def test_layers_and_coverage(self):
        layers = lib.layer_self_ms(self.SPANS)
        self.assertAlmostEqual(layers["sim"], 50 / 1e6)
        self.assertAlmostEqual(layers["analysis"], 20 / 1e6)
        self.assertAlmostEqual(lib.coverage(self.SPANS), 0.8)
        self.assertAlmostEqual(lib.span_ms(self.SPANS, "sim.run_campaign",
                                           self_only=True), 50 / 1e6)

    def test_children_are_clipped_to_the_parent(self):
        spans = [("a.x", 0, 10, 1, 0, 0), ("b.y", 5, 20, 2, 1, 0)]
        self.assertEqual(lib.self_times(spans)[1], 5)


class ScheduleTest(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        lines, hot = lib.request_mix(7)
        self.assertEqual((lines, hot), lib.request_mix(7))
        a = lib.open_schedule(7, len(lines), hot, 400.0, 3.0, 2, 0, 1.0)
        b = lib.open_schedule(7, len(lines), hot, 400.0, 3.0, 2, 0, 1.0)
        self.assertEqual(a, b)
        self.assertEqual(lib.closed_batch(7, len(lines), hot),
                         lib.closed_batch(7, len(lines), hot))

    def test_other_seed_other_schedule(self):
        lines, hot = lib.request_mix(7)
        self.assertNotEqual(lines, lib.request_mix(8)[0])
        a = lib.open_schedule(7, len(lines), hot, 400.0, 3.0, 2, 0, 1.0)
        b = lib.open_schedule(8, len(lines), hot, 400.0, 3.0, 2, 0, 1.0)
        self.assertNotEqual(a, b)

    def test_schedule_shape(self):
        lines, hot = lib.request_mix(3)
        self.assertEqual(len(set(lines)), 120)
        self.assertFalse(any("--all" in line for line in lines))
        kinds = [("count" if "--count" in l else "limit" if "--limit" in l
                  else "section") for l in lines]
        # perf_serve's dashboard ratio of kinds, 6:2:4, ten times over.
        self.assertEqual([kinds.count(k) for k in ("count", "limit", "section")],
                         [60, 20, 40])
        self.assertEqual(sorted(lines[i] for i in hot), sorted(lib.DASHBOARD))
        batch = lib.closed_batch(3, len(lines), hot)
        # The open loop's hot share: HOT_SHARE, plus uniform picks of hot lines.
        share = lib.HOT_SHARE + (1 - lib.HOT_SHARE) * len(hot) / len(lines)
        self.assertAlmostEqual(sum(1 for li in batch if li in hot) / len(batch),
                               share)
        self.assertEqual(sorted(batch), sorted(lib.closed_batch(4, len(lines), hot)))
        self.assertNotEqual(batch, lib.closed_batch(4, len(lines), hot))
        entries = lib.open_schedule(3, len(lines), hot, 500.0, 4.0, 2, 0, 1.0)
        dues = [e[0] for e in entries]
        self.assertEqual(dues, sorted(dues))
        swaps = [e for e in entries if e[1] == "s"]
        self.assertEqual([e[2] for e in swaps], [1, 0])
        longer = lib.open_schedule(3, len(lines), hot, 500.0, 5.5, 2, 0, 1.0)
        self.assertEqual([e[2] for e in longer if e[1] == "s"], [1, 0, 1, 0])
        queries = len(entries) - len(swaps)
        self.assertTrue(1700 < queries < 2300, queries)


class ServedBodyTest(unittest.TestCase):
    def test_fnv1a_matches_the_driver(self):
        self.assertEqual(lib.fnv1a(b""), 0xcbf29ce484222325)
        self.assertEqual(lib.fnv1a(b"a"), 0xaf63dc4c8601ec8c)

    def test_candidate_stores(self):
        swaps = [(100, 110, 0, 1), (200, 210, 1, 0)]
        self.assertEqual(lib.candidate_stores(10, 20, 0, swaps), {0})
        self.assertEqual(lib.candidate_stores(120, 150, 0, swaps), {1})
        self.assertEqual(lib.candidate_stores(105, 108, 0, swaps), {0, 1})
        self.assertEqual(lib.candidate_stores(90, 130, 0, swaps), {0, 1})
        self.assertEqual(lib.candidate_stores(220, 230, 0, swaps), {0})

    def test_backlog(self):
        self.assertFalse(lib.backlog_grows([1.0] * 40))
        self.assertTrue(lib.backlog_grows([1.0 + i for i in range(40)]))


class BenchmarkFileTest(unittest.TestCase):
    def test_metrics_and_workloads_match_run_py(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            doc = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in doc["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual(sorted(w["name"] for w in doc["workloads"]),
                         sorted(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
