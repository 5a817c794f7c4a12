"""Self-tests of the benchmark: its arithmetic on fixed inputs, and that
BENCHMARK.json, workloads.json and run.py name the same metrics.

    python3 perfbench/run.py --selftest
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def event(name, span_id, parent, dur_us):
    return {"name": name, "dur": dur_us,
            "args": {"id": span_id, "parent": parent}}


class StatsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [7.0, 1.0, 3.0, 5.0, 9.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        # Exclusive method on 1..10: positions 2.75, 5.5, 8.25.
        self.assertEqual(run.quartiles(values), (2.75, 5.5, 8.25))
        self.assertEqual(run.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_relative_spread(self):
        values = [float(v) for v in range(1, 11)]
        self.assertAlmostEqual(run.relative_spread(values), 5.5 / 5.5)
        self.assertEqual(run.relative_spread([2.0] * 10), 0.0)

    def test_percentile_interpolates_between_ranks(self):
        values = [float(v) for v in range(1, 101)]  # 1..100
        self.assertAlmostEqual(run.percentile(values, 50), 50.5)
        self.assertAlmostEqual(run.percentile(values, 90), 90.1)
        self.assertEqual(run.percentile(values, 0), 1.0)
        self.assertEqual(run.percentile(values, 100), 100.0)
        self.assertEqual(run.percentile([5.0, 1.0], 50), 3.0)
        self.assertEqual(run.percentile([4.0], 90), 4.0)
        with self.assertRaises(ValueError):
            run.percentile([], 50)


def rep(seed, pass_, wall, setup, alpha, steps=0):
    return {"kind": "rep", "pass": pass_, "seed": seed, "wall_s": wall,
            "setup_s": setup, "time_to_alpha_s": alpha, "steps": steps,
            "edges": 0, "perimeter": 0, "ops": 1, "failed": []}


class AggregateTest(unittest.TestCase):
    def test_seed_medians_then_mean_over_seeds(self):
        lines = [
            rep(1, "warmup", 9.0, 0.5, 8.5, steps=100),
            rep(1, "measure", 2.0, 0.1, 1.5, steps=100),
            rep(1, "measure", 4.0, 0.3, 3.5, steps=100),
            rep(1, "measure", 3.0, 0.2, 2.5, steps=100),
            rep(2, "measure", 1.0, 0.4, 0.5, steps=50),
            {"kind": "end", "peak_rss_mib": 12.0},
        ]
        metrics, attempted, failures, detail = run.aggregate_measure(lines)
        # Seed medians 3.0 and 1.0 (alpha 2.5 and 0.5); the warm-up, run
        # before the rounds, is checked but not timed.
        self.assertAlmostEqual(metrics["wall_s"], 2.0)
        self.assertAlmostEqual(metrics["events_per_s"], 150 / 4.0)
        self.assertAlmostEqual(metrics["time_to_alpha_s"], (2.5 + 0.5) / 2)
        # The warm-up's set-up (0.5) is not a sample of setup_s either.
        self.assertAlmostEqual(metrics["setup_s"], 0.25)
        self.assertEqual(metrics["peak_rss_mib"], 12.0)
        self.assertEqual((attempted, failures), (5, []))
        self.assertEqual(detail["finals"], [(1, 100, 0, 0), (2, 50, 0, 0)])

    def test_setup_passes_add_setup_and_alpha_samples_only(self):
        lines = [
            rep(1, "measure", 2.0, 0.30, 0.30, steps=100),
            rep(1, "setup", 0.5, 0.10, 0.10),
            rep(1, "setup", 0.5, 0.11, 0.11),
            {"kind": "end", "peak_rss_mib": 1.0},
        ]
        metrics, _, _, detail = run.aggregate_measure(lines)
        self.assertAlmostEqual(metrics["wall_s"], 2.0)
        self.assertAlmostEqual(metrics["setup_s"], 0.11)
        self.assertAlmostEqual(metrics["time_to_alpha_s"], 0.11)
        self.assertEqual(detail["finals"], [(1, 100, 0, 0)])

    def test_set_up_passes_short_of_alpha_are_skipped(self):
        lines = [
            rep(1, "measure", 2.0, 0.1, 1.9, steps=100),
            rep(1, "setup", 0.1, 0.1, None),
            {"kind": "end", "peak_rss_mib": 1.0},
        ]
        metrics, _, _, _ = run.aggregate_measure(lines)
        self.assertAlmostEqual(metrics["time_to_alpha_s"], 1.9)

    def test_no_time_to_alpha_when_a_measured_run_misses_it(self):
        lines = [
            rep(1, "measure", 2.0, 0.1, None, steps=100),
            {"kind": "end", "peak_rss_mib": 1.0},
        ]
        metrics, _, _, _ = run.aggregate_measure(lines)
        self.assertNotIn("time_to_alpha_s", metrics)


    def test_a_warm_up_that_ran_nothing_is_the_failure(self):
        warmup = rep(1, "warmup", 0.1, 0.0, None)
        warmup.update(ops=0, failed=["exception: bad spec"])
        lines = [warmup, {"kind": "end", "peak_rss_mib": 1.0}]
        metrics, attempted, failures, _ = run.aggregate_measure(lines)
        self.assertEqual(metrics, {})
        self.assertEqual((attempted, failures), (0, ["exception: bad spec"]))


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        # root (100us) > a (60us) > b (25us); root > c (10us).
        events = [
            event("root", 0, -1, 100.0),
            event("a", 1, 0, 60.0),
            event("b", 2, 1, 25.0),
            event("c", 3, 0, 10.0),
        ]
        spans = run.span_times(events)
        self.assertEqual(spans["root"][0], 1)
        self.assertAlmostEqual(spans["root"][1], 100e-6)
        self.assertAlmostEqual(spans["root"][2], 30e-6)
        self.assertAlmostEqual(spans["a"][2], 35e-6)
        self.assertAlmostEqual(spans["b"][2], 25e-6)
        self.assertAlmostEqual(spans["c"][2], 10e-6)

    def test_repeated_names_accumulate(self):
        events = [
            event("run", 0, -1, 50.0),
            event("step", 1, 0, 20.0),
            event("step", 2, 0, 15.0),
        ]
        spans = run.span_times(events)
        self.assertEqual(spans["step"][0], 2)
        self.assertAlmostEqual(spans["step"][1], 35e-6)
        self.assertAlmostEqual(spans["run"][2], 15e-6)


class ConfigTest(unittest.TestCase):
    def test_benchmark_json_names_what_run_py_reports(self):
        path = run.ROOT / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json beside perfbench/")
        bench = json.loads(path.read_text())
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER_UNITS)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.load_workloads()))

    def test_layer_map_covers_every_per_layer_metric(self):
        layer_map = json.loads(
            (run.HERE / "workloads.json").read_text())["layer_map"]
        self.assertEqual(set(layer_map), set(run.PER_LAYER_UNITS))


if __name__ == "__main__":
    unittest.main()
