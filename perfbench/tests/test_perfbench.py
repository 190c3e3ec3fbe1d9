"""Self-test of the repository benchmark.

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root; it builds the benchmark on first use (as
perfbench/run.py does) and takes a few minutes. It checks that
BENCHMARK.json and plan.json agree, that every metric BENCHMARK.json names
is emitted with its unit by every workload (and that run.py refuses a
missing, unexpected or mis-united one), that the modeled (sim-time) metrics
repeat exactly for a seed, and the pair-comparison verdicts.
"""
import functools
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import compare  # noqa: E402
import run as bench_run  # noqa: E402


def load(path):
    with open(path) as f:
        return json.load(f)


BENCH = load(os.path.join(ROOT, "BENCHMARK.json"))
PLAN = load(os.path.join(BENCH_DIR, "plan.json"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


@functools.lru_cache(maxsize=None)
def run(workload, seed, trace, seconds=1):
    """Result line of one short benchmark run (cached per arguments)."""
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    assert done.returncode == 0 and lines, (
        f"{workload} trace={trace} failed:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


class ContractTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"})
        names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in BENCH["end_to_end"]))

    def test_plan_covers_every_metric(self):
        e2e = {m["name"] for m in BENCH["end_to_end"]}
        self.assertEqual(set(PLAN["end_to_end"]), e2e)
        self.assertEqual(set(PLAN["moves"]),
                         {m["name"] for m in BENCH["per_layer"]})
        for name, entry in PLAN["moves"].items():
            self.assertTrue(set(entry["moves"]) <= e2e, name)
            self.assertTrue(set(entry["workloads"]) <= set(WORKLOADS), name)
        self.assertNotEqual(PLAN["default_seed"], PLAN["held_out_seed"])


class EmitsEveryMetricTest(unittest.TestCase):
    def check(self, trace):
        key = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in BENCH[key]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run(workload, PLAN["default_seed"], trace)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, expected)
                if not trace:
                    for name, m in result["metrics"].items():
                        self.assertGreater(m["value"], 0, name)

    def test_end_to_end(self):
        self.check(trace=0)

    def test_per_layer(self):
        self.check(trace=1)

    def test_offload_exec_stages_cover_requests(self):
        m = run("offload-exec", PLAN["default_seed"], 1)["metrics"]
        self.assertGreaterEqual(m["exec.attributed_ratio"]["value"], 0.95)


class CheckMetricsTest(unittest.TestCase):
    def test_missing_exercised_layer_fails_and_others_read_zero(self):
        metrics = {}
        problems = bench_run.check_metrics(metrics, "offload-exec", 1)
        self.assertIn("missing metric exec.device_ms_p50", problems)
        self.assertNotIn("missing metric cluster.migrations", problems)
        self.assertEqual(metrics["cluster.migrations"]["value"], 0)

    def test_unexpected_metric_and_unit_mismatch_fail(self):
        metrics = {"cluster.migrations": {"value": 1, "unit": "count"},
                   "setup_s": {"value": 1, "unit": "ms"}}
        problems = bench_run.check_metrics(metrics, "fleet-burst", 1)
        self.assertIn("unexpected metric cluster.migrations", problems)
        self.assertIn("unexpected metric setup_s", problems)
        problems = bench_run.check_metrics(
            {"setup_s": {"value": 1, "unit": "ms"}}, "fleet-burst", 0)
        self.assertTrue(any(p.startswith("unit of setup_s") for p in problems))


class ModeledMetricsRepeatTest(unittest.TestCase):
    def test_same_seed_sim_metrics_identical(self):
        seed = PLAN["held_out_seed"]
        for workload, names in PLAN["modeled_end_to_end"].items():
            if workload == "about":
                continue
            with self.subTest(workload=workload):
                a = run(workload, seed, 0)["metrics"]
                b = run(workload, seed, 0, seconds=2)["metrics"]
                for name in names:
                    self.assertEqual(a[name]["value"], b[name]["value"], name)


class VerdictTest(unittest.TestCase):
    def test_improved_needs_nine_of_ten_and_gap_beyond_iqr(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        change = [90, 91, 89, 90, 92, 88, 90, 91, 89, 90]
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1)[0],
                         "improved")
        change_mixed = change[:8] + [103, 104]
        self.assertNotEqual(
            compare.verdict(parent, change_mixed, "lower", 0.1)[0], "improved")

    def test_regressed_beyond_bound(self):
        parent = [100.0] * 5 + [101.0] * 5
        change = [130.0] * 10
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1)[0],
                         "regressed")
        self.assertEqual(compare.verdict(parent, change, "lower", 0.5)[0],
                         "unchanged")

    def test_wide_spread_is_unresolved(self):
        parent = [60, 140, 70, 130, 80, 120, 90, 110, 100, 100]
        change = [105] * 10
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1)[0],
                         "unresolved")

    def test_regressed_even_when_parent_spread_is_wide(self):
        parent = [60, 140, 70, 130, 80, 120, 90, 110, 100, 100]
        change = [200] * 10
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1)[0],
                         "regressed")

    def test_failed_pairs_count_against_improved(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        change = [90, 91, 89, 90, 92, 88, 90, 91, None, None]
        # Eight wins out of ten pairs run: two failed change runs are no win.
        self.assertNotEqual(compare.verdict(parent, change, "lower", 0.1)[0],
                            "improved")
        change = [90] * 10
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1)[0],
                         "improved")
        self.assertNotEqual(
            compare.verdict(parent, change, "lower", 0.1, parent_failed=0,
                            change_failed=3)[0], "improved")

    def test_higher_is_better_direction(self):
        parent = [10.0, 10.1, 9.9, 10.0, 10.0, 10.1, 9.9, 10.0, 10.0, 10.0]
        change = [12.0] * 10
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1)[0],
                         "improved")


if __name__ == "__main__":
    unittest.main()
