#!/usr/bin/env python3
"""Self-tests of the benchmark's definition and result line.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They need no build: they check BENCHMARK.json against perfbench/metrics.json
and the benchmark contract, check perfbench/expected.json, and exercise
run.py's pure helpers.
"""

import json
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(path):
    return json.loads(Path(path).read_text())


class Definition(unittest.TestCase):
    def setUp(self):
        self.bench = load(ROOT / "BENCHMARK.json")
        self.spec = load(HERE / "metrics.json")

    def test_benchmark_json_shape(self):
        b = self.bench
        self.assertEqual(
            set(b), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        )
        self.assertEqual(b["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(b["paths"], ["perfbench"])
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        self.assertLess(len((ROOT / "BENCHMARK.json").read_bytes()), 64 * 1024)

    def test_names_and_units(self):
        names = [w["name"] for w in self.bench["workloads"]]
        for section in ("end_to_end", "per_layer"):
            for m in self.bench[section]:
                names.append(m["name"])
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)), "a name is used twice")

    def test_metric_counts_and_setup(self):
        e2e = self.bench["end_to_end"]
        self.assertTrue(1 <= len(e2e) <= 16)
        self.assertTrue(1 <= len(self.bench["per_layer"]) <= 128)
        setup = [m for m in e2e if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in e2e))

    def test_benchmark_json_matches_spec(self):
        strip = lambda ms: [(m["name"], m["unit"], m["better"]) for m in ms]
        self.assertEqual(strip(self.bench["end_to_end"]), strip(self.spec["end_to_end"]))
        self.assertEqual(strip(self.bench["per_layer"]), strip(self.spec["per_layer"]))
        self.assertEqual([w["name"] for w in self.bench["workloads"]], self.spec["workloads"])

    def test_every_layer_metric_names_an_end_to_end_metric_and_workload(self):
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        workloads = {w["name"] for w in self.bench["workloads"]}
        for m in self.spec["per_layer"]:
            self.assertTrue(m["moves"], m["name"])
            for target in m["moves"]:
                self.assertIn(target, e2e, m["name"])
            self.assertTrue(m["on"], m["name"])
            for w in m["on"] + m["little_on"]:
                self.assertIn(w, workloads, m["name"])
            self.assertFalse(set(m["on"]) & set(m["little_on"]), m["name"])

    def test_expected_outputs(self):
        expected = load(HERE / "expected.json")
        for w in ("campaign_quick", "daemon_jobs"):
            self.assertRegex(expected[w]["digest"], r"^[0-9a-f]{16}$")
        fid = expected["rate_pairs_dev"]
        self.assertGreater(fid["tolerance_pts"], 0)
        # The recorded deltas keep the paper's signs: faster, less bloat,
        # lower hit latency.
        self.assertGreater(fid["speedup_pct"], 0)
        self.assertLess(fid["bloat_pct"], 0)
        self.assertLess(fid["hit_latency_pct"], 0)


class ResultLine(unittest.TestCase):
    def test_end_to_end_metrics_serialize(self):
        doc = {
            "setup_s": [0.002, 0.001, 0.003],
            "peak_rss_mb": 15.5,
            "reps": [
                {"wall_s": 2.0, "cycles": 4_000_000, "insts": 1_000_000, "jobs": 4,
                 "latencies_ms": [400.0, 500.0]},
                {"wall_s": 2.2, "cycles": 4_000_000, "insts": 1_000_000, "jobs": 4,
                 "latencies_ms": [450.0, 520.0]},
            ],
        }
        values = run.end_to_end(doc)
        self.assertEqual(set(values), {m["name"] for m in run.SPEC["end_to_end"]})
        metrics = {k: {"value": v, "unit": "x"} for k, (v, _) in values.items()}
        line = json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics})
        back = json.loads(line)
        self.assertEqual(back["metrics"]["setup_s"]["value"], 0.002)
        self.assertAlmostEqual(back["metrics"]["wall_s"]["value"], 2.1)
        for name, m in back["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_job_latency_is_a_median_of_repetition_means(self):
        # A campaign repetition has one long and one short step; the median
        # of the pooled latencies would average the slowest short step with
        # the fastest long one.
        rep = lambda long, short: {"wall_s": 4.0, "cycles": 1, "insts": 1, "jobs": 2,
                                   "latencies_ms": [long, short]}
        doc = {"setup_s": [0.002], "peak_rss_mb": 4.0,
               "reps": [rep(3000.0, 1000.0), rep(3100.0, 1500.0), rep(2900.0, 900.0)]}
        value, samples = run.end_to_end(doc)["job_latency_mean_ms"]
        self.assertEqual((value, samples), (2000.0, 3))

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(list(range(10))), (None, None))
        samples = [float(i) for i in range(100)]
        p, v = run.tail_percentile(samples)
        self.assertEqual((p, v), (90, 89.0))
        self.assertEqual(sum(1 for s in samples if s > v), 10)

    def test_refuses_to_run_outside_a_checkout(self):
        with tempfile.TemporaryDirectory() as d:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", "rate_pairs_dev",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
