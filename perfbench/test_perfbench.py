#!/usr/bin/env python3
"""Tests of the benchmark's own statistics, trace checks and trace writer.

    python3 perfbench/test_perfbench.py

The trace-writer test builds the perfbench binary (as run.py does) and checks
the Chrome trace it writes in its --trace-selftest mode.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import run  # noqa: E402
import stats  # noqa: E402


def span(sid, parent, ts, dur, name="s"):
    return {"name": name, "cat": "core", "ph": "X", "ts": ts, "dur": dur,
            "pid": 1, "tid": 1, "args": {"id": sid, "parent": parent}}


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(stats.percentile(list(range(1, 101)), 90), 90)
        with self.assertRaises(ValueError):
            stats.percentile(list(range(1, 100)), 90)

    def test_p50_of_small_sets(self):
        self.assertEqual(stats.percentile(list(range(1, 21)), 50), 10)
        with self.assertRaises(ValueError):
            stats.percentile(list(range(1, 20)), 50)

    def test_order_does_not_matter(self):
        values = [float((7 * i) % 101) for i in range(101)]
        self.assertEqual(stats.percentile(values, 90), stats.percentile(sorted(values), 90))


class Quartiles(unittest.TestCase):
    def test_match_statistics_quantiles(self):
        values = [3.1, 2.0, 9.5, 4.4, 4.0, 5.2, 6.8, 1.1, 7.7, 3.3]
        self.assertEqual(stats.quartiles(values), statistics.quantiles(values, n=4))

    def test_iqr_share(self):
        # quantiles of 1..9 (exclusive method): 2.5, 5, 7.5
        self.assertAlmostEqual(stats.iqr_share(list(range(1, 10))), 1.0)
        self.assertEqual(stats.iqr_share([2.0] * 10), 0.0)


class TraceChecks(unittest.TestCase):
    def test_accepts_nested_spans(self):
        doc = {"traceEvents": [span(0, -1, 0, 100), span(1, 0, 10, 20),
                               span(2, 0, 40, 50), span(3, 2, 45, 5),
                               span(4, -1, 200, 1)]}
        self.assertEqual(stats.validate_trace(doc), 5)

    def test_rejects_child_outside_parent(self):
        doc = {"traceEvents": [span(0, -1, 0, 100), span(1, 0, 90, 20)]}
        with self.assertRaises(ValueError):
            stats.validate_trace(doc)

    def test_rejects_overlapping_siblings(self):
        doc = {"traceEvents": [span(0, -1, 0, 100), span(1, 0, 10, 30),
                               span(2, 0, 30, 10)]}
        with self.assertRaises(ValueError):
            stats.validate_trace(doc)

    def test_rejects_unknown_parent_and_duplicate_ids(self):
        with self.assertRaises(ValueError):
            stats.validate_trace({"traceEvents": [span(1, 7, 0, 1)]})
        with self.assertRaises(ValueError):
            stats.validate_trace({"traceEvents": [span(1, -1, 0, 1), span(1, -1, 2, 1)]})

    def test_rejects_invalid_json(self):
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
            f.write('{"traceEvents": [')
        try:
            with self.assertRaises(ValueError):
                stats.validate_trace_file(f.name)
        finally:
            os.unlink(f.name)


class TraceWriter(unittest.TestCase):
    def test_selftest_trace_is_valid_and_nested(self):
        binary = run.build()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.json")
            subprocess.run([binary, "--trace-selftest", path], check=True)
            self.assertEqual(stats.validate_trace_file(path), 9)
            with open(path, encoding="utf-8") as f:
                events = json.load(f)["traceEvents"]
        names = {e["args"]["id"]: e["name"] for e in events}
        self.assertEqual(names[0], 'root "quoted" \\ back')
        self.assertEqual(names[1], "child\t0")
        parents = {e["name"]: e["args"]["parent"] for e in events}
        self.assertEqual(parents["second root"], -1)
        self.assertEqual(names[parents["inner"]], "second root")


class BenchmarkJson(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in bench["workloads"]), run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
