"""Self-test of the benchmark itself (not of pncalc).

    python3 perfbench/selftest.py

Checks that a seed fully determines the inputs, that self time comes out
right on a synthetic span tree, the tail-percentile rule, that tracing puts
every original function back, and that BENCHMARK.json names only metrics
the harness produces.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import instrument  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            for workload in workloads.WORKLOADS:
                digests = []
                for name, seed in (("a", 7), ("b", 7), ("c", 8)):
                    inputs = os.path.join(tmp, workload + name)
                    jobs = workloads.generate(workload, seed, 1, inputs)
                    digests.append(workloads.inputs_digest(inputs))
                self.assertEqual(digests[0], digests[1], workload)
                self.assertNotEqual(digests[0], digests[2], workload)
                self.assertGreaterEqual(len(jobs), harness.TAIL_BEYOND + 1, workload)

    def test_cmat_round_trip(self):
        import numpy as np
        from pncalc.linalg import read_cmat

        m = np.random.default_rng(1).normal(size=(3, 4)) * (1 + 1e-13j) / 7
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            path = os.path.join(tmp, "m.cmat")
            workloads.write_cmat(path, m)
            self.assertTrue(np.array_equal(read_cmat(path), m))
            self.assertTrue(np.array_equal(workloads.read_cmat(path), m))


def _span(name, parent, start, end, job=0):
    return spans.Span(name, job, parent, start, end)


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0,10] with children A [1,4] and B [5,9]; B has C [6,8]
        tree = [_span("root", -1, 0.0, 10.0), _span("A", 0, 1.0, 4.0),
                _span("B", 0, 5.0, 9.0), _span("C", 2, 6.0, 8.0),
                _span("other-job", -1, 20.0, 21.0, job=1)]
        self.assertEqual(spans.self_times(tree), [3.0, 3.0, 2.0, 2.0, 1.0])
        self.assertEqual(spans.self_by_job(tree), {0: 10.0, 1: 1.0})
        self.assertEqual(spans.self_by_name(tree)["B"], 2.0)

    def test_overlapping_children_counted_once(self):
        tree = [_span("root", -1, 0.0, 10.0), _span("A", 0, 1.0, 6.0),
                _span("B", 0, 4.0, 8.0), _span("C", 0, 9.0, 12.0)]
        # union of children inside the root: [1,8] and [9,10]
        self.assertEqual(spans.self_times(tree)[0], 2.0)

    def test_recorder_nesting(self):
        rec = spans.Recorder()
        rec.job = 3
        outer = rec.enter("outer")
        inner = rec.enter("inner")
        rec.exit(inner)
        rec.exit(outer)
        self.assertEqual([s.parent for s in rec.spans], [-1, 0])
        self.assertTrue(all(s.job == 3 for s in rec.spans))
        total = sum(spans.self_times(rec.spans))
        self.assertAlmostEqual(total, rec.spans[0].end - rec.spans[0].start, places=12)


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        value, pct = harness.tail([float(v) for v in range(1, 101)])
        self.assertEqual((value, pct), (90.0, 90))
        value, pct = harness.tail([float(v) for v in range(1, 37)])
        self.assertEqual(pct, 72)
        self.assertEqual(sum(v > value for v in range(1, 37)), 10)


class Instrumentation(unittest.TestCase):
    def test_install_and_uninstall(self):
        from pncalc import approx, calculus, cli, functions, linalg, spectra

        before = (linalg.eig, spectra.eig, calculus.decompose, approx.dunford,
                  cli.spectra.decompose, functions.AnalyticFunction.__call__)
        rec = spans.Recorder()
        uninstall = instrument.install(rec)
        try:
            self.assertIsNot(spectra.eig, before[1])
            self.assertIs(spectra.eig, linalg.eig)
            f = functions.parse_function("exp(z1)")
            spectra.decompose([[1.0, 1.0], [0.0, 2.0]])
            f(0.5)
        finally:
            uninstall()
        after = (linalg.eig, spectra.eig, calculus.decompose, approx.dunford,
                 cli.spectra.decompose, functions.AnalyticFunction.__call__)
        self.assertEqual([a is b for a, b in zip(before, after)], [True] * 6)
        self.assertEqual(rec.counts["spectra.decompose.calls"], 1)
        self.assertEqual(rec.counts["spectra.decompose.components"], 2)
        self.assertGreaterEqual(rec.counts["linalg.resolvent_at_nodes.node_solves"], 256)
        names = {s.name for s in rec.spans}
        self.assertIn("spectra.riesz_projector", names)
        self.assertIn("functions.eval", names)


class Declaration(unittest.TestCase):
    def test_benchmark_json_names_produced_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        produced = set(harness.LAYER_METRICS) | {"trace.overhead_ratio",
                                                 "trace.unattributed_s"}
        for m in spec["per_layer"]:
            self.assertIn(m["name"], produced)


if __name__ == "__main__":
    unittest.main()
