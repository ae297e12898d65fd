"""Self-test of the benchmark harness; run from the repository root:

    python3 perfbench/selftest.py

It shows that the judges count a tampered verdict, a non-replaying counterexample,
a corrupted picture digest and a wall-clock stop as failed, and that the tracer
counts from return values, survives a missing name and restores every binding.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import unittest

import run
import spans
import workloads as W

sys.path.insert(0, str(run.ROOT / "src"))
rn = run.fresh_import()
SCRATCH = run.OUT / "selftest"
C2, C3, C5 = (W.complete_chain(rn, k) for k in (2, 3, 5))


class JudgeTests(unittest.TestCase):
    def test_tampered_verdict_is_failed(self):
        job = W.arrow_job(rn, 5, 3, 2, 2, "fails")
        verdict, replay = job.run()
        self.assertEqual(job.judge((verdict, replay))[0], W.OK)
        tampered = dataclasses.replace(verdict, holds=True, counterexample=None)
        self.assertEqual(job.judge((tampered, None))[0], W.FAILED)

    def test_non_replaying_counterexample_is_failed(self):
        job = W.arrow_job(rn, 5, 3, 2, 2, "fails")
        verdict, _ = job.run()
        copies = rn.enumerate_copies(C2, C5)
        constant = rn.make_coloring(copies, [0] * len(copies), 2)
        forged = dataclasses.replace(verdict, counterexample=constant)
        self.assertEqual(job.judge((forged, None))[0], W.FAILED)

    def test_corrupted_picture_digest_is_failed(self):
        runs = SCRATCH / "runs"
        run.reset(runs)
        job = W.recursion(rn, 0, SCRATCH / "inputs", runs)[4]
        construction, digest, back = job.run()
        self.assertEqual(job.judge((construction, digest, back))[0], W.EXHAUSTED)
        self.assertEqual(job.judge((construction, "0" * 64, back))[0], W.FAILED)

    def test_only_count_ceilings_are_exhausted(self):
        node_stop = rn.ResourceExceeded("arrow search node budget (2000000)")
        clock_stop = rn.ResourceExceeded("arrow search time budget after 4096 nodes")
        self.assertEqual(W.ceiling(rn, node_stop)[0], W.EXHAUSTED)
        self.assertEqual(W.ceiling(rn, clock_stop)[0], W.FAILED)
        self.assertEqual(W.ceiling(rn, ValueError("bad input"))[0], W.FAILED)
        self.assertEqual(W.cli_ceiling(2, "", "RESOURCE: search time budget (60.0s) exhausted\n")[0],
                         W.FAILED)
        self.assertEqual(W.cli_ceiling(2, "", "RESOURCE: candidate budget (60000) exhausted\n")[0],
                         W.EXHAUSTED)


class TracerTests(unittest.TestCase):
    def test_counts_and_restores_bindings(self):
        originals = (rn.embeddings.iter_copies, rn.arrow.enumerate_copies, rn.check_arrow)
        tracer = spans.Tracer()
        missing = tracer.install()
        try:
            self.assertIsNot(rn.arrow.enumerate_copies, originals[1])
            rn.check_arrow(C5, C3, C2, 2)
            next(rn.iter_copies(C2, C5))  # a generator closed after one item
        finally:
            tracer.uninstall()
        self.assertEqual(missing, [])
        self.assertEqual(
            (rn.embeddings.iter_copies, rn.arrow.enumerate_copies, rn.check_arrow), originals
        )
        metrics, layers = spans.summarize(tracer)
        self.assertEqual(metrics["arrow.check_calls"], 1)
        self.assertEqual(metrics["arrow.fails"], 1)
        self.assertEqual(metrics["arrow.search_nodes"], 67)
        # C2 in C5, C3 in C5, C2 in C3, then one copy before the early close
        self.assertEqual(metrics["embeddings.copies"], 10 + 10 + 3 + 1)
        self.assertEqual(metrics["embeddings.enum_calls"], 4)
        self.assertGreater(layers["arrow"], 0.0)

    def test_missing_name_is_reported(self):
        saved = spans.WRAPPED
        spans.WRAPPED = {**saved, "arrow": saved["arrow"] + ("no_such_function",)}
        tracer = spans.Tracer()
        try:
            missing = tracer.install()
        finally:
            tracer.uninstall()
            spans.WRAPPED = saved
        self.assertEqual(missing, ["arrow.no_such_function"])


class BenchmarkFileTests(unittest.TestCase):
    def test_per_layer_metrics_match_benchmark_json(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        declared = {m["name"]: m["unit"] for m in doc["per_layer"]}
        metrics, _ = spans.summarize(spans.Tracer())
        produced = {key: run.unit_of(key) for key in [*metrics, "trace_overhead"]}
        self.assertEqual(produced, declared)


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
