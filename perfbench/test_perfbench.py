"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root with either of

    python3 -m unittest discover -s perfbench
    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracing import LAYER_UNITS, Span, Tracer, layer_metrics, self_times, tail_percentile  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            Span(0, "root", 0.0, 10.0, -1),
            Span(0, "a", 1.0, 4.0, 0),
            Span(0, "b", 2.0, 3.5, 1),
            Span(0, "a", 5.0, 7.0, 0),
            Span(0, "b", 5.5, 6.0, 3),
        ]
        self.assertEqual(self_times(spans), [5.0, 1.5, 1.5, 1.5, 0.5])

    def test_repeated_spans_sum_per_run_and_take_median_over_runs(self):
        spans = []
        for run_index, (grad_each, calls) in enumerate([(1.0, 2), (2.0, 2), (4.0, 2)]):
            base = 100.0 * run_index
            spans.append(Span(run_index, "harness.loop", base, base + 50.0, -1))
            root = len(spans) - 1
            for k in range(calls):
                start = base + 10.0 * k
                spans.append(Span(run_index, "learner.grad", start, start + grad_each, root))
        out = layer_metrics(spans, {}, runs=3)
        self.assertEqual(out["learner.grad.calls"], 2)
        self.assertEqual(out["learner.grad.self_s"], 4.0)  # median of 2, 4, 8
        self.assertEqual(out["harness.loop.self_s"], 46.0)  # median of 48, 46, 42
        self.assertAlmostEqual(out["learner.grad.us_per_call"], 1e6 * 14.0 / 6)

    def test_wrapper_records_nesting_and_survives_exceptions(self):
        tracer = Tracer()
        tracer.begin_run()

        def fail():
            raise ValueError("boom")

        inner = tracer.wrap(lambda: 1, "inner")
        failing = tracer.wrap(fail, "failing")

        def outer_body():
            inner()
            with self.assertRaises(ValueError):
                failing()
            return inner()

        self.assertEqual(tracer.wrap(outer_body, "outer")(), 1)
        names = [(s.name, s.parent) for s in tracer.spans]
        self.assertEqual(names, [("outer", -1), ("inner", 0), ("failing", 0), ("inner", 0)])
        self.assertEqual(tracer._stack, [])


class PercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(tail_percentile([float(i) for i in range(1, 101)]), (90.0, 90.0))
        self.assertEqual(tail_percentile([float(i) for i in range(1, 1001)]), (99.0, 990.0))
        self.assertEqual(tail_percentile([float(i) for i in range(1, 10001)]), (99.9, 9990.0))
        self.assertEqual(tail_percentile([float(i) for i in range(1, 100)])[0], 50.0)

    def test_small_samples_fall_back_to_median(self):
        self.assertEqual(tail_percentile([3.0, 1.0, 2.0]), (50.0, 2.0))
        self.assertEqual(tail_percentile([]), (0.0, 0.0))

    def test_sample_count_is_reported(self):
        spans = [Span(0, "fed.round", float(i), i + 0.5, -1) for i in range(30)]
        out = layer_metrics(spans, {}, runs=1)
        self.assertEqual(out["fed.round_ms_n"], 30)
        self.assertEqual(out["fed.round_ms_tail_pct"], 50.0)
        self.assertAlmostEqual(out["fed.round_ms_p50"], 500.0)


class ZeroCallTest(unittest.TestCase):
    def test_every_layer_metric_is_present_and_zero_without_calls(self):
        for runs in (0, 2):
            out = layer_metrics([], {}, runs=runs)
            self.assertEqual(list(out), list(LAYER_UNITS))
            self.assertTrue(all(v == 0 for v in out.values()), out)


CSV = ("round,train_loss,test_accuracy,cumulative_uplink_bits,active_count,dropped_count\n"
       "0,2.3,0.1,0,0,0\n"
       "5,0.5,0.9,1000,5,0\n")
BAND = {"test_accuracy": [0.8, 1.0], "cumulative_uplink_bits": [900, 1100]}


class FailureCountingTest(unittest.TestCase):
    def test_check_csv(self):
        self.assertIsNone(run.check_csv(CSV, None, BAND))
        self.assertIsNone(run.check_csv(CSV, CSV, BAND))
        self.assertIn("differs", run.check_csv(CSV, CSV.replace("0.5", "0.50001"), BAND))
        self.assertIn("test_accuracy", run.check_csv(CSV.replace("0.9,", "0.7,"), None, BAND))
        self.assertIn("cumulative_uplink_bits", run.check_csv(CSV.replace("1000", "2000"), None, BAND))

    def test_outcome_counts_raises_and_failed_checks(self):
        outcome = run.Outcome()

        def boom():
            raise FloatingPointError("diverged")

        self.assertEqual(outcome.attempt("ok", lambda: 1, lambda r: None), 1)
        self.assertIsNone(outcome.attempt("raises", boom, lambda r: None))
        self.assertEqual(outcome.attempt("wrong", lambda: 2, lambda r: "bad"), 2)
        self.assertEqual((outcome.attempted, outcome.failed), (3, 2))
        result = run.result_line(outcome, {"run_s": 1.0}, {"run_s": "s"})
        self.assertEqual((result["correct"], result["attempted"], result["failed"]), (False, 3, 2))


class BenchmarkFileTest(unittest.TestCase):
    def test_names_match_what_the_benchmark_reports(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER_UNITS)
        self.assertEqual(set(run.load_reference()), set(run.WORKLOADS))


class TracedRunTest(unittest.TestCase):
    """Shortened workloads: tracing must leave the metrics CSV byte-identical."""

    ROUNDS = {"wireless_alloc": 3, "cohort_mlp": 2, "scaffold_hlu": 20}

    def test_traced_csv_equals_untraced_and_wrappers_are_removed(self):
        from fedsim import harness, learner
        original_grad = learner.grad
        for name, rounds in self.ROUNDS.items():
            with self.subTest(workload=name), tempfile.TemporaryDirectory() as tmp:
                def run_once(out):
                    cfg = harness.ExperimentConfig.from_json(
                        json.dumps(run.workload_config(name, seed=1, rounds=rounds)))
                    cfg.out = str(Path(tmp) / out)
                    harness.run_experiment(cfg)
                    return Path(cfg.out).read_text()

                plain = run_once("plain.csv")
                tracer = Tracer()
                with tracer.installed():
                    tracer.begin_run()
                    traced = run_once("traced.csv")
                self.assertEqual(plain, traced)
                out = layer_metrics(tracer.spans, tracer.counters, runs=1)
                self.assertGreater(out["learner.grad.calls"], 0)
                self.assertGreater(out["harness.loop.self_s"], 0)
                self.assertEqual(sum(s.name == "fed.round" for s in tracer.spans), rounds)
                self.assertIs(learner.grad, original_grad)


if __name__ == "__main__":
    unittest.main()
