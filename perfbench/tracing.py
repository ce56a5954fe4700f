"""Per-layer tracing of fedsim from outside the package.

The traced run replaces selected module attributes of ``fedsim`` with
wrappers that record one span per call. Every call site inside fedsim looks
these targets up through the module attribute at call time, so the wrappers
see the calls without any change to the package. Spans stay in memory; self
time (a span's duration minus the durations of its direct children) and the
per-layer metrics are computed after the runs.

The wrappers only read the clock and the arguments and results of the
calls: they draw no random numbers and touch no floats on the compute path,
so a traced run writes the same metrics CSV as an untraced one.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple

ROOT = "harness.loop"


class Span(NamedTuple):
    run: int      # index of the traced run the span belongs to
    name: str     # layer name, e.g. "learner.grad"
    start: float  # perf_counter seconds
    end: float
    parent: int   # index of the enclosing span in the span list, -1 for none


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _observe_alloc(tracer, args, kwargs, sol) -> None:
    offered = _first_arg(args, kwargs).num_devices
    tracer.count("alloc.offered", offered)
    tracer.count("alloc.kept", offered - len(sol.dropped))
    tracer.peak("alloc.kkt_residual_max", sol.kkt_residual)


def _observe_round(tracer, args, kwargs, result) -> None:
    report = result[1]
    tracer.count("fed.computed", len(report.active_ids))
    tracer.count("fed.delivered", len(report.delivered_ids))


def _observe_quantize(tracer, args, kwargs, result) -> None:
    tracer.count("quantizer.elements", _first_arg(args, kwargs).size)


# (fedsim module, attribute, span name, observer of args and result).
# The three round functions share one layer, "fed.round".
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("harness", "run_experiment", ROOT, None),
    ("harness", "evaluate", "harness.evaluate", None),
    ("data", "make_synth_task", "data.make_synth_task", None),
    ("data", "shard_partition", "data.shard_partition", None),
    ("data", "load_mnist_idx", "data.load_mnist_idx", None),
    ("alloc", "solve_alloc", "alloc.solve_alloc", _observe_alloc),
    ("wireless", "sample_channel", "wireless.sample_channel", None),
    ("wireless", "transmission_ok", "wireless.transmission_ok", None),
    ("fed", "run_round_fedqvr", "fed.round", _observe_round),
    ("fed", "run_round_fedavg", "fed.round", _observe_round),
    ("fed", "run_round_scaffold", "fed.round", _observe_round),
    ("fed", "local_update", "fed.local_update", None),
    ("fed", "client_finish", "fed.client_finish", None),
    ("fed", "server_aggregate", "fed.server_aggregate", None),
    ("learner", "loss", "learner.loss", None),
    ("learner", "stochastic_grad", "learner.stochastic_grad", None),
    ("learner", "grad", "learner.grad", None),
    ("quantizer", "quantize", "quantizer.quantize", _observe_quantize),
    ("quantizer", "dequantize", "quantizer.dequantize", None),
]


class Tracer:
    """Records spans and counters in memory for a sequence of traced runs."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run = -1
        self._stack: list[int] = []

    def begin_run(self) -> None:
        self.run += 1

    def count(self, name: str, amount: float) -> None:
        self.counters[name] += amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters[name], value)

    def wrap(self, fn: Callable, name: str, observe: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(self.run, name, start, end, parent)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target that exists in fedsim; restore on exit."""
        saved = []
        try:
            for module_name, attr, name, observe in TARGETS:
                module = importlib.import_module(f"fedsim.{module_name}")
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name, observe))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest, so children never overlap and the
    covered part of a span is the sum of its children's durations.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


TAIL_CANDIDATES = (50.0, 90.0, 99.0, 99.9)


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest candidate percentile that has at least
    ten samples above it, using the nearest-rank rule. With fewer than 20
    samples no candidate qualifies and the median is returned as p50.
    """
    if not samples:
        return 0.0, 0.0
    ordered = sorted(samples)
    n = len(ordered)

    def rank(pct: float) -> int:  # nearest rank, in integers to avoid rounding
        return max(1, -(-round(pct * 10) * n // 1000))

    chosen = TAIL_CANDIDATES[0]
    for pct in TAIL_CANDIDATES:
        if n - rank(pct) >= 10:
            chosen = pct
    return chosen, ordered[rank(chosen) - 1]


# name -> unit, in the order they are reported. Layers that made no call
# report 0, so every name is always present.
LAYER_UNITS: dict[str, str] = {
    "alloc.solve_alloc.calls": "count",
    "alloc.solve_alloc.self_s": "s",
    "alloc.solve_ms_p50": "ms",
    "alloc.solve_ms_tail": "ms",
    "alloc.solve_ms_tail_pct": "%",
    "alloc.solve_ms_n": "count",
    "alloc.kept_ratio": "ratio",
    "alloc.kkt_residual_max": "1",
    "learner.grad.calls": "count",
    "learner.grad.self_s": "s",
    "learner.grad.us_per_call": "us",
    "learner.stochastic_grad.self_s": "s",
    "learner.loss.self_s": "s",
    "fed.local_update.calls": "count",
    "fed.local_update.self_s": "s",
    "fed.client_finish.self_s": "s",
    "fed.server_aggregate.calls": "count",
    "fed.server_aggregate.self_s": "s",
    "fed.round.self_s": "s",
    "fed.round_ms_p50": "ms",
    "fed.round_ms_tail": "ms",
    "fed.round_ms_tail_pct": "%",
    "fed.round_ms_n": "count",
    "fed.delivered_ratio": "ratio",
    "quantizer.quantize.calls": "count",
    "quantizer.quantize.self_s": "s",
    "quantizer.quantize.elements_per_s": "1/s",
    "quantizer.dequantize.self_s": "s",
    "wireless.sample_channel.calls": "count",
    "wireless.sample_channel.self_s": "s",
    "wireless.transmission_ok.calls": "count",
    "wireless.transmission_ok.self_s": "s",
    "data.make_synth_task.self_s": "s",
    "data.shard_partition.self_s": "s",
    "harness.evaluate.calls": "count",
    "harness.evaluate.self_s": "s",
    "harness.loop.self_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], counters: dict[str, float], runs: int) -> dict[str, float]:
    """Per-layer metrics over ``runs`` traced runs.

    ``.calls`` and ``.self_s`` are medians over runs of the per-run totals;
    per-call rates and ratios pool all runs; ``_ms_*`` percentiles pool the
    span durations of all runs.
    """
    selfs = self_times(spans)
    self_by_run: dict[str, list[float]] = defaultdict(lambda: [0.0] * runs)
    calls_by_run: dict[str, list[int]] = defaultdict(lambda: [0] * runs)
    durations: dict[str, list[float]] = defaultdict(list)
    for span, own in zip(spans, selfs):
        self_by_run[span.name][span.run] += own
        calls_by_run[span.name][span.run] += 1
        durations[span.name].append(span.end - span.start)

    def self_s(name):
        return statistics.median(self_by_run[name]) if runs else 0.0

    def calls(name):
        return statistics.median(calls_by_run[name]) if runs else 0

    def ms_stats(name):
        ms = [1e3 * d for d in durations[name]]
        pct, tail = tail_percentile(ms)
        return statistics.median(ms) if ms else 0.0, tail, pct, len(ms)

    out: dict[str, float] = {}
    for name in LAYER_UNITS:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls(layer)
        elif kind == "self_s":
            out[name] = self_s(layer)
    for prefix, layer in (("alloc.solve_ms", "alloc.solve_alloc"), ("fed.round_ms", "fed.round")):
        p50, tail, pct, n = ms_stats(layer)
        out.update({f"{prefix}_p50": p50, f"{prefix}_tail": tail,
                    f"{prefix}_tail_pct": pct, f"{prefix}_n": n})
    grad_total = sum(self_by_run["learner.grad"])
    out["learner.grad.us_per_call"] = 1e6 * _ratio(grad_total, sum(calls_by_run["learner.grad"]))
    out["quantizer.quantize.elements_per_s"] = _ratio(
        counters.get("quantizer.elements", 0.0), sum(self_by_run["quantizer.quantize"]))
    out["alloc.kept_ratio"] = _ratio(counters.get("alloc.kept", 0.0), counters.get("alloc.offered", 0.0))
    out["alloc.kkt_residual_max"] = counters.get("alloc.kkt_residual_max", 0.0)
    out["fed.delivered_ratio"] = _ratio(counters.get("fed.delivered", 0.0), counters.get("fed.computed", 0.0))
    return {name: out[name] for name in LAYER_UNITS}
