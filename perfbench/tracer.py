"""Outside-in tracing of blockroll, from the benchmark's own files.

A Tracer replaces the public callables at each module boundary with
wrappers that time each call. When a span closes, its duration is added to
its name's total and self time and taken off the enclosing span's self time,
so a span's self time is its duration minus the durations of its direct
children. Everything stays in memory; nothing is written until the run ends.

The module name is the layer name. STEP_ONLY is the clock of the untraced
runs: it wraps Rollout.step alone, so they pay one extra call per block and
nothing else.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import blockroll.cli as cli
import blockroll.denoisers as denoisers
import blockroll.engine as engine
from blockroll.denoisers import (
    AnalyticGaussianDenoiser,
    ContextMeanDenoiser,
    TinyAttentionDenoiser,
)
from blockroll.engine import HistoryStore, Rollout
from blockroll.sampler import NoiseSource

STEP = "engine.step"

# Spans that run only inside Rollout.step: their self times add up to the
# step spans' durations.
IN_STEP = (
    STEP, "engine.store_get", "engine.store_put",
    "schedule.schedule_for", "schedule.frame_expand",
    "sampler.noise_source", "sampler.draw", "sampler.sample_block",
    "denoisers.estimate", "rope.rotate",
)


class Tracer:
    """Per span name: calls, total seconds and self seconds, updated as each
    span closes, plus the durations of the STEP spans since take_steps()."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.steps: list[float] = []
        self._open: list[float] = []  # per open span, its children's time so far
        self.sums: dict[str, int] = defaultdict(int)  # summed per-call observations
        self.peaks: dict[str, int] = defaultdict(int)  # largest per-call observation

    def wrap(self, name: str, fn, observe=None):
        acc = self.spans.setdefault(name, [0, 0.0, 0.0])
        opened = self._open
        steps = self.steps if name == STEP else None

        def traced(*args, **kwargs):
            opened.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                children = opened.pop()
                if opened:
                    opened[-1] += dur
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - children
                if steps is not None:
                    steps.append(dur)
            if observe is not None:
                observe(args)
            return result

        return traced

    @contextmanager
    def installed(self, boundaries):
        """Wrap each (owner, attribute, span name, observe) for the duration of
        the block; owners are modules, classes or dicts. Always restores."""
        originals = []
        try:
            for owner, attr, name, observe in boundaries:
                if isinstance(owner, dict):
                    fn = owner[attr]
                    owner[attr] = self.wrap(name, fn, observe)
                else:
                    fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                    setattr(owner, attr, self.wrap(name, fn, observe))
                originals.append((owner, attr, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                if isinstance(owner, dict):
                    owner[attr] = fn
                else:
                    setattr(owner, attr, fn)

    def take_steps(self) -> np.ndarray:
        """Durations in seconds of the STEP spans closed since the last call."""
        steps = np.array(self.steps)
        self.steps.clear()
        return steps

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        return {name: {"calls": calls, "total_s": total, "self_s": own}
                for name, (calls, total, own) in self.spans.items()}


def wrapper_cost(calls: int = 20_000) -> float:
    """Seconds one wrapped call adds to its caller's time, net of the call
    itself: wrapped no-op methods of one to three arguments, nested in a
    wrapped span as the in-step boundaries are, against the bare methods."""

    class Probe:
        def one(self):
            return None

        def two(self, a):
            return None

        def three(self, a, b):
            return None

    probe, tracer = Probe(), Tracer()
    one, two, three = (tracer.wrap(f"probe.{name}", Probe.__dict__[name])
                       for name in ("one", "two", "three"))

    def wrapped():
        t0 = perf_counter()
        for _ in range(calls // 3):
            one(probe)
            two(probe, 1)
            three(probe, 1, 2)
        return perf_counter() - t0

    def bare():
        t0 = perf_counter()
        for _ in range(calls // 3):
            probe.one()
            probe.two(1)
            probe.three(1, 2)
        return perf_counter() - t0

    return (tracer.wrap("probe.outer", wrapped)() - bare()) / (calls // 3 * 3)


STEP_ONLY = [(Rollout, "step", STEP, None)]


def all_layers(tracer: Tracer):
    """Every boundary the per-layer metrics read, observing into `tracer`."""
    sums, peaks = tracer.sums, tracer.peaks

    def count_context(args):
        sums["context_frames"] += len(args[3])

    def count_rows(args):
        v = args[1]
        sums["rotated_rows"] += v.size // v.shape[-1]

    def note_retained(args):
        peaks["peak_retained"] = max(peaks["peak_retained"], args[0].peak_retained)

    def note_records(args):
        peaks["records_retained"] = max(peaks["records_retained"], len(args[0].records))

    return [
        (Rollout, "step", STEP, note_records),
        (HistoryStore, "get", "engine.store_get", None),
        (HistoryStore, "put", "engine.store_put", note_retained),
        (engine, "schedule_for", "schedule.schedule_for", None),
        (engine, "frame_expand", "schedule.frame_expand", None),
        (engine, "sample_block", "sampler.sample_block", None),
        (NoiseSource, "__init__", "sampler.noise_source", None),
        (NoiseSource, "standard_normal", "sampler.draw", None),
        (AnalyticGaussianDenoiser, "estimate", "denoisers.estimate", count_context),
        (ContextMeanDenoiser, "estimate", "denoisers.estimate", count_context),
        (TinyAttentionDenoiser, "estimate", "denoisers.estimate", count_context),
        (denoisers, "rotate", "rope.rotate", count_rows),
        (cli.METRICS, "mean_drift", "metrics.mean_drift", None),
        (cli.METRICS, "flicker_proxy", "metrics.flicker_proxy", None),
        (cli.METRICS, "repetition_score", "metrics.repetition_score", None),
        (cli, "repetition_score", "metrics.repetition_score", None),
        (cli, "parse_config_text", "cli.parse_config_text", None),
        (cli, "write_trace", "cli.write_trace", None),
        (cli, "read_trace", "cli.read_trace", None),
    ]
