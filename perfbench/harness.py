"""The measurement loop behind run.py: units, checks, fresh processes, metrics.

This module imports blockroll, so run.py imports it only after putting the
checkout's src/ tree first on sys.path.
"""

from __future__ import annotations

import json
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import calibrate
import tracer
import units
from spec import Spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Fresh set-up children per run; setup_s is their median.
SETUP_SAMPLES = 25
# Blocks per window of the step-latency percentiles. 100 blocks leave ten
# samples above the p90.
WINDOW = 100
CHILD_TIMEOUT_S = 150
# Largest |residual| of the traced run's time accounting: the traced step
# time, less the calibrated cost of its nested wrappers, over the untraced
# step time, minus 1. A wrapper costs more inside a step than in the tight
# calibration loop, so the residual sits above 0: +0.02 to +0.10 in 8-s runs
# on a 2-CPU x86 host (README.md, "Per-layer metrics").
ACCOUNTING_TOLERANCE = 0.2

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Per-layer metrics sampled once per unit; the others once per traced block.
PER_UNIT = ("metrics.", "cli.", "engine.peak_retained", "engine.records_retained")


def listed(kind: str, values: dict, samples) -> dict:
    """The `kind` metrics ("end_to_end" or "per_layer") BENCHMARK.json lists,
    in its order and with its units; samples(name) gives each sample count."""
    missing = [m["name"] for m in BENCHMARK[kind] if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {', '.join(missing)}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"],
                        "samples": samples(m["name"])}
            for m in BENCHMARK[kind]}


class Bench:
    """One run: the unit's spec and work directory, its oracle, and the tally
    of checked operations (units, the fresh-process unit, failed children)."""

    def __init__(self, spec: Spec, scale: float, workdir: Path):
        self.spec = spec
        self.scale = scale
        self.workdir = workdir
        self.oracle = units.Oracle(spec)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems[: max(0, 10 - len(self.problems))]

    def run_unit(self) -> float | None:
        """Run and check one unit; returns its wall seconds, None if it raised."""
        start = perf_counter()
        try:
            rollout = units.run_unit(self.spec, self.workdir)
        except Exception:  # a failing unit is counted and the run goes on
            self.record([traceback.format_exc(limit=3)])
            return None
        wall = perf_counter() - start
        self.record(self.oracle.check(rollout, self.workdir))
        return wall

    def run_for(self, seconds: float, phases, after_round=None) -> list[list]:
        """Closed loop: units back to back until `seconds` have passed. Each
        round runs one unit under each (tracer, boundaries) phase in turn, so
        the phases see the same machine conditions, then calls after_round().
        A calibration point (calibrate.py) is taken before the first unit and
        after each one. Returns, per phase, (wall seconds, Rollout.step
        durations, host-speed scale from the points either side) of each unit
        that completed."""
        done: list[list] = [[] for _ in phases]
        deadline = perf_counter() + seconds
        rounds = 0
        before = calibrate.point()
        while rounds == 0 or perf_counter() < deadline:
            rounds += 1
            for (clock, boundaries), phase_units in zip(phases, done):
                with clock.installed(boundaries):
                    wall = self.run_unit()
                steps = clock.take_steps()
                after = calibrate.point()
                if wall is not None:
                    phase_units.append((wall, steps, calibrate.scale(before, after)))
                before = after
            if after_round is not None:
                after_round()
        return done

    def child(self, mode: str) -> dict | None:
        """Run child.py in a fresh interpreter; its JSON line, or None (recorded
        as a failure) if it failed."""
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "child.py"), mode, self.spec.workload,
                 str(self.spec.seed), repr(self.scale), str(self.workdir)],
                cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            if done.returncode == 0:
                return json.loads(done.stdout.strip().splitlines()[-1])
            problem = f"{mode} child exited {done.returncode}: {done.stderr[-400:]}"
        except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            problem = f"{mode} child: {exc!r}"
        self.record([problem])
        return None

    def no_measurement(self) -> RuntimeError:
        return RuntimeError("no measurement: " + "; ".join(self.problems))


def timed_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, with only the step clock installed. Every timing
    is put on the reference host speed (calibrate.py) before it is pooled."""
    children: list[dict | None] = []

    def spread_setups():
        if len(children) < SETUP_SAMPLES * (perf_counter() - start) / seconds:
            children.append(bench.child("setup"))

    bench.run_unit()  # warm-up, checked but not timed
    clock = tracer.Tracer()
    start = perf_counter()
    [done] = bench.run_for(seconds, [(clock, tracer.STEP_ONLY)], after_round=spread_setups)
    while len(children) < SETUP_SAMPLES:
        children.append(bench.child("setup"))
    setups = [child for child in children if child is not None]
    rss = bench.child("rss")
    if rss is not None:
        bench.record(bench.oracle.check_digest(rss["digest"]))
    if not setups or not done or rss is None:
        raise bench.no_measurement()

    walls = [wall * scale for wall, _, scale in done]
    rates = [len(steps) / (steps.sum() * scale) for _, steps, scale in done]
    # Per WINDOW-block window, its step-latency percentiles; the run reports
    # their median. A burst shorter than a unit slows some of its blocks and
    # not the calibration points around the unit, so it stretches the tail
    # of the windows it hits; the median window is one it missed.
    per_window = np.array([np.percentile(steps[i:i + WINDOW] * scale, (50, 90))
                           for _, steps, scale in done
                           for i in range(0, max(len(steps) - WINDOW, 0) + 1, WINDOW)])
    pooled = np.concatenate([steps * scale for _, steps, scale in done])
    values = {
        "setup_s": np.median([c["setup_s"] * calibrate.scale(c["kernel_s"]) for c in setups]),
        "wall_s": np.median(walls),
        "steps_per_s": np.median(rates),
        "step_us_p50": np.median(per_window[:, 0]) * 1e6,
        "step_us_p90": np.median(per_window[:, 1]) * 1e6,
        "peak_rss_mb": rss["maxrss_kb"] / 1024,
    }
    samples = {"setup_s": len(setups), "step_us_p50": len(per_window),
               "step_us_p90": len(per_window), "peak_rss_mb": 1}
    metrics = listed("end_to_end", values, lambda name: samples.get(name, len(done)))
    scales = [scale for _, _, scale in done]
    return metrics, {
        "host_scale": {"median": float(np.median(scales)), "min": min(scales),
                       "max": max(scales)},
        "raw": {"setup_s": float(np.median([c["setup_s"] for c in setups])),
                "wall_s": float(np.median([wall for wall, _, _ in done]))},
        "pooled": {"steps": len(pooled),
                   **{f"step_us_p{q}": float(np.percentile(pooled, q) * 1e6) for q in (50, 90, 99)}},
    }


def traced_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics: units with only the step clock alternate with units
    with every layer boundary wrapped."""
    bench.run_unit()  # warm-up, checked but not timed
    clock, full = tracer.Tracer(), tracer.Tracer()
    phases = [(clock, tracer.STEP_ONLY), (full, tracer.all_layers(full))]
    costs: list[float] = []
    plain, traced = bench.run_for(seconds, phases,
                                  after_round=lambda: costs.append(tracer.wrapper_cost()))
    spans = full.summary()
    if not plain or not traced or tracer.STEP not in spans:
        raise bench.no_measurement()

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def own(name):
        return spans.get(name, {}).get("self_s", 0.0)

    steps, n_units = calls(tracer.STEP), len(traced)
    nested = sum(calls(name) for name in tracer.IN_STEP if name != tracer.STEP) / steps
    # Per round, the traced and the untraced unit ran back to back under the
    # same load; their mean step times and that round's wrapper cost pair up.
    ratios, residuals = [], []
    for (_, bare, _), (_, wrapped, _), cost in zip(plain, traced, costs):
        ratios.append(wrapped.mean() / bare.mean())
        residuals.append((wrapped.mean() - nested * cost) / bare.mean() - 1.0)
    # Time accounting. The in-step spans' self times must add up to the traced
    # step time (fails when a nested boundary is missing from IN_STEP or a span
    # is counted twice), and the traced step time, less what its nested
    # wrappers cost, must be the untraced step time (fails when tracing
    # changes the work a step does).
    step_total = total(tracer.STEP)
    in_step_self = sum(own(name) for name in tracer.IN_STEP)
    residual = float(np.median(residuals))
    problems = []
    if abs(in_step_self - step_total) > 1e-6 * step_total:
        problems.append(f"in-step self times {in_step_self} s != step time {step_total} s")
    if abs(residual) > ACCOUNTING_TOLERANCE:
        problems.append(f"traced step less wrapper costs is {residual:+.3f} of the untraced "
                        f"step time (tolerance {ACCOUNTING_TOLERANCE})")
    bench.record(problems)

    n_estimates = calls("denoisers.estimate")
    n_parses = calls("cli.parse_config_text")
    trace_bytes = (0 if bench.spec.workload == "sweep-drift"
                   else units.output_path(bench.spec, bench.workdir).stat().st_size)
    values = {
        "schedule.us_per_step": (total("schedule.schedule_for") + total("schedule.frame_expand")) / steps * 1e6,
        "schedule.calls_per_step": calls("schedule.schedule_for") / steps,
        "schedule.frame_expand_calls_per_step": calls("schedule.frame_expand") / steps,
        "engine.step_self_us": own(tracer.STEP) / steps * 1e6,
        "engine.store_get_calls_per_step": calls("engine.store_get") / steps,
        "engine.store_put_us_per_step": total("engine.store_put") / steps * 1e6,
        "engine.peak_retained": full.peaks["peak_retained"],
        "engine.records_retained": full.peaks["records_retained"],
        "sampler.noise_source_us_per_step": total("sampler.noise_source") / steps * 1e6,
        "sampler.draws_per_step": calls("sampler.draw") / steps,
        "sampler.draw_us_per_step": total("sampler.draw") / steps * 1e6,
        "sampler.sample_block_self_us": own("sampler.sample_block") / steps * 1e6,
        "denoisers.estimate_calls_per_step": n_estimates / steps,
        "denoisers.estimate_self_us_per_step": own("denoisers.estimate") / steps * 1e6,
        "denoisers.context_frames_per_estimate": full.sums["context_frames"] / max(n_estimates, 1),
        "rope.rotate_calls_per_step": calls("rope.rotate") / steps,
        "rope.rows_rotated_per_step": full.sums["rotated_rows"] / steps,
        "rope.rotate_us_per_step": total("rope.rotate") / steps * 1e6,
        "metrics.mean_drift_ms": total("metrics.mean_drift") / n_units * 1e3,
        "metrics.flicker_proxy_ms": total("metrics.flicker_proxy") / n_units * 1e3,
        "metrics.repetition_score_ms": total("metrics.repetition_score") / n_units * 1e3,
        "cli.config_parse_ms": total("cli.parse_config_text") / max(n_parses, 1) * 1e3,
        "cli.write_trace_s": total("cli.write_trace") / n_units,
        "cli.read_trace_s": total("cli.read_trace") / n_units,
        "cli.trace_bytes": trace_bytes,
        "trace.overhead_frac": float(np.median(ratios)) - 1.0,
    }
    metrics = listed("per_layer", values,
                     lambda name: n_units if name.startswith(PER_UNIT) else steps)
    scales = [scale for _, _, scale in plain + traced]
    return metrics, {"spans": spans, "untraced_steps": sum(len(s) for _, s, _ in plain),
                     "host_scale": float(np.median(scales)),
                     "accounting": {"wrapper_cost_us": float(np.median(costs)) * 1e6,
                                    "nested_calls_per_step": nested,
                                    "residual": residual,
                                    "tolerance": ACCOUNTING_TOLERANCE}}
