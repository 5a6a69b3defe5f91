"""One workload unit through blockroll's public entry points, and its oracle.

A stream unit parses the generated config, steps one Rollout to the
horizon and writes the trace with `cli.write_trace`; stream-analytic then
reads it back through `blockroll metrics`. A sweep unit is one
`blockroll sweep` over the sink ratios 0-83, the three sweep variants and
SWEEP_SEEDS seeds per cell. Outputs land in the unit's work directory.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

import blockroll.cli as cli
from blockroll.engine import Rollout

import reference
from spec import SWEEP_RATIOS, SWEEP_SEEDS, Spec


class UnitError(Exception):
    """A command of the unit exited nonzero."""


def _paths(workdir: Path) -> tuple[Path, Path, Path]:
    return workdir / "base.cfg", workdir / "trace.jsonl", workdir / "out.csv"


def run_unit(spec: Spec, workdir: Path) -> Rollout | None:
    """Run one unit; returns the rollout of a stream unit."""
    config, trace, csv = _paths(workdir)
    if spec.workload == "sweep-drift":
        config.write_text(spec.config_text, encoding="utf-8")
        rc = cli.main(["sweep", str(config), "--ratios", SWEEP_RATIOS,
                       "--horizons", str(spec.horizon), "--seeds", str(SWEEP_SEEDS),
                       "--out", str(csv)])
        if rc != 0:
            raise UnitError(f"blockroll sweep exited {rc}")
        return None
    cfg = cli.parse_config_text(spec.config_text)
    rollout = Rollout(cfg)
    for _ in range(cfg.horizon):
        rollout.step()
    cli.write_trace(rollout.trace(), str(trace))
    if spec.workload == "stream-analytic":
        rc = cli.main(["metrics", str(trace), "--out", str(csv)])
        if rc != 0:
            raise UnitError(f"blockroll metrics exited {rc}")
    return rollout


def output_path(spec: Spec, workdir: Path) -> Path:
    """The file whose bytes identify a unit's behaviour: the sweep CSV, or the
    trace of a stream unit."""
    _, trace, csv = _paths(workdir)
    return csv if spec.workload == "sweep-drift" else trace


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Oracle:
    """Expected outputs of one spec, from reference.py. check() returns the
    problems found in a unit's outputs; an empty list means correct.

    Every unit of a run must also reproduce the first unit's output bytes,
    so traced and untraced units, and the fresh-process unit, are compared
    byte for byte."""

    def __init__(self, spec: Spec):
        self.spec = spec
        self.params = params = reference.parse_config(spec.config_text)
        self.expected: dict[str, str] = {}
        self.first: str | None = None
        if spec.workload == "sweep-drift":
            csv = reference.sweep_csv(params, SWEEP_RATIOS, spec.horizon, SWEEP_SEEDS)
            self.expected["out.csv"] = hashlib.sha256(csv).hexdigest()
            return
        blocks, self.schedules = reference.rollout(
            params, params["policy"], params["S"], params["seed"], spec.horizon)
        if spec.workload == "stream-analytic":
            trace = reference.trace_bytes(blocks, self.schedules, params["seed"])
            self.expected["trace.jsonl"] = hashlib.sha256(trace).hexdigest()
            self.expected["out.csv"] = hashlib.sha256(reference.metrics_csv(blocks)).hexdigest()
        else:
            self.frames = np.stack(blocks)

    def check_digest(self, output: str) -> list[str]:
        """Determinism: every unit's output bytes equal the first unit's."""
        if self.first is None:
            self.first = output
        return [] if output == self.first else ["output bytes differ from the first unit's"]

    def check(self, rollout: Rollout | None, workdir: Path) -> list[str]:
        problems = [f"{name} differs from the reference"
                    for name, want in self.expected.items()
                    if digest(workdir / name) != want]
        if rollout is not None:
            K = self.params["K"]
            if rollout.store.peak_retained > 2 * K:
                problems.append(f"retained {rollout.store.peak_retained} blocks > 2K")
            if self.spec.workload == "stream-attention":
                problems += self._check_attention(rollout, workdir)
        return problems + self.check_digest(digest(output_path(self.spec, workdir)))

    def _check_attention(self, rollout: Rollout, workdir: Path) -> list[str]:
        records = rollout.records
        frames = np.stack([r.frames for r in records])
        if not np.isfinite(frames).all():
            return ["non-finite frames"]
        delta = float(np.abs(frames - self.frames).max())
        problems = []
        if delta > reference.ATTENTION_TOLERANCE:
            problems.append(f"frames differ from the reference by {delta:.3g}")
        schedules = [[(s.content_id, s.orientation.value, s.assigned_index)
                      for s in r.schedule.slots] for r in records]
        if schedules != self.schedules:
            problems.append("schedules differ from the reference")
        # The file must serialise the rollout's own values exactly.
        written = reference.trace_bytes(list(frames), schedules, self.params["seed"])
        if (workdir / "trace.jsonl").read_bytes() != written:
            problems.append("trace file does not match the rollout's records")
        return problems
