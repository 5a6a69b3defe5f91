"""The benchmark's layer hooks install on this tree.

perfbench/tracer.py wraps package names by attribute (HistoryStore.get,
HistoryStore.peak_retained, engine.frame_expand, denoisers.rotate, ...), so
removing or renaming one of them breaks the traced benchmark, not any other
test. This enters and leaves the hooks around a short rollout.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from blockroll import cli, engine
from blockroll.cli import parse_config_text
from blockroll.engine import Rollout

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_layer_hooks_install_and_restore(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    originals = (engine.schedule_for, engine.frame_expand, Rollout.__dict__["step"])
    t = tracer.Tracer()
    with t.installed(tracer.all_layers(t)):
        rollout = Rollout(parse_config_text("horizon = 3\ndenoiser = analytic-gaussian"))
        for _ in range(3):
            rollout.step()
        # the step builds no schedule, and the writer slides its slot text from
        # record to record, outside the in-step spans, whose self times must add
        # up to the steps'
        cli.write_trace(rollout.records, str(tmp_path / "trace.jsonl"))
    spans = t.summary()
    assert spans[tracer.STEP]["calls"] == 3
    assert spans["schedule.schedule_for"]["calls"] == 0
    assert spans["cli.write_trace"]["calls"] == 1
    assert t.peaks["peak_retained"] == 3
    assert (engine.schedule_for, engine.frame_expand, Rollout.__dict__["step"]) == originals
