"""The package root exports what the README documents and nothing else, and
the README's quick start and the CLI's `__main__` run as real processes."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import blockroll

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# The names the README documents, and the types its documented values carry.
EXPORTED = {
    "AnalyticGaussianDenoiser", "CacheSlot", "Conditioned", "Context",
    "ContextMeanDenoiser", "DenoiserInterface", "InternalInvariantError", "NoiseSource",
    "NonFiniteBlockError", "Orientation", "Policy", "PolicyConfig", "RollConvention",
    "Rollout", "RolloutConfig", "Schedule", "TimestepSchedule", "TinyAttentionDenoiser",
    "TraceRecord", "flicker_proxy", "frame_expand", "mean_drift", "repetition_score",
    "roll_slot", "run", "schedule_for",
}


def test_the_package_root_exports_the_documented_names():
    assert len(EXPORTED) == 26
    assert set(blockroll.__all__) == EXPORTED
    assert len(blockroll.__all__) == len(EXPORTED)
    assert all(hasattr(blockroll, name) for name in EXPORTED)


def test_every_name_the_readme_uses_resolves_on_the_package():
    used = set(re.findall(r"\bbr\.(\w+)", README.read_text(encoding="utf-8")))
    assert used
    assert used <= set(blockroll.__all__)


def run_python(args, cwd):
    """A fresh interpreter on this checkout's src/, as `PYTHONPATH=src python ...`."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_the_readme_quick_start_runs(tmp_path):
    text = README.read_text(encoding="utf-8")
    start = text.index("```python", text.index("## Library quick start"))
    code = text[start + len("```python"):text.index("```", start + 1)]
    done = run_python(["-c", code], tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    float(done.stdout)  # one float on one line
    assert done.stdout.count("\n") == 1


def test_the_cli_module_runs_a_rollout(tmp_path):
    (tmp_path / "rollout.cfg").write_text("horizon = 12\nK = 4\nS = 2\n")
    done = run_python(["-m", "blockroll.cli", "rollout", "rollout.cfg",
                       "--out", "trace.jsonl"], tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert len((tmp_path / "trace.jsonl").read_text().splitlines()) == 12


def test_the_cli_module_refuses_an_unknown_key_in_one_line(tmp_path):
    (tmp_path / "rollout.cfg").write_text("horizon = 12\nsink_ratio = 83\n")
    done = run_python(["-m", "blockroll.cli", "rollout", "rollout.cfg",
                       "--out", "trace.jsonl"], tmp_path)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: unknown config key: sink_ratio\n"
    assert not (tmp_path / "trace.jsonl").exists()
