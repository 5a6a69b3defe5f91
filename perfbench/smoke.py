"""Smoke test of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/smoke.py

From the root of a checkout, it checks that:

* for every workload in BENCHMARK.json, an untraced and a traced run print
  every metric BENCHMARK.json names, each with a unit, and the output oracle
  passes (correct, no failed unit);
* the exact per-layer counts repeat across two traced runs;
* the oracle rejects a unit whose output was changed after it ran;
* the traced run's time accounting fails when a nested span is left out of
  it or when the wrapper costs it subtracts are wrong;
* the benchmark exits nonzero, printing no result, in a directory that holds
  only BENCHMARK.json and the benchmark's files.

Exits 0 when every check passes, 1 otherwise, listing what failed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.02"
EXACT_COUNTS = (
    "schedule.calls_per_step", "schedule.frame_expand_calls_per_step",
    "engine.store_get_calls_per_step", "engine.peak_retained", "engine.records_retained",
    "sampler.draws_per_step", "denoisers.estimate_calls_per_step",
    "denoisers.context_frames_per_estimate", "rope.rotate_calls_per_step",
    "rope.rows_rotated_per_step", "cli.trace_bytes",
)


def bench(cwd: Path, workload: str, trace: int) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return done.returncode, done.stdout.strip().splitlines()


def check_runs(spec: dict, failures: list[str]) -> None:
    wanted = {0: [m["name"] for m in spec["end_to_end"]],
              1: [m["name"] for m in spec["per_layer"]]}
    for workload in (w["name"] for w in spec["workloads"]):
        counts = []
        for trace in (0, 1, 1):
            rc, lines = bench(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if rc != 0 or not lines:
                failures.append(f"{where}: exit {rc}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{where}: oracle failed: {lines[-2][:600]}")
            missing = [name for name in wanted[trace]
                       if not result["metrics"].get(name, {}).get("unit")]
            if missing:
                failures.append(f"{where}: metrics missing or without a unit: {missing}")
            if trace:
                counts.append({k: result["metrics"][k]["value"] for k in EXACT_COUNTS})
        if len(counts) == 2 and counts[0] != counts[1]:
            failures.append(f"{workload}: exact counts differ: {counts}")


def check_oracle_rejects(failures: list[str]) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import units
    from spec import WORKLOADS, make_spec

    with tempfile.TemporaryDirectory(prefix=".perfbench-smoke-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        for workload in WORKLOADS:
            spec = make_spec(workload, 3, float(SCALE))
            oracle = units.Oracle(spec)
            rollout = units.run_unit(spec, workdir)
            if oracle.check(rollout, workdir):
                failures.append(f"{workload}: oracle rejects a correct unit")
            out = units.output_path(spec, workdir)
            out.write_bytes(out.read_bytes().replace(b"1", b"2", 1))
            if not oracle.check(rollout, workdir):
                failures.append(f"{workload}: oracle accepts a changed output")


def check_accounting_rejects(failures: list[str]) -> None:
    import harness
    import tracer
    from spec import make_spec

    spec = make_spec("stream-analytic", 3, float(SCALE))
    in_step, wrapper_cost = tracer.IN_STEP, tracer.wrapper_cost
    broken = {
        "a nested span left out": ("IN_STEP", tuple(n for n in in_step if n != "sampler.draw")),
        "wrapper costs of 10 us": ("wrapper_cost", lambda: 1e-5),
    }
    for what, (attr, value) in broken.items():
        setattr(tracer, attr, value)
        try:
            with tempfile.TemporaryDirectory(prefix=".perfbench-smoke-", dir=ROOT) as tmp:
                bench = harness.Bench(spec, float(SCALE), Path(tmp))
                harness.traced_run(bench, 0.5)
        finally:
            tracer.IN_STEP, tracer.wrapper_cost = in_step, wrapper_cost
        if bench.failed != 1:
            failures.append(f"time accounting with {what}: {bench.failed} failed, {bench.problems}")


def check_bare_directory(failures: list[str]) -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-smoke-", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines = bench(bare, "sweep-drift", 0)
        if rc == 0 or any('"correct"' in line for line in lines):
            failures.append(f"bare directory: exit {rc}, output {lines[-1:]}")


def main() -> int:
    os.chdir(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures: list[str] = []
    check_runs(spec, failures)
    check_oracle_rejects(failures)
    check_accounting_rejects(failures)
    check_bare_directory(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
