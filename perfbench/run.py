"""blockroll benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; blockroll is imported from its src/ tree.
Each workload unit starts when the previous one has finished and its output
has been checked (see units.py and reference.py). The last stdout line is
the result:

    {"correct": ..., "attempted": units run, "failed": units whose output was
     wrong or that raised, "metrics": {name: {"value": ..., "unit": ...}}}

With --trace 0 the metrics are the end-to-end ones, measured with only a
clock around Rollout.step. With --trace 1 they are the per-layer ones: the
run alternates units with only that clock and units with every layer
boundary wrapped (tracer.py); the ratio of their step times is the tracing
overhead. The line before the result is a report with provenance and sample
counts. harness.py holds the loop; README.md documents the workloads,
metrics and predictions.
"""

from __future__ import annotations

import os

PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)  # before numpy loads its BLAS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from spec import WORKLOADS, make_spec  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def provenance(spec, scale: float) -> dict:
    import numpy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "blockroll").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "threads": PINNED_THREADS,
        "workload": spec.workload,
        "workload_seed": spec.seed,
        "horizon": spec.horizon,
        "scale": scale,
        "config": spec.config_text,
        "loop": "closed, one client, single thread",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="horizon multiplier, for the smoke test only")
    args = parser.parse_args(argv)

    if not (SRC / "blockroll" / "__init__.py").is_file():
        print(f"error: no blockroll package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import blockroll

    if Path(blockroll.__file__).resolve().parent != SRC / "blockroll":
        print(f"error: blockroll imported from {blockroll.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # One CPU for the run and its children: a fresh process that may land on
    # either CPU spread set-up times by ~35% (IQR/median) on a 2-CPU host,
    # against ~8% when pinned.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    import harness

    spec = make_spec(args.workload, args.seed, args.scale)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench = harness.Bench(spec, args.scale, workdir)
        run = harness.traced_run if args.trace else harness.timed_run
        metrics, extra = run(bench, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {"provenance": {**provenance(spec, args.scale), "pinned_cpu": cpu},
              "metrics": metrics,
              "problems": bench.problems, **extra}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
