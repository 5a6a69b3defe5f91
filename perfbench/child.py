"""Fresh-process measurements for run.py; prints one JSON line.

    python3 perfbench/child.py setup WORKLOAD SEED SCALE WORKDIR
        seconds to import blockroll, parse the workload's config and
        construct its denoiser (the config parse builds the denoiser), then
        a calibration point (calibrate.py) taken in the same process;
    python3 perfbench/child.py rss WORKLOAD SEED SCALE WORKDIR
        peak RSS of a process that runs one unit, and the unit's output digest.

run.py pins BLAS/OpenMP threads in the environment before starting it.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spec import make_spec  # noqa: E402  (imports neither blockroll nor numpy)


def main(mode: str, workload: str, seed: str, scale: str, workdir: str) -> None:
    spec = make_spec(workload, int(seed), float(scale))
    if mode == "setup":
        start = time.perf_counter()
        import blockroll.cli

        blockroll.cli.parse_config_text(spec.config_text)
        setup_s = time.perf_counter() - start
        import calibrate

        calibrate.point(1)  # first-call costs stay out of the point
        print(json.dumps({"setup_s": setup_s, "kernel_s": calibrate.point()}))
        return
    import units

    units.run_unit(spec, Path(workdir))
    print(json.dumps({
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "digest": units.digest(units.output_path(spec, Path(workdir))),
    }))


if __name__ == "__main__":
    main(*sys.argv[1:])
