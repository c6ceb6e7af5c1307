"""sfgp benchmark.

    python3 perfbench/run.py --workload fish_grid --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: the package is imported from `src/`, never
from an installed copy.  Prints the environment, one line per metric, and as
the last line a JSON object with `correct`, `attempted`, `failed` and
`metrics` (end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`).  Exits 1 when an output check fails or when sfgp cannot be
imported from `src/`.  See README.md in this directory for the workloads and
metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_sfgp():
    """Import sfgp from this checkout's src/ and nowhere else."""
    if not (SRC / "sfgp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sfgp package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sfgp

    if SRC.resolve() not in Path(sfgp.__file__).resolve().parents:
        raise SystemExit(f"perfbench: sfgp was imported from {sfgp.__file__}, not {SRC}")
    return sfgp


def environment():
    """What the numbers depend on beyond the code: cores, library versions
    and thread settings.  The benchmark sets no thread variable itself."""
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS") or k == "SFGP_THREADS"},
    }


def result_line(report):
    return json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fish_grid", "sphere_dense"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_sfgp()
    import bench_workloads

    env = environment()
    report = bench_workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "environment": env}))
    for name, (value, unit) in {**report.info, **report.metrics}.items():
        print(f"{name} {value:.6g} {unit}")
    for failure in report.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(result_line(report), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
