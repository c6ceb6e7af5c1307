"""`sfgp sweep ...` exactly as the console script runs it (`sfgp.cli:main`),
with the span tracer installed when $PERFBENCH_TRACE_DIR names a directory.

The tracer is installed at import, outside the main guard, so that pool
workers get it whether they are forked (they inherit the patched modules) or
spawned (they import this file again as `__mp_main__`).
"""
import os
import sys
from pathlib import Path

import bench_trace

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

if os.environ.get(bench_trace.SINK_ENV):
    bench_trace.Tracer(sink_dir=os.environ[bench_trace.SINK_ENV]).install()

if __name__ == "__main__":
    from sfgp import cli

    sys.exit(cli.main(sys.argv[1:]))
