"""Run the filtra command line under the span tracer.

    python3 perfbench/cli_trace.py TRACE_PATH [filtra arguments...]

Used by the cli workload's traced rounds in place of `python -m filtra`.
PERFBENCH_LAUNCH holds the parent's time.monotonic() at launch, so the time
from process start to entry into main is recorded as cli.startup_s.  Spans
and counts are written to TRACE_PATH.npz and TRACE_PATH.json.
"""

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import filtra.cli  # noqa: E402  (filtra comes from PYTHONPATH)
from spans import Tracer  # noqa: E402


def main() -> int:
    trace_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.startup_s = time.monotonic() - float(os.environ["PERFBENCH_LAUNCH"])
        status = filtra.cli.main(argv)
    finally:
        tracer.uninstall()
    tracer.save(trace_path)
    return status


if __name__ == "__main__":
    sys.exit(main())
