"""Time one workload's set-up in a fresh interpreter and print the seconds.

    python3 bench/setup_probe.py <workload> [--full]

The set-up is what precedes the first library call of a workload: importing
stringc, listing the catalog or building the ambient groups.
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402  (imports no stringc module)

started = time.perf_counter()
workloads.prepare(sys.argv[1], full="--full" in sys.argv[2:])
print(time.perf_counter() - started)
