"""One fresh-process set-up of a workload, timed from the first import.

    python3 bench/setup_probe.py <workload> <seed> <work dir>

Imports numpy and commatch, writes the workload's seeded model and instance
files into the work dir, runs one warm-up operation, and prints one JSON
object with the times. The package must be importable (PYTHONPATH).
"""

import time

t0 = time.perf_counter()
import numpy  # noqa: E402,F401

t1 = time.perf_counter()
import commatch.cli  # noqa: E402,F401

t2 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    name, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    wl = WORKLOADS[name]
    wl.prepare(work, seed)
    wl.warm_up(work, seed)
    t3 = time.perf_counter()
    print(json.dumps({"setup_s": t3 - t0, "import_ms": (t2 - t0) * 1000.0,
                      "import_numpy_ms": (t1 - t0) * 1000.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
