#!/usr/bin/env python3
"""Entry point of the repository's benchmark (see bench/README.md).

    python3 bench/run.py --workload W --seed S --seconds N --trace 0|1   # one run
    python3 bench/run.py --seed S [--traced] [--out FILE]                # all four
    python3 bench/run.py compare A.json B.json
    python3 bench/run.py selfcheck

The BLAS pins below must be in the environment before numpy is first
imported, which is why this file does it before importing anything else:
unpinned, ``batch_pregel`` medians moved 0.300-0.330 s between processes
against 0.275-0.277 s pinned, and the open-loop p50 doubled.
"""

import os
import sys

for _pin in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_pin] = "1"

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_SRC_DIR = os.path.join(os.path.dirname(_BENCH_DIR), "src")
for _path in (_SRC_DIR, _BENCH_DIR):
    if _path not in sys.path:
        sys.path.insert(0, _path)

if __name__ == "__main__":
    from inferbench.cli import main

    sys.exit(main(sys.argv[1:]))
