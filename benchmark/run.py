"""Benchmark of the gpprec CLI: one workload, one seed, one fresh process.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload lattice-2d --seed 0 --seconds 20 --trace 0

The run happens in a child process (``measure.py``) whose environment pins
``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` to 1 before numpy loads, so
the benchmark measures the estimator rather than BLAS thread contention,
and whose ``PYTHONPATH`` is the checkout's ``src``.  The last line printed
is the JSON result; with ``--trace 1`` it carries the per-layer metrics.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The whole run, child included, must end within 180 s.
DEADLINE_S = 170


def main(argv: list) -> int:
    started = time.monotonic()
    src = ROOT / "src"
    if not (src / "gpprec" / "cli.py").is_file():
        sys.stderr.write(f"no gpprec sources under {src}; run from a gpprec checkout\n")
        return 2
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        PYTHONPATH=str(src),
    )
    child = [sys.executable, str(Path(__file__).with_name("measure.py")), *argv]
    try:
        done = subprocess.run(
            child, cwd=ROOT, env=env, timeout=DEADLINE_S - (time.monotonic() - started)
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"benchmark did not finish within {DEADLINE_S} s\n")
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
