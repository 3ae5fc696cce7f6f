"""Process set-up shared by the benchmark's entry points.

Pins the BLAS/OpenMP pools to one thread (the solver is single-threaded, so
a later parallel change has to do its threading explicitly) and imports
``chns`` from the ``src`` directory of the checkout this file sits in, never
from an installed copy.  Only the standard library is imported here, so the
pins are in place before numpy loads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORK_DIR = BENCH_DIR / ".work"          # run outputs, reference cache, traces

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def prepare() -> dict:
    """Pin the thread pools and import chns from the checkout.

    Returns the thread pins for the provenance record.  Exits with status 1
    when the checkout has no ``src/chns``, so nothing gets measured.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "chns" / "__init__.py").is_file():
        sys.exit(f"perfbench: no chns package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import chns
    if Path(chns.__file__).resolve().parent != (src / "chns").resolve():
        sys.exit(f"perfbench: imported chns from {chns.__file__}, not from {src}")
    return {var: os.environ[var] for var in THREAD_VARS}
