"""Load the library under test from this checkout's ``src`` and nowhere else.

The benchmark must measure the code it ships with, so an installed
``matchreg`` elsewhere on the path is refused rather than silently used.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def load():
    """Cap BLAS at one thread, then import ``matchreg`` from ``src``.

    One thread because on a small shared machine the second BLAS thread
    mostly spins: in a five-seed trial on two cores, training step times
    spread about 15 % with two threads and about 8 % with one.
    Caps already set in the environment are kept. Call before anything
    imports numpy: the caps are read once, when the BLAS library loads.
    """
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    try:
        import matchreg
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import matchreg from {SRC}: {err}") from None
    where = Path(matchreg.__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"perfbench: matchreg was imported from {where}, not from {SRC}")
    return matchreg


def machine() -> str:
    """CPUs this process may use (as ``nproc``), library versions, BLAS thread caps."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas_text = "unknown"
    threads = ",".join(f"{v}={os.environ.get(v)}" for v in BLAS_THREAD_VARS)
    return (
        f"nproc {len(os.sched_getaffinity(0))}, numpy {numpy.__version__}, scipy {scipy.__version__}, "
        f"BLAS {blas_text}, {threads}"
    )
