"""One BLAS thread per process.

The pipeline's parallelism is `run --workers`, one process per worker, and
the matrices it hands to BLAS are a few hundred rows at most. Extra BLAS
threads then only compete with the workers for the same cores. numpy wheels
bundle OpenBLAS as numpy.libs/libscipy_openblas64_*.so, which exports a
thread-count setter; any other BLAS build is left as it is.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np


def use_one_blas_thread() -> None:
    """Pin numpy's bundled OpenBLAS to one thread; a no-op without it."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            setter = ctypes.CDLL(str(path)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(1)
