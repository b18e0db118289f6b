"""Machine facts recorded with every result, and the BLAS pool size.

pin_blas_threads() must run before numpy is first imported: OpenBLAS,
MKL and OpenMP read their thread count from the environment when the
library loads. The count in effect is then read back from OpenBLAS
itself where the symbol can be found.
"""
from __future__ import annotations

import ctypes
import os
import platform
import sys

# The pool size is part of the measurement: breakout_curve runs about
# 20 % slower on one OpenBLAS thread than on two, so it is pinned.
BLAS_THREADS = 2
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def pin_blas_threads() -> int:
    threads = max(1, min(BLAS_THREADS, nproc()))
    if "numpy" in sys.modules:
        raise RuntimeError("the BLAS pool must be sized before numpy is imported")
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _openblas_library() -> ctypes.CDLL | None:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _symbol(lib, stem: str):
    for name in (stem, f"{stem}64_", f"scipy_{stem}64_", f"scipy_{stem}"):
        fn = getattr(lib, name, None)
        if fn is not None:
            return fn
    return None


def blas_threads_in_effect() -> int | None:
    """OpenBLAS's own thread count, or None when OpenBLAS is not loaded."""
    lib = _openblas_library()
    fn = _symbol(lib, "openblas_get_num_threads") if lib is not None else None
    if fn is None:
        return None
    fn.argtypes = []
    fn.restype = ctypes.c_int
    return int(fn())


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def facts(seed: int, threads_requested: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (KeyError, TypeError, ValueError):
        blas_name = blas_version = "unknown"
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads_requested": threads_requested,
        "blas_threads_in_effect": blas_threads_in_effect(),
        "seed": seed,
    }
