"""Environment block written into every result.

BLAS threads are pinned through environment variables, because
``threadpoolctl`` is not available to pin them at run time; the count
reported here is read back from the loaded OpenBLAS library itself.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_THREADS = "1"


def pin_blas_threads() -> None:
    """Must run before numpy is first imported in the process."""
    for var in PIN_VARS:
        os.environ[var] = PINNED_THREADS


def _blas_threads_in_effect():
    """Ask the loaded OpenBLAS for its thread count; None if it cannot be found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha(root: Path):
    """HEAD of ``root`` read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    in_effect = _blas_threads_in_effect()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {
            "pinned_by": "environment: " + ", ".join(f"{v}={os.environ.get(v)}" for v in PIN_VARS),
            "in_effect": in_effect,
            "read_back_from": "openblas_get_num_threads" if in_effect is not None else "unavailable",
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(root),
    }
