"""Benchmark harness: times naive vs fast kernels on seeded inputs across a
size grid, checks their equivalence inline, and emits CSV/JSON reports.

Memory is reported as tensor elements allocated through the tensor core
(the largest temporary of each kernel invocation), not OS RSS, so the
numbers line up exactly with the kernels' space-complexity bounds.  The
kernels run on one BLAS thread, pinned through the loaded OpenBLAS.
"""

from __future__ import annotations

import io
import json
import platform
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from . import rules
from .errors import EquivalenceViolation, UsageError
from .layers import init_weights
from .rules import LearningParams
from .tensor import Tensor, openblas_threads

__all__ = [
    "BenchRow",
    "BenchReport",
    "bench_kernels",
    "CSV_COLUMNS",
]

CSV_COLUMNS = (
    "rule",
    "impl",
    "B",
    "N",
    "S",
    "reps",
    "median_ns",
    "peak_elems",
    "speedup",
    "equiv_ok",
)

EQUIV_TOL = {8: 1e-10, 4: 1e-4}  # tolerance by dtype itemsize


@contextmanager
def _one_blas_thread():
    """Pin BLAS to one thread, yielding the count read back from it (None
    when no OpenBLAS is found); the previous count is restored on exit."""
    threads = openblas_threads()
    if threads is None:
        yield None
        return
    get, set_ = threads
    previous = get()
    set_(1)
    try:
        yield get()
    finally:
        set_(previous)


@dataclass
class BenchRow:
    rule: str
    impl: str
    B: int
    N: int
    S: int
    reps: int
    median_ns: int
    peak_elems: int
    speedup: float
    equiv_ok: bool


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)
    environment: dict = field(default_factory=dict)

    def to_csv(self, include_timing: bool = True) -> str:
        out = io.StringIO()
        out.write(",".join(CSV_COLUMNS) + "\n")
        for row in self.rows:
            values = []
            for col in CSV_COLUMNS:
                value = getattr(row, col)
                if col in ("median_ns", "speedup") and not include_timing:
                    value = ""
                elif col == "speedup":
                    value = f"{value:.4f}"
                elif col == "equiv_ok":
                    value = "1" if value else "0"
                values.append(str(value))
            out.write(",".join(values) + "\n")
        return out.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {"environment": self.environment, "rows": [asdict(r) for r in self.rows]},
            indent=2,
        )

    def all_equivalent(self) -> bool:
        return all(row.equiv_ok for row in self.rows)


def _time_kernel(kernel, w, x, params, reps: int) -> tuple[int, int]:
    """Median wall time (ns) over reps after one excluded warm-up."""
    result = kernel(w, x, params)  # warm-up
    peak = result.peak_temp_elements
    times = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        kernel(w, x, params)
        times.append(time.perf_counter_ns() - start)
    return int(np.median(times)), peak


def _relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.linalg.norm(a), 1e-30)
    return float(np.linalg.norm(a - b) / denom)


def bench_kernels(
    grid: list[tuple[int, int, int]],
    rule_names: list[str] | None = None,
    reps: int = 5,
    seed: int = 0,
    dtype=np.float64,
) -> BenchReport:
    """Benchmark naive vs fast kernels over (B, N, S) sizes.

    Both implementations run on identical seeded inputs; each fast row
    carries an inline equivalence verdict against the naive result, and an
    out-of-tolerance row raises EquivalenceViolation.
    """
    if reps < 5:
        raise UsageError(f"reps must be >= 5, got {reps}")
    rule_names = rule_names or rules.RULES
    for rule in rule_names:
        if rule not in rules.RULES:
            raise UsageError(f"unknown rule {rule!r}")
    tol = EQUIV_TOL[np.dtype(dtype).itemsize]
    with _one_blas_thread() as threads:
        report = BenchReport(environment={
            "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(),
            "precision": np.dtype(dtype).name,
            "threads": threads,  # read back from BLAS; None when it could not be pinned
        })
        for rule in rule_names:
            for b, n, s in grid:
                rng = np.random.default_rng(seed)
                x = Tensor(rng.standard_normal((b, 1, s)), dtype=dtype)
                w = init_weights(n, s, seed=seed + 1, dtype=dtype)
                params = LearningParams(rule=rule)  # eta 1e-3, temperature 1.0
                naive = rules.update_fn(rule, "naive")
                fast = rules.update_fn(rule, "fast")
                err = _relative_error(
                    naive(w, x, params).delta_w.data, fast(w, x, params).delta_w.data
                )
                ok = err <= tol
                if not ok:
                    raise EquivalenceViolation(
                        f"{rule} (B,N,S)=({b},{n},{s}): relative error {err:.3e} > {tol}"
                    )
                naive_ns, naive_peak = _time_kernel(naive, w, x, params, reps)
                fast_ns, fast_peak = _time_kernel(fast, w, x, params, reps)
                report.rows.append(
                    BenchRow(rule, "naive", b, n, s, reps, naive_ns, naive_peak, 1.0, ok)
                )
                report.rows.append(
                    BenchRow(
                        rule, "fast", b, n, s, reps, fast_ns, fast_peak,
                        naive_ns / max(fast_ns, 1), ok,
                    )
                )
    return report
