"""Benchmark harness: times naive vs fast kernels on seeded inputs across a
size grid, checks their equivalence inline, and emits CSV/JSON reports.

Memory is reported as each kernel's largest temporary in tensor elements
(``peak_temp_elements``), not OS RSS.  The JSON environment block reports
what the medians depend on: the BLAS thread count, the pool's workers and
the OpenBLAS core (``threads``, ``pool_workers``, ``blas_core``).
"""

from __future__ import annotations

import io
import json
import platform
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import rules
from .errors import UsageError
from .layers import init_weights
from .rules import LearningParams
from .tensor import Tensor, openblas_core, openblas_threads, pool_workers

__all__ = [
    "BenchRow",
    "BenchReport",
    "bench_kernels",
    "CSV_COLUMNS",
]

EQUIV_TOL = {8: 1e-10, 4: 1e-4}  # tolerance by dtype itemsize


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


CSV_COLUMNS = tuple(f.name for f in fields(BenchRow))


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)
    environment: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(",".join(CSV_COLUMNS) + "\n")
        for row in self.rows:
            values = []
            for col in CSV_COLUMNS:
                value = getattr(row, col)
                if col == "speedup":
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


def _time_kernel(kernel, w, x, params, reps: int) -> int:
    """Median wall time (ns) over reps."""
    times = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        kernel(w, x, params)
        times.append(time.perf_counter_ns() - start)
    return int(np.median(times))


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
    """Benchmark naive vs fast kernels over (B, N, S) sizes on identical
    seeded inputs.  One untimed run of each gives both rows of a size their
    peak and their ``equiv_ok`` verdict (fast against naive within
    ``EQUIV_TOL``), so each kernel runs ``reps + 1`` times per size."""
    if reps < 5:
        raise UsageError(f"reps must be >= 5, got {reps}")
    if rule_names is None:
        rule_names = rules.RULES
    elif not rule_names:
        raise UsageError("no rule given")
    for rule in rule_names:
        if rule not in rules.RULES:
            raise UsageError(f"unknown rule {rule!r}")
    tol = EQUIV_TOL[np.dtype(dtype).itemsize]
    threads = openblas_threads()
    report = BenchReport(environment={
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "precision": np.dtype(dtype).name,
        "threads": threads[0]() if threads else None,  # read back from BLAS
        "pool_workers": pool_workers(),  # the fast kernels' products split over these
        "blas_core": openblas_core(),
    })
    for rule in rule_names:
        for b, n, s in grid:
            rng = np.random.default_rng(seed)
            x = Tensor(rng.standard_normal((b, 1, s)).astype(dtype))
            w = init_weights(n, s, seed=seed + 1, dtype=dtype)
            params = LearningParams(rule=rule)  # eta 1e-3, temperature 1.0
            naive = rules.update_fn(rule, "naive")
            fast = rules.update_fn(rule, "fast")
            slow, quick = naive(w, x, params), fast(w, x, params)
            ok = _relative_error(slow.delta_w.data, quick.delta_w.data) <= tol
            naive_ns = _time_kernel(naive, w, x, params, reps)
            fast_ns = _time_kernel(fast, w, x, params, reps)
            report.rows.append(
                BenchRow(rule, "naive", b, n, s, reps, naive_ns, slow.peak_temp_elements, 1.0, ok)
            )
            report.rows.append(
                BenchRow(
                    rule, "fast", b, n, s, reps, fast_ns, quick.peak_temp_elements,
                    naive_ns / max(fast_ns, 1), ok,
                )
            )
    return report
