"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, hands them to the program as
FHDS files plus config files under .perfbench/, and runs the measured work in
a separate process (worker.py) with BLAS pinned to one thread.  Set-up time
is measured from process start in several fresh processes and reported as
their median.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1).  The full report,
with the environment, every check and every metric's base, is the line before
it and is also written to .perfbench/<workload>-seed<N>/report.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("epoch-hpca", "epoch-swta", "probe", "kernels")
RUN_LIMIT_S = 170  # a run must end within 180 s


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p


class WorkerFailed(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), *args]
    timeout = max(deadline - time.monotonic(), 1.0)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool, sizes_name: str = "full") -> dict:
    """Run one workload; returns the full report and prints nothing."""
    from perfbench import calibrate, inputs

    deadline = time.monotonic() + RUN_LIMIT_S
    sizes = inputs.SIZES[sizes_name]
    workdir = ROOT / ".perfbench" / f"{workload}-seed{seed}"
    inputs.write_inputs(workload, seed, sizes, workdir)
    common = ["--workload", workload, "--workdir", str(workdir), "--sizes", sizes_name]
    setup_s = []
    try:
        for _ in range(0 if trace else sizes.setup_repeats):
            start = time.monotonic()
            out = _worker([*common, "--seconds", "0", "--setup-only"], deadline)
            setup_s.append(out["ready"] - start)
        start = time.monotonic()
        report = _worker([*common, "--seconds", str(seconds), "--trace", str(int(trace))], deadline)
        setup_s.append(report.pop("ready") - start)
    finally:
        for path in workdir.glob("*.fhds"):
            path.unlink()
    report["seed"] = seed
    report["environment"]["seed"] = seed
    # normalised with the calibration the worker measured during its repetitions
    calibration_s = median(report["repetitions"]["calibration_s"] or [calibrate.REFERENCE_S])
    report["end_to_end"]["setup_s"] = {"value": calibrate.duration(median(setup_s), calibration_s), "unit": "s"}
    report["end_to_end"]["raw_setup_s"] = {"value": median(setup_s), "unit": "s", "samples": setup_s}
    (workdir / "report.json").write_text(json.dumps(report, indent=1))
    return report


def result_line(report: dict, trace: bool) -> dict:
    from perfbench.workloads import END_TO_END, PER_LAYER

    names = PER_LAYER if trace else END_TO_END
    section = report["per_layer" if trace else "end_to_end"]
    checks = report["checks"]
    return {
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {n: {"value": section[n]["value"], "unit": section[n]["unit"]} for n in names},
    }


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "fasthebb" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'fasthebb'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import envinfo

    envinfo.pin_blas_threads()  # inherited by the worker processes
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    print(json.dumps(result_line(report, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
