"""The measured process of one workload run; started by run.py.

    python3 perfbench/worker.py --workload W --workdir D --seconds S --trace T
                                [--sizes full|tiny] [--setup-only]

It imports the program, sets up from the config files run.py wrote in D, and
prints its report as one JSON line.  ``ready`` in that report is the
CLOCK_MONOTONIC time at which set-up ended, so run.py can measure set-up
from process start.  With --setup-only it stops there.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import envinfo

    envinfo.pin_blas_threads()  # before numpy loads OpenBLAS
    import fasthebb

    if Path(fasthebb.__file__).resolve().parent != ROOT / "src" / "fasthebb":
        print(f"error: imported fasthebb from {fasthebb.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from perfbench import inputs, workloads

    configs = sorted(args.workdir.glob("config*.cfg"))
    sizes = inputs.SIZES[args.sizes]
    if args.setup_only:
        workloads.setup(configs, workloads.CLASSES_BY_NAME[args.workload].with_test)
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    ready = []
    report = workloads.run(
        args.workload, configs, args.seconds, bool(args.trace), sizes, on_ready=lambda: ready.append(time.monotonic())
    )
    report["ready"] = ready[0]
    report["environment"] = envinfo.environment(ROOT)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
