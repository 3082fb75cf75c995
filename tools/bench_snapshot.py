"""Run the benchmark over its workloads and a fixed seed set, and write the
results as one ``BENCH_<n>.json`` file.

    python3 tools/bench_snapshot.py --out BENCH_33.json
    python3 tools/bench_snapshot.py --out BENCH_33.json --baseline ../parent

Each run is ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` in a checkout (this one by default), for every workload W and
the run length T that ``BENCHMARK.json`` declares.  The file holds every
run's result line and end-to-end figures, the median and interquartile
range of ``items_per_s``, ``raw_items_per_s``, ``setup_s`` and
``peak_rss_mb`` per workload, the environment block of the first run, and
the git SHA of the checkout with whether its tree differs from it.

With ``--baseline CHECKOUT`` every seed also runs in that checkout, the two
sides taking turns at going first, and each workload gets the same summary
for the baseline plus, per metric, how many pairs the measured checkout won
(in the direction ``BENCHMARK.json`` gives, higher for ``raw_items_per_s``)
and the median of the paired differences.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEEDS = tuple(range(3301, 3311))
METRICS = ("items_per_s", "raw_items_per_s", "setup_s", "peak_rss_mb")


def _git(checkout: Path) -> dict:
    def git(*args):
        out = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"sha": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def run_one(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run: its result line, end-to-end figures and environment."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited {proc.returncode}: {proc.stderr[-500:]}")
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    e2e = {m: report["end_to_end"][m]["value"] for m in METRICS}
    return {"seed": seed, "result": result, "end_to_end": e2e, "environment": report["environment"]}


def summary(runs: list[dict]) -> dict:
    out = {}
    for m in METRICS:
        q1, mid, q3 = np.percentile([r["end_to_end"][m] for r in runs], [25, 50, 75]).tolist()
        out[m] = {"median": mid, "q1": q1, "q3": q3}
    return out


def pairs(runs: list[dict], base: list[dict], higher: dict[str, bool]) -> dict:
    out = {}
    for m in METRICS:
        diffs = [r["end_to_end"][m] - b["end_to_end"][m] for r, b in zip(runs, base)]
        won = sum(d > 0 if higher[m] else d < 0 for d in diffs)
        out[m] = {"won": won, "of": len(diffs), "median_diff": median(diffs)}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--out", required=True, type=Path, help="the BENCH_<n>.json to write")
    p.add_argument("--baseline", type=Path, help="a checkout to run each seed in as well")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    higher = {m["name"]: m["better"] == "higher" for m in bench["end_to_end"]} | {"raw_items_per_s": True}
    snapshot = {"seeds": list(SEEDS), "seconds": seconds, "git": _git(ROOT), "workloads": {}}
    if args.baseline:
        snapshot["baseline_git"] = _git(args.baseline)
    for workload in (w["name"] for w in bench["workloads"]):
        runs, base = [], []
        for i, seed in enumerate(SEEDS):
            sides = [(ROOT, runs)] + ([(args.baseline, base)] if args.baseline else [])
            for checkout, into in sides[:: 1 if i % 2 else -1]:  # the baseline goes first on even turns
                into.append(run_one(checkout, workload, seed, seconds))
                environment = into[-1].pop("environment")
                if checkout == ROOT:
                    snapshot.setdefault("environment", environment)
                print(workload, seed, checkout, into[-1]["end_to_end"], file=sys.stderr)
        entry = {"runs": runs, "summary": summary(runs)}
        if base:
            entry |= {"baseline_runs": base, "baseline_summary": summary(base), "pairs": pairs(runs, base, higher)}
        snapshot["workloads"][workload] = entry
    args.out.write_text(json.dumps(snapshot, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
