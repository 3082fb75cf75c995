"""Regenerate the stored epoch references in perfbench/reference/.

    python3 perfbench/make_reference.py

Each file holds the conv weights after one pretrain epoch on the fixed
reference input (inputs.REFERENCE_SEED, inputs.REFERENCE_IMAGES images).
Epoch runs compare the program against them to the 1e-10 relative tolerance,
so regenerate them only when a change is meant to alter the weights.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import envinfo

    envinfo.pin_blas_threads()
    import numpy as np

    from perfbench import workloads

    for rule in ("hpca", "swta"):
        weights = workloads.reference_pretrain(rule)
        path = workloads.REFERENCE_DIR / f"epoch-{rule}.npz"
        np.savez(path, **{f"conv{k + 1}": w for k, w in enumerate(weights)})
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
