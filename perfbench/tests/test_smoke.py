"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from fasthebb import rules  # noqa: E402
from fasthebb.tensor import Tensor  # noqa: E402

from perfbench import inputs, run, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def results():
    """(workload, trace) -> (full report, last output line), at tiny sizes."""
    out = {}
    for name in WORKLOADS:
        for trace in (False, True):
            report = run.run(name, seed=3, seconds=0.0, trace=trace, sizes_name="tiny")
            out[name, trace] = report, run.result_line(report, trace)
    return out


def test_workloads_match_the_spec():
    assert WORKLOADS == list(run.WORKLOADS)
    assert set(WORKLOADS) == set(workloads.CLASSES_BY_NAME)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(results, name, trace):
    _, line = results[name, trace]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {m: v["unit"] for m, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0


def test_every_untraced_metric_is_positive(results):
    for name in WORKLOADS:
        _, line = results[name, False]
        assert all(v["value"] > 0 for v in line["metrics"].values()), name


@pytest.mark.parametrize("name, calls", [("epoch-hpca", 6), ("epoch-swta", 6), ("probe", 2), ("kernels", 0)])
def test_extract_patches_calls_per_step(results, name, calls):
    _, line = results[name, True]
    assert line["metrics"]["layers.extract_patches.calls_per_step"]["value"] == calls


def test_traced_run_writes_spans_with_parents(results):
    report, _ = results["epoch-hpca", True]
    lines = Path(report["trace"]["spans_file"]).read_text().splitlines()
    spans = [json.loads(line) for line in lines]
    assert len(spans) == report["trace"]["span_count"] > 0
    ids = {s["id"] for s in spans}
    assert all(s["parent"] == -1 or s["parent"] in ids for s in spans)
    assert all(s["end_ns"] >= s["start_ns"] for s in spans)


def _wrong(kernel):
    def wrong(w, x, params, keep_intermediates=False):
        result = kernel(w, x, params, keep_intermediates)
        return replace(result, delta_w=Tensor(result.delta_w.data * 1.01))

    return wrong


def _raising(kernel):
    def raising(w, x, params, keep_intermediates=False):
        raise FloatingPointError("injected failure")

    return raising


@pytest.mark.parametrize("fault", [_wrong, _raising])
@pytest.mark.parametrize("name", ["kernels", "epoch-swta"])
def test_faulty_fast_kernel_raises_error_rate(tmp_path, monkeypatch, name, fault):
    original = rules.update_fn

    def update_fn(rule, impl):
        kernel = original(rule, impl)
        return fault(kernel) if impl == "fast" else kernel

    monkeypatch.setattr(rules, "update_fn", update_fn)
    configs = inputs.write_inputs(name, 3, inputs.TINY, tmp_path)
    report = workloads.run(name, configs, 0.0, False, inputs.TINY)
    assert report["checks"]["failed"] > 0
    assert report["end_to_end"]["error_rate"]["value"] > 0
    report["end_to_end"]["setup_s"] = {"value": 1.0, "unit": "s"}
    assert run.result_line(report, False)["correct"] is False
