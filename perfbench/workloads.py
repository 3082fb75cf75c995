"""The four workloads, run inside one measured process (see worker.py).

Each workload sets up through the program's public functions, repeats one
operation until its time is up, checks every repetition, and in a traced run
instruments the program from outside (tracer.py).  Checks count failures in
``Checks`` instead of raising, so a wrong program yields a result with a
non-zero error rate rather than a traceback.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple
from statistics import median

import numpy as np

from fasthebb import config, data as dio, experiment, layers, pipeline, rules, tensor as tc
from fasthebb.layers import HebbLayer
from fasthebb.tensor import AllocationTracker, Tensor

from . import calibrate, inputs, reference
from .tracer import Tracer

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
KERNEL_RULES = (rules.RULE_SWTA, rules.RULE_HPCA)

# Metrics on the last output line: end-to-end ones in an untraced run,
# per-layer ones in a traced run.  Names and units match BENCHMARK.json.
END_TO_END = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "tensor.reduce_sum.share": "share",
    "tensor.transpose.ms": "ms",
    "tensor.alloc_elems_per_step": "count",
    "rules.swta_fast.share": "share",
    "rules.hpca_fast.share": "share",
    "rules.kernel_share": "share",
    "rules.forward_linear.calls_per_step": "count",
    "rules.peak_temp_elems.conv1": "count",
    "rules.peak_temp_elems.conv2": "count",
    "rules.speedup_vs_naive": "x",
    "rules.overhead_vs_numpy": "x",
    "layers.extract_patches.calls_per_step": "count",
    "layers.extract_patches.share": "share",
    "layers.patch_elems_per_step": "count",
    "layers.hebb_update.peak_elems.conv1": "count",
    "layers.hebb_update.peak_elems.conv2": "count",
    "layers.max_pool.share": "share",
    "layers.conv_forward.share": "share",
    "layers.apply_update.share": "share",
    "pipeline.metric_pass.share": "share",
    "pipeline.tail_forward.share": "share",
    "pipeline.extract_features.img_per_s": "img/s",
    "pipeline.extract_features.peak_elems": "count",
    "pipeline.train_probe.share": "share",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "data.load_dataset.ms": "ms",
    "config.parse_config.ms": "ms",
    "experiment.build_stack.ms": "ms",
    "trace.overhead": "share",
}

# Span names of stage forwards; pretrain calls everything else it makes
# directly (outside hebb_update and apply_update) for its layer metric.
SETUP_SPANS = ("data.load_dataset", "config.parse_config", "experiment.build_stack")
FORWARD_SPANS = {f"layers.{cls.__name__}.forward" for cls in (HebbLayer, layers.ReLU, layers.MaxPool, layers.Flatten)}
NOT_METRIC = FORWARD_SPANS | {"layers.hebb_update", "layers.apply_update"}


class Checks:
    """Checked operations and failures; ``error_rate`` is their ratio."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    def close(self, ref, got, what: str) -> None:
        err = reference.rel_err(ref, got)
        self.record(err <= reference.TOL, f"{what}: relative error {err:.3e}")

    def run(self, what: str, fn, *args, **kwargs):
        """``fn(*args)``, or None with a failure recorded if it raises."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing program is a measured outcome
            self.record(False, f"{what}: {type(exc).__name__}: {exc}")
            return None


@dataclass
class Program:
    """What set-up built from one config file."""

    train: dio.Dataset
    test: dio.Dataset | None
    train_cfg: pipeline.TrainConfig
    stack: list


def setup(config_paths, with_test: bool) -> list[Program]:
    progs = []
    for path in config_paths:
        _, cfg = config.load_config(path)
        train = experiment.build_dataset(cfg, "train")
        test = experiment.build_dataset(cfg, "test") if with_test else None
        train_cfg = experiment.build_train_config(cfg)
        stack = experiment.build_stack(cfg, train.images.shape[1:], train_cfg.hebb_lr)
        progs.append(Program(train, test, train_cfg, stack))
    return progs


def hebb_weights(stack) -> list[np.ndarray]:
    return [stage.weights.data[0] for stage in stack if isinstance(stage, HebbLayer)]


def reference_pretrain(rule: str) -> list[np.ndarray]:
    """One pretrain epoch on the fixed reference input; make_reference.py
    stores its result, and every epoch run checks the program against it."""
    ((images, labels),) = inputs.make_images(inputs.REFERENCE_SEED, (inputs.REFERENCE_IMAGES,))
    text = inputs.stack_config(rule, inputs.REFERENCE_SEED, "-", "-", epochs=1)
    cfg = config.parse_config(text)
    train_cfg = experiment.build_train_config(cfg)
    stack = experiment.build_stack(cfg, inputs.IMAGE_SHAPE, train_cfg.hebb_lr)
    out, _ = pipeline.pretrain(stack, dio.Dataset(images, labels, inputs.CLASSES), train_cfg)
    return hebb_weights(out)


class Sample(NamedTuple):
    """One timed repetition and the calibration loop timed just before it."""

    items: int
    seconds: float
    calibration_s: float
    extra: dict | None = None

    @property
    def raw_rate(self) -> float:
        return self.items / self.seconds

    @property
    def rate(self) -> float:
        return calibrate.rate(self.items, self.seconds, self.calibration_s)


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


# -- workloads -----------------------------------------------------------------


class Workload:
    """One repetition is ``rep()``: it returns None if it failed, else
    (items, seconds) and optionally a dict of extra timings."""

    with_test = False

    def __init__(self, name: str, progs: list[Program], sizes: inputs.Sizes, checks: Checks):
        self.name, self.progs, self.sizes, self.checks = name, progs, sizes, checks
        self.details: dict = {}
        self.first = None  # output of the first repetition, which later ones must repeat

    def rep(self):
        raise NotImplementedError

    def final_checks(self) -> None:
        pass

    def e2e(self, samples) -> dict:
        return {}

    def instrument(self, tracer: Tracer) -> None:
        """Wrap the program's public functions; stage forwards after the last
        Hebbian layer of a stack are tagged as the tail forward."""
        for fn in ("matmul", "elementwise", "reduce_sum", "softmax", "tril_mask", "transpose", "reshape"):
            tracer.wrap(tc, fn, f"tensor.{fn}")
        tracer.wrap(rules, "forward_linear", "rules.forward_linear")
        traced_kernels = {}

        def update_fn(rule, impl, _orig=rules.update_fn):
            kernel = _orig(rule, impl)
            if kernel not in traced_kernels:
                traced_kernels[kernel] = tracer.traced(kernel, f"rules.{rule}_{impl}", on_return=_kernel_attrs)
            return traced_kernels[kernel]

        tracer.patch(rules, "update_fn", update_fn)

        conv_index = {}
        tail = set()
        for prog in self.progs:
            hebb = [i for i, s in enumerate(prog.stack) if isinstance(s, HebbLayer)]
            for k, i in enumerate(hebb):
                conv_index[id(prog.stack[i].geometry)] = k
            tail.update(id(s) for s in prog.stack[hebb[-1] + 1 :])

        def hebb_attrs(span, args, result):
            span.attrs.update(layer=conv_index.get(id(args[0].geometry), -1), kernel_peak=result.peak_temp_elements)

        tracer.wrap(layers, "extract_patches", "layers.extract_patches",
                    on_return=lambda span, args, r: span.attrs.update(patch_elems=r.patches.size))
        tracer.wrap(layers, "conv_forward", "layers.conv_forward")
        tracer.wrap(layers, "hebb_update", "layers.hebb_update", around=_tracked, on_return=hebb_attrs)
        tracer.wrap(layers, "apply_update", "layers.apply_update")
        tracer.wrap(layers, "relu", "layers.relu")
        tracer.wrap(layers, "max_pool", "layers.max_pool")

        def tag_tail(span, args, result):
            if id(args[0]) in tail:
                span.attrs["tail"] = True

        for cls in (HebbLayer, layers.ReLU, layers.MaxPool, layers.Flatten):
            tracer.wrap(cls, "forward", f"layers.{cls.__name__}.forward", on_return=tag_tail)
        tracer.wrap(pipeline, "pretrain", "pipeline.pretrain")
        tracer.wrap(pipeline, "extract_features", "pipeline.extract_features",
                    on_return=lambda span, args, r: span.attrs.update(images=len(r)))
        tracer.wrap(pipeline, "forward_stack", "pipeline.forward_stack", around=_tracked)
        tracer.wrap(pipeline, "train_probe", "pipeline.train_probe")
        tracer.wrap(pipeline, "evaluate", "pipeline.evaluate")
        tracer.wrap(dio, "split_regime", "data.split_regime")

    def layer_summary(self, tracer: Tracer, reps, untraced) -> dict:
        """Per-layer metrics from the spans under ``reps``; see PER_LAYER."""
        inside = tracer.descendants(reps)
        names = tracer.by_name(inside)
        wall_ns, base, steps, step_ns = self.wall_and_steps(tracer, reps, inside)
        steps = max(steps, 1)

        def row(name):
            return names.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0})

        def share(ns):
            return ns / wall_ns if wall_ns else 0.0

        kernel_ns = sum(r["total_ns"] for n, r in names.items() if n.startswith("rules.") and n.endswith(("_fast", "_naive")))
        hebb = [s for s in inside if s.name == "layers.hebb_update"]
        patches = [s for s in inside if s.name == "layers.extract_patches"]
        in_pretrain = [s for s in inside if s.parent >= 0 and tracer.spans[s.parent].name == "pipeline.pretrain"]
        metric_ns = sum(s.ns for s in in_pretrain if s.name not in NOT_METRIC)
        tail_ns = sum(s.ns for s in in_pretrain if s.attrs.get("tail"))
        feats = [s for s in inside if s.name == "pipeline.extract_features"]
        out = {
            "tensor.reduce_sum.share": share(row("tensor.reduce_sum")["self_ns"]),
            "tensor.transpose.ms": row("tensor.transpose")["self_ns"] / steps / 1e6,
            "tensor.alloc_elems_per_step": sum(r.attrs.get("alloc_total", 0) for r in reps) / steps,
            "rules.swta_fast.share": share(row("rules.swta_fast")["self_ns"]),
            "rules.hpca_fast.share": share(row("rules.hpca_fast")["self_ns"]),
            "rules.kernel_share": share(kernel_ns),
            "rules.forward_linear.calls_per_step": row("rules.forward_linear")["calls"] / steps,
            "layers.extract_patches.calls_per_step": len(patches) / steps,
            "layers.extract_patches.share": share(row("layers.extract_patches")["self_ns"]),
            "layers.patch_elems_per_step": sum(s.attrs["patch_elems"] for s in patches) / steps,
            "layers.max_pool.share": share(row("layers.max_pool")["self_ns"]),
            "layers.conv_forward.share": share(row("layers.conv_forward")["self_ns"]),
            "layers.apply_update.share": share(row("layers.apply_update")["self_ns"]),
            "pipeline.metric_pass.share": share(metric_ns),
            "pipeline.tail_forward.share": share(tail_ns),
            "pipeline.extract_features.img_per_s": (
                sum(s.attrs["images"] for s in feats) / (sum(s.ns for s in feats) / 1e9) if feats else 0.0
            ),
            "pipeline.extract_features.peak_elems": max(
                (s.attrs.get("peak_elems", 0) for s in inside if s.name == "pipeline.forward_stack"), default=0
            ),
            "pipeline.train_probe.share": share(row("pipeline.train_probe")["self_ns"]),
            "step_ms_p50": _pct(step_ns, 50) / 1e6,
            "step_ms_p90": _pct(step_ns, 90) / 1e6,
            "rules.speedup_vs_naive": 0.0,  # measured by the kernels workload only
            "rules.overhead_vs_numpy": 0.0,
        }
        setup_rows = tracer.by_name([s for s in tracer.spans if s.name in SETUP_SPANS])
        for name in SETUP_SPANS:
            row_ = setup_rows.get(name, {"calls": 0, "total_ns": 0})
            out[f"{name}.ms"] = row_["total_ns"] / max(row_["calls"], 1) / 1e6
        for k in range(2):
            out[f"layers.hebb_update.peak_elems.conv{k + 1}"] = max(
                (s.attrs["peak_elems"] for s in hebb if s.attrs.get("layer") == k), default=0
            )
            out[f"rules.peak_temp_elems.conv{k + 1}"] = self.kernel_peak(k, hebb, inside)
        # absolute times behind every share, and the bases they divide by
        self.details["trace_base"] = {"wall_ms": wall_ns / 1e6, "wall_is": base, "steps": steps}
        self.details["trace_spans"] = {
            n: {"calls": r["calls"], "self_ms_per_step": r["self_ns"] / steps / 1e6, "total_ms_per_step": r["total_ns"] / steps / 1e6}
            for n, r in sorted(names.items())
        }
        self.details["trace_derived_ms_per_step"] = {
            "rules.update_kernels": kernel_ns / steps / 1e6,
            "pipeline.metric_pass": metric_ns / steps / 1e6,
            "pipeline.tail_forward": tail_ns / steps / 1e6,
        }
        return out

    def wall_and_steps(self, tracer, reps, inside):
        return sum(r.ns for r in reps), "benchmark repetition", len(reps), [r.ns for r in reps]

    def kernel_peak(self, k, hebb, inside) -> int:
        return max((s.attrs["kernel_peak"] for s in hebb if s.attrs.get("layer") == k), default=0)


@contextmanager
def _tracked(span, args):
    """AllocationTracker around a call; its largest allocation lands in the span."""
    with AllocationTracker() as tracker:
        yield
    span.attrs["peak_elems"] = tracker.largest


def _kernel_attrs(span, args, result):
    span.attrs.update(rows=args[1].shape[0], kernel_peak=result.peak_temp_elements)


class EpochWorkload(Workload):
    """pipeline.pretrain for one epoch over the images, from the built stack."""

    def rep(self):
        prog = self.progs[0]
        start = time.perf_counter()
        out = self.checks.run("pretrain", pipeline.pretrain, prog.stack, prog.train, prog.train_cfg)
        seconds = time.perf_counter() - start
        if out is None:
            return None
        weights = hebb_weights(out[0])
        if self.first is None:
            self.first = weights
        same = len(self.first) == len(weights) and all(np.array_equal(a, b) for a, b in zip(self.first, weights))
        self.checks.record(same, "pretrain gives the same weights on every repetition")
        return len(prog.train), seconds

    def final_checks(self):
        rule = self.name.split("-", 1)[1]
        got = self.checks.run("reference pretrain", reference_pretrain, rule)
        if got is None:
            return
        with np.load(REFERENCE_DIR / f"{self.name}.npz") as ref:
            for k, w in enumerate(got):
                self.checks.close(ref[f"conv{k + 1}"], w, f"conv{k + 1} weights vs stored reference")

    def e2e(self, samples):
        return {"pretrain_img_per_s": {"value": median(x.raw_rate for x in samples), "unit": "img/s"}}

    def wall_and_steps(self, tracer, reps, inside):
        pretrains = [s for s in inside if s.name == "pipeline.pretrain"]
        step_ns = []
        for p in pretrains:
            starts = [s.start for s in tracer.descendants([p]) if s.name == "layers.hebb_update" and s.attrs.get("layer") == 0]
            step_ns += [b - a for a, b in zip(starts, starts[1:] + [p.end])]
        return sum(p.ns for p in pretrains), "pipeline.pretrain wall", len(step_ns), step_ns


class ProbeWorkload(Workload):
    """split_regime -> extract_features (labeled, test) -> train_probe -> evaluate."""

    with_test = True

    def rep(self):
        prog = self.progs[0]
        start = time.perf_counter()
        out = self.checks.run("probe step", self._probe, prog)
        seconds = time.perf_counter() - start
        if out is None:
            return None
        items, top1, probe, test_features = out
        if self.first is None:
            self.first = (top1, probe, test_features)
        self.checks.record(top1 == self.first[0], "probe_top1 is the same on every repetition")
        return items, seconds

    def _probe(self, prog):
        regime = dio.Regime(self.sizes.probe_regime, prog.train_cfg.seed)
        labeled, _ = dio.split_regime(prog.train, regime)
        features = pipeline.extract_features(prog.stack, labeled)
        probe = pipeline.train_probe(features, labeled.labels, prog.train_cfg, class_count=prog.train.class_count)
        test_features = pipeline.extract_features(prog.stack, prog.test)
        top1 = pipeline.evaluate(probe, test_features, prog.test.labels, k=1)
        return len(labeled) + len(prog.test), top1, probe, test_features

    def final_checks(self):
        if self.first is None:
            return
        top1, probe, test_features = self.first
        test = self.progs[0].test
        oracle = reference.stack_features(test.images, hebb_weights(self.progs[0].stack), inputs.CONV_LAYERS)
        self.checks.close(oracle, test_features, "test features vs per-offset conv oracle")
        recomputed = reference.top1(oracle, probe.weights, probe.bias, test.labels)
        self.checks.close([recomputed], [top1], "probe_top1 recomputed from oracle features")
        self.details["probe_top1"] = top1

    def e2e(self, samples):
        out = {"probe_s": {"value": median(x.seconds for x in samples), "unit": "s"}}
        if "probe_top1" in self.details:
            out["probe_top1"] = {"value": self.details["probe_top1"], "unit": "share"}
        return out

    def wall_and_steps(self, tracer, reps, inside):
        batches = [s.ns for s in inside if s.name == "pipeline.forward_stack"]
        return sum(r.ns for r in reps), "probe step wall", len(batches), batches


class KernelWorkload(Workload):
    """Fast SWTA/HPCA updates at both profile shapes, checked against the
    plain-numpy transcription; naive vs fast on the first rows for speedup."""

    def __init__(self, *args):
        super().__init__(*args)
        self.cases = []
        for prog in self.progs:
            images = prog.train.images
            x = Tensor(images.reshape(len(images), 1, images.shape[-1]))
            naive_rows = len(images) // self.sizes.kernel_images * self.sizes.naive_images
            self.cases.append((prog.stack[0], x, Tensor(x.data[:naive_rows])))

    def rep(self):
        rows = 0
        fast_s = numpy_s = 0.0
        speedup = {}
        for k, (layer, x, x_small) in enumerate(self.cases):
            w2d, x2d = layer.weights.data[0], x.data[:, 0, :]
            for rule in KERNEL_RULES:
                params = replace(layer.params, rule=rule)
                fast = rules.update_fn(rule, "fast")
                start = time.perf_counter()
                got = self.checks.run(f"{rule} fast", fast, layer.weights, x, params)
                seconds = time.perf_counter() - start
                if got is None:
                    return None
                fast_s += seconds
                rows += x.shape[0]
                start = time.perf_counter()
                if rule == rules.RULE_SWTA:
                    ref = reference.swta_delta(w2d, x2d, params.eta, params.temperature)
                else:
                    ref = reference.hpca_delta(w2d, x2d, params.eta)
                numpy_s += time.perf_counter() - start
                self.checks.close(ref, got.delta_w.data[0], f"{rule} fast vs numpy at shape {k + 1}")
                naive = rules.update_fn(rule, "naive")
                start = time.perf_counter()
                slow = self.checks.run(f"{rule} naive", naive, layer.weights, x_small, params)
                naive_s = time.perf_counter() - start
                start = time.perf_counter()
                small = self.checks.run(f"{rule} fast", fast, layer.weights, x_small, params)
                small_s = time.perf_counter() - start
                if slow is None or small is None:
                    return None
                self.checks.close(slow.delta_w.data, small.delta_w.data, f"{rule} naive vs fast at shape {k + 1}")
                speedup[f"{rule}.conv{k + 1}"] = naive_s / small_s
        return rows, fast_s, {"numpy_s": numpy_s, "speedup": speedup}

    def e2e(self, samples):
        return {"update_rows_per_s": {"value": median(x.raw_rate for x in samples), "unit": "rows/s"}}

    def layer_summary(self, tracer, reps, untraced):
        """Adds the naive/fast and fast/numpy time ratios of the untraced
        repetitions."""
        out = super().layer_summary(tracer, reps, untraced)
        speedup = {k: median(x.extra["speedup"][k] for x in untraced) for k in untraced[0].extra["speedup"]} if untraced else {}
        overhead = [x.seconds / x.extra["numpy_s"] for x in untraced if x.extra["numpy_s"] > 0]
        out["rules.speedup_vs_naive"] = min(speedup.values(), default=0.0)
        out["rules.overhead_vs_numpy"] = median(overhead) if overhead else 0.0
        self.details["kernel_stats"] = {
            "speedup_vs_naive": speedup,
            "naive_rows": [x_small.shape[0] for _, _, x_small in self.cases],
            "overhead_vs_numpy": out["rules.overhead_vs_numpy"],
        }
        return out

    def wall_and_steps(self, tracer, reps, inside):
        calls = [s for s in inside if s.name.startswith("rules.") and s.name.endswith(("_fast", "_naive"))]
        full = {x.shape[0] for _, x, _ in self.cases}
        steps = [s.ns for s in calls if s.name.endswith("_fast") and s.attrs.get("rows") in full]
        return sum(r.ns for r in reps), "benchmark repetition wall", len(calls), steps

    def kernel_peak(self, k, hebb, inside):
        rows = self.cases[k][1].shape[0]
        return max((s.attrs["kernel_peak"] for s in inside if s.name.endswith("_fast") and s.attrs.get("rows") == rows), default=0)


CLASSES_BY_NAME = {
    "epoch-hpca": EpochWorkload,
    "epoch-swta": EpochWorkload,
    "probe": ProbeWorkload,
    "kernels": KernelWorkload,
}


def instrument_setup(tracer: Tracer) -> None:
    tracer.wrap(config, "parse_config", "config.parse_config")
    tracer.wrap(dio, "load_dataset", "data.load_dataset")
    tracer.wrap(experiment, "build_dataset", "experiment.build_dataset")
    tracer.wrap(experiment, "build_stack", "experiment.build_stack")


def _measure(rep, seconds: float, min_reps: int, calibrator) -> list[Sample]:
    samples, attempts = [], 0
    deadline = time.monotonic() + seconds
    while attempts < min_reps or time.monotonic() < deadline:
        attempts += 1
        calibration_s = calibrator()
        out = rep()
        if out is not None:
            samples.append(Sample(out[0], out[1], calibration_s, *out[2:]))
    return samples


def run(name: str, config_paths, seconds: float, trace: bool, sizes: inputs.Sizes, on_ready=None) -> dict:
    """Set up, measure, check; returns the report of this process.  A traced
    run writes its spans to trace.jsonl next to the first config file."""
    checks = Checks()
    cls = CLASSES_BY_NAME[name]
    tracer = Tracer()
    with tracer:
        if trace:
            instrument_setup(tracer)
        progs = setup(config_paths, cls.with_test)
    if on_ready:
        on_ready()
    work = cls(name, progs, sizes, checks)
    work.rep()  # warm-up, untimed
    calibrator = calibrate.Calibrator()
    samples = _measure(work.rep, seconds / 2 if trace else seconds, sizes.min_reps, calibrator)
    if trace:
        reps = []

        def traced_rep():
            span = tracer.begin("bench.rep")
            with AllocationTracker() as alloc:
                try:
                    return work.rep()
                finally:
                    tracer.end(span)
                    span.attrs["alloc_total"] = alloc.total
                    reps.append(span)

        with tracer:
            work.instrument(tracer)
            traced = _measure(traced_rep, seconds / 2, sizes.min_reps, calibrator)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    items_per_s = median(x.rate for x in samples) if samples else 0.0
    work.final_checks()
    e2e = {
        "items_per_s": {"value": items_per_s, "unit": "1/s"},
        "raw_items_per_s": {"value": median(x.raw_rate for x in samples) if samples else 0.0, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "error_rate": {"value": checks.failed / max(checks.attempted, 1), "unit": "share"},
    }
    if samples:
        e2e.update(work.e2e(samples))
    report = {
        "workload": name,
        "end_to_end": e2e,
        "repetitions": {
            "count": len(samples),
            "items_per_s": [x.raw_rate for x in samples],
            "calibration_s": [x.calibration_s for x in samples],
        },
    }
    if trace:
        per_layer = work.layer_summary(tracer, reps, samples)
        traced_rate = median(x.rate for x in traced) if traced else 0.0
        per_layer["trace.overhead"] = 1.0 - traced_rate / items_per_s if items_per_s else 0.0
        report["per_layer"] = {n: {"value": per_layer[n], "unit": u} for n, u in PER_LAYER.items()}
        spans_file = Path(config_paths[0]).parent / "trace.jsonl"
        tracer.write_jsonl(spans_file)
        report["trace"] = {
            "untraced_items_per_s": items_per_s,
            "traced_items_per_s": traced_rate,
            "spans_file": str(spans_file),
            "span_count": len(tracer.spans),
        }
    report["checks"] = {"attempted": checks.attempted, "failed": checks.failed, "errors": checks.errors}
    report["details"] = work.details
    return report
