import json
import struct
import subprocess
import sys
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from fasthebb import cli as cli_mod, data as dio, pipeline, rules, tensor as tc
from fasthebb.bench import CSV_COLUMNS, bench_kernels
from fasthebb.cli import main
from fasthebb.config import parse_config
from fasthebb.data import Dataset, save_dataset
from fasthebb.errors import ConfigError
from fasthebb.experiment import build_stack
from fasthebb.layers import HebbLayer
from fasthebb.pipeline import LinearProbe, TrainConfig, load_checkpoint, save_checkpoint
from fasthebb.rules import LearningParams, UpdateResult
from fasthebb.tensor import Tensor

ROOT = Path(__file__).resolve().parents[1]

DEMO_CONFIG = """\
[data]
kind = clusters
num = 200
test_num = 120
dims = 16
clusters = 4
separation = 10.0
seed = 3

[model]
init_seed = 0
layer1 = dense n=6 rule=hpca impl=fast lr=0.01
layer2 = relu

[train]
epochs = 4
batch_size = 32
hebb_lr = 0.01
probe_lr = 0.05
seed = 0
"""


IMAGE_CONFIG = """\
[data]
kind = fhds
path = {data}
test_path = {data}

[model]
{layers}

[train]
epochs = 1
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _pretrain(tmp_path, text, out="m.fhb"):
    return ["pretrain", "--config", _write(tmp_path, "c.cfg", text), "--out", str(tmp_path / out)]


def _cli(*args):
    """argv with ``{tmp}`` set to the test's tmp_path."""
    return lambda tmp_path: [arg.format(tmp=tmp_path) for arg in args]


def _demo(old, new, text=DEMO_CONFIG):
    """pretrain on ``text`` with its first ``old`` replaced by ``new``."""
    assert old in text
    return lambda tmp_path: _pretrain(tmp_path, text.replace(old, new, 1))


def _image(*layers):
    """pretrain on two zero 3x32x32 images through ``layers``."""

    def argv(tmp_path):
        save_dataset(tmp_path / "d.fhds", Dataset(np.zeros((2, 3, 32, 32)), np.zeros(2), 1))
        specs = "\n".join(f"layer{i} = {spec}" for i, spec in enumerate(layers, 1))
        return _pretrain(tmp_path, IMAGE_CONFIG.format(data=tmp_path / "d.fhds", layers=specs))

    return argv


def _demo_ckpt(command, *args, weights=np.zeros((1, 6, 16)), probe=np.zeros((4, 6)), edit=bytes, echo=DEMO_CONFIG):
    """``command`` on a checkpoint of ``echo`` with these layer and probe
    weights, its bytes passed through ``edit``."""

    def argv(tmp_path):
        path = tmp_path / "m.fhb"
        stack = [HebbLayer(Tensor(weights), LearningParams(rule="hpca"))]
        save_checkpoint(path, stack, LinearProbe(probe, np.zeros(4)), echo)
        path.write_bytes(edit(path.read_bytes()))
        return [command, "--ckpt", str(path), *args]

    return argv


def _echo_not_utf8(raw):
    """The checkpoint ``raw`` with its config echo starting with bytes that are not UTF-8."""
    raw = bytearray(raw)
    echo = len(raw) - len(DEMO_CONFIG.encode())
    raw[echo : echo + 2] = b"\xff\xfe"
    return bytes(raw)


def _with_value(shape, index, value):
    """Zeros of ``shape`` with ``value`` at ``index``."""
    out = np.zeros(shape)
    out[index] = value
    return out


def _flat_fhds(tmp_path):
    """pretrain on an FHDS file of four 6-value images: a 2-d image array."""
    header = b"FHDS" + struct.pack("<4I", 1, 2, 4, 6)
    _write_bytes(tmp_path / "d.fhds", header + bytes(8 * 24) + struct.pack("<5I", 1, 0, 0, 0, 0))
    return _pretrain(tmp_path, IMAGE_CONFIG.format(data=tmp_path / "d.fhds", layers="layer1 = dense n=2"))


def _nan_pixel(tmp_path):
    """pretrain through a conv layer on two zero 3x32x32 images, one pixel of which is NaN."""
    images = np.zeros((2, 3, 32, 32))
    images[1, 2, 5, 7] = np.nan
    save_dataset(tmp_path / "d.fhds", Dataset(images, np.zeros(2), 1))
    return _pretrain(tmp_path, IMAGE_CONFIG.format(data=tmp_path / "d.fhds", layers="layer1 = conv k=3 n=2"))


# id: (argv from tmp_path, exit code, text the one stderr line must contain)
BAD_INPUTS = {
    "epochs-0": (_demo("epochs = 4", "epochs = 0"), 2, "epochs"),
    # the missing data file would be the error if the data were built first
    "epochs-0-before-data": (
        _demo("epochs = 4", "epochs = 0", DEMO_CONFIG.replace("kind = clusters", "kind = fhds\npath = x")),
        2, "epochs",
    ),
    "batch-size-0": (_demo("batch_size = 32", "batch_size = 0"), 2, "batch_size"),
    "probe-lr-negative": (_demo("probe_lr = 0.05", "probe_lr = -1"), 2, "probe_lr"),
    "schedule-foo": (_demo("epochs = 4", "schedule = foo"), 2, "schedule"),
    "nesterov-maybe": (_demo("epochs = 4", "nesterov = maybe"), 2, "nesterov"),
    "clusters-above-dims": (_demo("clusters = 4", "clusters = 17"), 2, "clusters"),
    "num-negative": (_demo("num = 200", "num = -5"), 2, "'num'"),
    "num-0": (_demo("num = 200", "num = 0"), 2, "'num'"),
    "data-seed-negative": (_demo("seed = 3", "seed = -1"), 2, "'seed'"),
    "train-seed-negative": (_demo("\nseed = 0\n", "\nseed = -1\n"), 2, "seed"),
    "momentum-1": (_demo("epochs = 4", "epochs = 4\nmomentum = 1"), 2, "momentum"),
    "momentum-negative": (_demo("epochs = 4", "epochs = 4\nmomentum = -0.5"), 2, "momentum"),
    "momentum-nan": (_demo("epochs = 4", "epochs = 4\nmomentum = nan"), 2, "momentum"),
    "momentum-before-data": (
        _demo("epochs = 4", "epochs = 4\nmomentum = 1.5", DEMO_CONFIG.replace("kind = clusters", "kind = fhds\npath = x")),
        2, "momentum",
    ),
    "weight-decay-negative": (_demo("epochs = 4", "epochs = 4\nweight_decay = -0.1"), 2, "weight_decay"),
    "weight-decay-nan": (_demo("epochs = 4", "epochs = 4\nweight_decay = nan"), 2, "weight_decay"),
    "weight-decay-before-data": (
        _demo("epochs = 4", "epochs = 4\nweight_decay = -1", DEMO_CONFIG.replace("kind = clusters", "kind = fhds\npath = x")),
        2, "weight_decay",
    ),
    "conv-stride-0": (_image("conv k=3 n=2 stride=0"), 2, "layer1:"),
    "maxpool-stride-0": (_image("conv k=3 n=2", "maxpool window=2 stride=0"), 2, "layer2:"),
    "maxpool-window-0": (_image("conv k=3 n=2", "maxpool window=0"), 2, "layer2:"),
    "conv-pad-negative": (_image("conv k=3 n=2 pad=-1"), 2, "layer1:"),
    "conv-k-40": (_image("conv k=40 n=2"), 2, "layer1:"),
    "eval-topk-0": (_cli("eval", "--ckpt", "{tmp}/m.fhb", "--topk", "0"), 1, "--topk"),
    "probe-seed-negative": (
        _cli("probe", "--ckpt", "{tmp}/m.fhb", "--regime", "25", "--seed", "-1"), 1, "--seed",
    ),
    "bench-seed-negative": (
        _cli("bench", "--grid", "B=8;N=2;S=3", "--out", "{tmp}/x.csv", "--seed", "-1"), 1, "--seed",
    ),
    "bench-out-in-missing-directory": (
        _cli("bench", "--grid", "B=8;N=2;S=3", "--out", "{tmp}/missing/x.csv"), 2, "No such file or directory",
    ),
    "bench-json-is-directory": (
        _cli("bench", "--grid", "B=8;N=2;S=3", "--out", "{tmp}/x.csv", "--json", "{tmp}"), 2, "directory",
    ),
    "bench-grid-component-without-equals": (
        _cli("bench", "--grid", "B=8;N2;S=3", "--out", "{tmp}/x.csv"), 2, "bad grid component 'N2'",
    ),
    "bench-grid-axis-k": (
        _cli("bench", "--grid", "B=8;N=2;K=3", "--out", "{tmp}/x.csv"), 2, "grid axis must be B, N or S, got 'K'",
    ),
    "report-ragged-csv": (
        lambda tmp_path: ["report", "--in", _write(tmp_path, "r.csv", "a,b,c\n1,2\n")], 2, "column",
    ),
    "pretrain-out-directory": (lambda tmp_path: _pretrain(tmp_path, DEMO_CONFIG, out="."), 2, "directory"),
    "pretrain-out-in-missing-directory": (
        lambda tmp_path: _pretrain(tmp_path, DEMO_CONFIG, out="missing/m.fhb"), 2, "No such file or directory",
    ),
    "probe-out-in-missing-directory": (
        lambda tmp_path: _demo_ckpt("probe", "--regime", "25", "--out", str(tmp_path / "missing" / "m.fhb"))(tmp_path),
        2, "No such file or directory",
    ),
    "key-set-twice": (_demo("epochs = 4", "epochs = 2\nepochs = 5"), 2, "key 'epochs' is set twice"),
    "layer-key-zero-padded": (_demo("layer2 = relu", "layer2 = relu\nlayer01 = relu"), 2, "unknown key 'layer01'"),
    "report-not-utf8": (
        lambda tmp_path: ["report", "--in", str(_write_bytes(tmp_path / "m.fhb", b"FHB1\x01\x00\xff\xfe"))],
        2, "UTF-8",
    ),
    # the offset counts from the start of the file, not of the block it was read in
    "report-not-utf8-past-8-kib": (
        lambda tmp_path: ["report", "--in", str(_write_bytes(tmp_path / "r.csv", b"a,b\n" * 5000 + b"\xff\n"))],
        2, "r.csv is not UTF-8 text (byte 20000)",
    ),
    "eval-echo-not-utf8": (_demo_ckpt("eval", edit=_echo_not_utf8), 2, "config echo is not UTF-8"),
    "probe-echo-not-utf8": (_demo_ckpt("probe", "--regime", "25", edit=_echo_not_utf8), 2, "config echo is not UTF-8"),
    "eval-nan-probe": (
        _demo_ckpt("eval", probe=_with_value((4, 6), (1, 2), np.nan)),
        2, "m.fhb: probe weights: 1 of 24 values are NaN or Inf",
    ),
    "probe-inf-weights": (
        _demo_ckpt("probe", "--regime", "25", weights=_with_value((1, 6, 16), (0, 5, 15), -np.inf)),
        2, "m.fhb: Hebbian weight block 1: 1 of 96 values are NaN or Inf",
    ),
    "fhds-images-not-4d": (_flat_fhds, 2, "4-d"),
    "fhds-nan-pixel": (_nan_pixel, 2, "d.fhds: 1 of 6144 image values are NaN or Inf"),
    # 728 TiB of labels: more than any user address space
    "num-out-of-memory": (_demo("num = 200", "num = 100000000000000"), 2, "error: out of memory: "),
    "data-without-kind": (_demo("kind = clusters\n", ""), 2, "missing required key 'kind'"),
    "data-kind-foo": (_demo("kind = clusters", "kind = foo"), 2, "unknown data kind 'foo'"),
    "dense-without-n": (_demo("dense n=6 ", "dense "), 2, "layer1: missing required key 'n'"),
    "temperature-0": (_demo("lr=0.01", "lr=0.01 t=0"), 2, "layer1: temperature must be > 0"),
    "empty-layer-spec": (_demo("layer2 = relu", "layer2 ="), 2, "layer2: empty layer spec"),
    "layer-option-without-equals": (_demo("rule=hpca", "rule"), 2, "layer1: bad layer option 'rule'"),
    "conv-after-flatten": (_image("flatten", "conv k=3 n=2"), 2, "layer2: conv needs image-shaped input"),
    "config-line-without-equals": (_demo("epochs = 4", "epochs 4"), 2, "expected 'key = value'"),
    "report-empty-file": (lambda tmp_path: ["report", "--in", _write(tmp_path, "r.csv", "")], 2, "r.csv is empty"),
    "report-rows-failed-equivalence": (
        lambda tmp_path: ["report", "--in", _write(tmp_path, "r.csv", "rule,equiv_ok\nswta,0\nhpca,1\nswta,0\n")],
        3, "r.csv: 2 rows failed equivalence",
    ),
    "config-not-utf8": (
        lambda tmp_path: ["pretrain", "--config", str(_write_bytes(tmp_path / "c.cfg", b"[data]\nkind = clusters\xff\xfe\n")),
                          "--out", str(tmp_path / "m.fhb")],
        2, "c.cfg is not UTF-8 text (byte 22)",
    ),
    # a NaN or Inf [data] value is a config error before any sample is drawn
    "separation-nan": (_demo("separation = 10.0", "separation = nan"), 2, "bad value for 'separation': 'nan'"),
    "separation-inf": (_demo("separation = 10.0", "separation = inf"), 2, "bad value for 'separation': 'inf'"),
    "noise-std-nan": (_demo("seed = 3", "seed = 3\nnoise_std = nan"), 2, "bad value for 'noise_std': 'nan'"),
    "cov-diag-nan": (
        _demo("kind = clusters", "kind = gaussian\ncov_diag = " + ",".join(["1"] * 15 + ["nan"])),
        2, "bad value for 'cov_diag'",
    ),
    # a finite sample scale whose squares overflow is a config error too
    "separation-huge": (
        _demo("separation = 10.0", "separation = 1e308"), 2, "'separation' * 'noise_std' must be <= 1e+150, got 1e+308",
    ),
    "noise-std-huge": (
        _demo("seed = 3", "seed = 3\nnoise_std = 1e150"), 2, "'separation' * 'noise_std' must be <= 1e+150, got 1e+151",
    ),
    "cov-diag-huge": (
        _demo("kind = clusters", "kind = gaussian\ncov_diag = " + ",".join(["1"] * 15 + ["1e151"])),
        2, "'cov_diag' entries must be <= 1e+150, got 1e+151",
    ),
    "cov-diag-zero": (
        _demo("kind = clusters", "kind = gaussian\ncov_diag = " + ",".join(["1"] * 15 + ["0"])),
        2, "covariance is not positive definite: variance 0 is not > 0",
    ),
    # test_num is checked whenever [data] is built, not first by probe
    "test-num-0": (_demo("test_num = 120", "test_num = 0"), 2, "'test_num' must be >= 1, got 0"),
    # 40 samples at 1% round to no labeled sample
    "probe-regime-1-of-40": (
        lambda tmp_path: _demo_ckpt(
            "probe", "--regime", "1", "--out", str(tmp_path / "p.fhb"), echo=DEMO_CONFIG.replace("num = 200", "num = 40")
        )(tmp_path),
        3, "the 1% regime labels none of the 40 train samples",
    ),
}

TWO_HEBB_CONFIG = DEMO_CONFIG.replace("layer2 = relu", "layer2 = relu\nlayer3 = dense n=4 rule=hpca")

# id: (config echo, weight blocks as (shape, rule), probe weight shape, command,
#      text the one stderr line must contain)
CKPT_MISMATCHES = {
    "short-count": (
        TWO_HEBB_CONFIG, [((1, 6, 16), "hpca")], (4, 6), "probe",
        "layer1, layer3: expected 2 Hebbian weight blocks, got 1",
    ),
    "wrong-shape": (
        DEMO_CONFIG, [((1, 5, 16), "hpca")], (4, 6), "probe",
        "layer1: expected weights of shape (1, 6, 16), got (1, 5, 16)",
    ),
    "wrong-rule": (DEMO_CONFIG, [((1, 6, 16), "swta")], (4, 6), "probe", "layer1: expected rule 'hpca', got 'swta'"),
    "wrong-rule-eval": (DEMO_CONFIG, [((1, 6, 16), "swta")], (4, 6), "eval", "layer1: expected rule 'hpca', got 'swta'"),
    "probe-width-eval": (
        DEMO_CONFIG.replace("dense n=6", "dense n=16"), [((1, 16, 16), "hpca")], (8, 17), "eval",
        "probe: expected weights of shape (8, 16), got (8, 17)",
    ),
}


def _record_loads(monkeypatch):
    """The paths ``data.load_dataset`` is called with from now on."""
    loads = []

    def load(path, _orig=dio.load_dataset):
        loads.append(str(path))
        return _orig(path)

    monkeypatch.setattr(dio, "load_dataset", load)
    return loads


def _write_bytes(path, raw):
    path.write_bytes(raw)
    return path


@pytest.fixture
def demo_config(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(DEMO_CONFIG)
    return path


def _set_train_key(key, value):
    """The demo config with [train] ``key`` set to ``value``, in place of any line that sets it."""
    lines = [line for line in DEMO_CONFIG.splitlines(keepends=True) if not line.startswith(f"{key} = ")]
    return "".join(lines).replace("[train]\n", f"[train]\n{key} = {value}\n")


# key: (demo config with that float key set to {value}, prefix of its error line); every
# float field of TrainConfig is a [train] key, so a new one is covered here unedited
FLOAT_KEYS = {
    **{f.name: (_set_train_key(f.name, "{value}"), "") for f in fields(TrainConfig) if type(f.default) is float},
    "lr": (DEMO_CONFIG.replace("lr=0.01", "lr={value}"), "layer1: "),
    "t": (DEMO_CONFIG.replace("lr=0.01", "lr=0.01 t={value}"), "layer1: "),
    "separation": (DEMO_CONFIG.replace("separation = 10.0", "separation = {value}"), ""),
    "noise_std": (DEMO_CONFIG.replace("seed = 3", "seed = 3\nnoise_std = {value}"), ""),
    "cov_diag": (DEMO_CONFIG.replace("kind = clusters", "kind = gaussian\ncov_diag = " + "1," * 15 + "{value}"), ""),
}


class TestConfigParser:
    def test_parses_sections(self):
        cfg = parse_config(DEMO_CONFIG)
        assert cfg["data"]["kind"] == "clusters"
        assert cfg["model"]["layer1"].startswith("dense")
        assert cfg["train"]["epochs"] == "4"

    def test_unknown_key_is_error(self):
        for line in ("bogus = 1", "classes = 10"):
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(f"[data]\nkind = clusters\n{line}\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[train]\nepochs = 2\nepochs = 5\n", "line 3: key 'epochs' is set twice in \\[train\\]"),
            ("[train]\nepochs = 2\n[data]\nkind = fhds\n[train]\nepochs = 5\n", "line 6: key 'epochs' is set twice"),
            ("[model]\nlayer1 = relu\nlayer01 = flatten\n", "line 3: unknown key 'layer01'"),
            ("[model]\nlayer01 = relu\n", "line 2: unknown key 'layer01'"),
        ],
        ids=["set-twice", "set-twice-across-blocks", "zero-padded-stage", "zero-padded-alone"],
    )
    def test_ambiguous_key_is_error(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_unknown_section_is_error(self):
        with pytest.raises(ConfigError):
            parse_config("[wat]\nx = 1\n")

    def test_key_outside_section_is_error(self):
        with pytest.raises(ConfigError):
            parse_config("kind = clusters\n")

    def test_comments_ignored(self):
        cfg = parse_config("# top\n[data]\nkind = gaussian  # inline\n")
        assert cfg["data"]["kind"] == "gaussian"


class TestBenchKernels:
    def test_report_structure(self):
        report = bench_kernels([(16, 3, 5)], reps=5, seed=0)
        assert len(report.rows) == 4  # 2 rules x 2 impls
        csv = report.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 5
        assert report.all_equivalent()

    def test_tiny_case_agrees(self):
        report = bench_kernels([(1, 1, 1)], reps=5, seed=1)
        assert all(row.equiv_ok for row in report.rows)

    def test_each_kernel_runs_reps_plus_one_times_per_size(self, monkeypatch):
        # the equivalence pair is the untimed warm-up, then each kernel runs reps timed times
        calls = {}
        lookup = rules.update_fn

        def counted(rule, impl):
            kernel = lookup(rule, impl)

            def run(w, x, params):
                key = (rule, impl, x.shape[0])
                calls[key] = calls.get(key, 0) + 1
                return kernel(w, x, params)

            return run

        monkeypatch.setattr(rules, "update_fn", counted)
        bench_kernels([(8, 2, 3), (16, 2, 3)], reps=6, seed=0)
        assert calls == {(rule, impl, b): 7 for rule in rules.RULES for impl in ("naive", "fast") for b in (8, 16)}

    def test_speedup_definition(self):
        report = bench_kernels([(512, 16, 32)], reps=5, seed=0)
        by_impl = {(r.rule, r.impl): r for r in report.rows}
        for rule in ("swta", "hpca"):
            naive = by_impl[(rule, "naive")]
            fast = by_impl[(rule, "fast")]
            assert naive.speedup == 1.0
            assert fast.speedup == pytest.approx(
                naive.median_ns / fast.median_ns, rel=1e-6
            )

    def test_peak_ratio_linear_in_min_b_s(self):
        s, n = 24, 6
        sweep = [4, 8, 16, 32, 64, 128]
        ratios, mins = [], []
        for b in sweep:
            report = bench_kernels([(b, n, s)], ["swta"], reps=5, seed=0)
            by_impl = {r.impl: r for r in report.rows}
            ratios.append(by_impl["naive"].peak_elems / by_impl["fast"].peak_elems)
            mins.append(min(b, s))
        coeffs = np.polyfit(mins, ratios, 1)
        pred = np.polyval(coeffs, mins)
        ss_res = np.sum((np.array(ratios) - pred) ** 2)
        ss_tot = np.sum((np.array(ratios) - np.mean(ratios)) ** 2)
        assert 1 - ss_res / ss_tot >= 0.99

    def test_reps_floor(self):
        with pytest.raises(ValueError):
            bench_kernels([(4, 2, 2)], reps=3)

    def test_environment_reports_the_pool_workers(self, pool_workers):
        report = bench_kernels([(16, 3, 5)], ["hpca"], reps=5, seed=0)
        assert report.environment["pool_workers"] == pool_workers
        assert json.loads(report.to_json())["environment"]["pool_workers"] == pool_workers

    def test_environment_names_the_blas_core(self, monkeypatch):
        report = bench_kernels([(16, 3, 5)], ["hpca"], reps=5, seed=0)
        core = json.loads(report.to_json())["environment"]["blas_core"]
        if tc.openblas_threads() is not None:  # numpy's OpenBLAS names its kernels' core, such as SkylakeX
            assert isinstance(core, str) and core and core == tc.openblas_core()
        monkeypatch.setattr(tc, "_openblas", lambda: None)
        report = bench_kernels([(16, 3, 5)], ["hpca"], reps=5, seed=0)
        assert '"blas_core": null' in report.to_json()

    def test_float32_mode(self):
        report = bench_kernels([(32, 4, 8)], reps=5, seed=0, dtype=np.float32)
        assert report.environment["precision"] == "float32"
        assert report.all_equivalent()

    def test_csv_stable_without_timing(self):
        timed = [CSV_COLUMNS.index("median_ns"), CSV_COLUMNS.index("speedup")]

        def untimed_csv():
            rows = [line.split(",") for line in bench_kernels([(16, 3, 5)], reps=5, seed=0).to_csv().splitlines()]
            for row in rows[1:]:
                for i in timed:
                    row[i] = ""
            return rows

        assert untimed_csv() == untimed_csv()


class TestCli:
    def test_no_args_usage(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_usage(self, tmp_path, capsys):
        assert main(["bench", "--grid", "B=8;N=2;S=3", "--out", str(tmp_path / "x.csv"), "--nope"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: fasthebb ") and err.endswith("\nerror: unrecognized arguments: --nope\n")

    def test_bench_subcommand(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--grid", "B=16,32;N=3;S=5", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 2 * 2 * 2  # 2 sizes x 2 rules x 2 impls

    def test_bench_bad_grid_is_data_error(self, tmp_path):
        code = main(["bench", "--grid", "B=16;N=3", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize(
        "args, code",
        [
            (["--grid", "B=8;N=2;S=3", "--reps", "3"], 1),
            (["--grid", "B=8;N=2;S=3", "--rule", "hcpa"], 1),
            (["--grid", "B=8;N=2;S=3", "--rule", ","], 1),
            (["--grid", "B=8;N=2;S=3", "--rule", ""], 1),
            (["--grid", "B=x;N=2;S=3"], 2),
            (["--grid", "B=0;N=2;S=3"], 2),
            (["--grid", "B=8;N=-1;S=3"], 2),
            (["--grid", "B=8;B=16;N=2;S=3"], 2),
        ],
        ids=["reps-floor", "unknown-rule", "empty-rule-list", "empty-rule", "non-integer", "zero", "negative", "repeated-axis"],
    )
    def test_bench_bad_arguments_one_line(self, args, code, tmp_path, capsys):
        assert main(["bench", *args, "--out", str(tmp_path / "x.csv")]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_probe_regime_outside_choices_is_usage(self, tmp_path, capsys):
        assert main(["probe", "--ckpt", str(tmp_path / "m.fhb"), "--regime", "7"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "invalid choice: 7" in err

    @pytest.mark.parametrize("option", ["impl=fsat", "rule=hcpa", "bogus=3", "lr=-1", "n=0", "n=-2"])
    def test_bad_layer_option_is_config_error(self, option, tmp_path, capsys):
        text = DEMO_CONFIG.replace("impl=fast lr=0.01", f"lr=0.01 {option}")
        with pytest.raises(ConfigError):
            build_stack(parse_config(text), (16,), 0.01)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "m.fhb")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "m.fhb").exists()

    @pytest.mark.parametrize("case", list(BAD_INPUTS))
    def test_bad_input_exits_with_one_line(self, case, tmp_path, capsys):
        argv, code, needle = BAD_INPUTS[case]
        argv = argv(tmp_path)
        before = sorted(tmp_path.iterdir())
        assert main(argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert needle in err
        assert sorted(tmp_path.iterdir()) == before  # no checkpoint or report written

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", list(FLOAT_KEYS))
    def test_non_finite_float_key_is_config_error(self, key, value, tmp_path, capsys):
        text, prefix = FLOAT_KEYS[key]
        raw = value if key != "cov_diag" else "1," * 15 + value
        assert main(_pretrain(tmp_path, text.format(value=value))) == 2
        assert capsys.readouterr().err == f"error: {prefix}bad value for {key!r}: {raw!r}\n"
        assert not (tmp_path / "m.fhb").exists()

    @pytest.mark.parametrize("case", list(CKPT_MISMATCHES))
    def test_checkpoint_that_does_not_fit_its_config(self, case, tmp_path, capsys):
        echo, blocks, probe_shape, command, needle = CKPT_MISMATCHES[case]
        stack = [HebbLayer(Tensor(np.zeros(shape)), LearningParams(rule=rule)) for shape, rule in blocks]
        ckpt = tmp_path / "m.fhb"
        save_checkpoint(ckpt, stack, LinearProbe(np.zeros(probe_shape), np.zeros(probe_shape[0])), echo)
        raw = ckpt.read_bytes()
        argv = {"probe": ["--regime", "25"], "eval": []}[command]
        assert main([command, "--ckpt", str(ckpt), *argv]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert needle in err
        assert sorted(tmp_path.iterdir()) == [ckpt]
        assert ckpt.read_bytes() == raw

    @pytest.mark.parametrize(
        "command, test_file, needle",
        [
            ("probe", None, "t.fhds"),
            ("probe", b"FHDS\x01", "t.fhds"),
            ("probe", np.ones((8, 1, 4, 5)), "(1, 4, 5), train images (1, 4, 4)"),
            ("eval", np.ones((8, 1, 4, 5)), "(1, 4, 5), train images (1, 4, 4)"),
        ],
        ids=["missing", "truncated", "other-shape", "eval-other-shape"],
    )
    def test_probe_checks_the_test_split_before_any_feature(self, command, test_file, needle, tmp_path, capsys, monkeypatch):
        """``probe``, and ``eval`` on a checkpoint probed before its test file changed."""
        save_dataset(tmp_path / "d.fhds", Dataset(np.ones((8, 1, 4, 4)), np.zeros(8), 1))
        text = IMAGE_CONFIG.format(data=tmp_path / "d.fhds", layers="layer1 = dense n=2")
        text = text.replace(f"test_path = {tmp_path / 'd.fhds'}", f"test_path = {tmp_path / 't.fhds'}")
        assert main(_pretrain(tmp_path, text)) == 0
        if command == "eval":
            save_dataset(tmp_path / "t.fhds", Dataset(np.ones((8, 1, 4, 4)), np.zeros(8), 1))
            assert main(["probe", "--ckpt", str(tmp_path / "m.fhb"), "--regime", "25"]) == 0
        if isinstance(test_file, bytes):
            _write_bytes(tmp_path / "t.fhds", test_file)
        elif test_file is not None:
            save_dataset(tmp_path / "t.fhds", Dataset(test_file, np.zeros(len(test_file)), 1))
        calls = []
        monkeypatch.setattr(pipeline, "extract_features", lambda *args: calls.append(args))
        capsys.readouterr()
        loads = _record_loads(monkeypatch)
        argv = {"probe": ["--regime", "25"], "eval": []}[command]
        assert main([command, "--ckpt", str(tmp_path / "m.fhb"), *argv]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "t.fhds" in err and needle in err
        assert calls == []
        assert str(tmp_path / "t.fhds") not in loads  # the headers are compared before the test split loads

    @pytest.mark.parametrize("command", ["probe", "eval"])
    def test_checkpoint_is_checked_before_any_image(self, command, tmp_path, capsys, monkeypatch):
        save_dataset(tmp_path / "d.fhds", Dataset(np.ones((8, 1, 4, 4)), np.zeros(8), 1))
        text = IMAGE_CONFIG.format(data=tmp_path / "d.fhds", layers="layer1 = dense n=2\nlayer2 = dense n=3")
        stack = [HebbLayer(Tensor(np.zeros((1, 2, 16))), LearningParams())]
        save_checkpoint(tmp_path / "m.fhb", stack, LinearProbe(np.zeros((1, 3)), np.zeros(1)), text)
        loads = _record_loads(monkeypatch)
        argv = {"probe": ["--regime", "25"], "eval": []}[command]
        assert main([command, "--ckpt", str(tmp_path / "m.fhb"), *argv]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "layer1, layer2: expected 2 Hebbian weight blocks, got 1" in err
        assert loads == []

    def test_pretrain_prints_its_converged_epoch(self, tmp_path, capsys):
        text = (ROOT / "configs" / "demo.cfg").read_text()
        text = text.replace("lr=0.005", "lr=1e-300").replace("epochs = 20", "epochs = 10")
        assert main(_pretrain(tmp_path, text)) == 0
        assert "converged at epoch 5\n" in capsys.readouterr().out

    def test_gaussian_data_with_heavy_ball_probe(self, tmp_path, capsys):
        text = DEMO_CONFIG.replace("kind = clusters", "kind = gaussian\ncov_diag = 4,3,2,1,1,1,1,1,1,1,1,1,1,1,1,0.5")
        text = text.replace("clusters = 4\nseparation = 10.0\n", "").replace("epochs = 4", "epochs = 4\nnesterov = false")
        assert main(_pretrain(tmp_path, text)) == 0
        assert main(["probe", "--ckpt", str(tmp_path / "m.fhb"), "--regime", "25"]) == 0
        assert "labeled samples: 50" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "data, layer",
        [
            ("kind = fhds\npath = {tmp}/missing.fhds", "bogus"),
            ("kind = fhds\npath = {tmp}/d.fhds", "conv k=5 n=2"),
            ("kind = cifar10\npath = {tmp}/missing.bin", "conv k=40 n=2"),
            ("kind = clusters\nnum = 400000\ndims = 8\nclusters = 2\nseparation = 3.0", "dense n=0"),
        ],
        ids=["unknown-kind-missing-file", "kernel-over-fhds-header", "kernel-over-cifar", "zero-neurons"],
    )
    def test_pretrain_checks_the_model_before_any_data(self, data, layer, tmp_path, capsys, monkeypatch):
        save_dataset(tmp_path / "d.fhds", Dataset(np.zeros((2, 1, 4, 4)), np.zeros(2), 1))
        calls = []
        monkeypatch.setattr(cli_mod, "build_dataset", lambda *args: calls.append(args))
        text = f"[data]\n{data.format(tmp=tmp_path)}\n\n[model]\nlayer1 = {layer}\n"
        assert main(_pretrain(tmp_path, text)) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and err.startswith("error: layer1: ")
        assert calls == []

    @pytest.mark.parametrize("out", [".", "missing/m.fhb"], ids=["directory", "in-missing-directory"])
    def test_pretrain_checks_the_out_path_before_any_data(self, out, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli_mod, "build_dataset", lambda *args: calls.append(args))
        assert main(_pretrain(tmp_path, DEMO_CONFIG, out=out)) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert calls == []

    @pytest.mark.parametrize(
        "out, json_out",
        [("missing/x.csv", None), (".", None), ("x.csv", "missing/x.json"), ("x.csv", ".")],
        ids=["out-in-missing-directory", "out-directory", "json-in-missing-directory", "json-directory"],
    )
    def test_bench_checks_its_output_paths_before_any_kernel(self, out, json_out, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli_mod.bench_mod, "bench_kernels", lambda *args, **kwargs: calls.append(args))
        argv = ["bench", "--grid", "B=8;N=2;S=3", "--out", str(tmp_path / out)]
        if json_out:
            argv += ["--json", str(tmp_path / json_out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert calls == []
        assert not (tmp_path / "x.csv").exists()

    def test_bench_with_a_wrong_fast_kernel_writes_its_reports_and_exits_3(self, tmp_path, capsys, monkeypatch):
        def wrong(w, x, params, metric=False):
            result = rules.swta_update_fast(w, x, params, metric)
            return UpdateResult(tc.elementwise(np.multiply, result.delta_w, 2.0), result.peak_temp_elements)

        monkeypatch.setitem(rules._KERNELS, ("swta", "fast"), wrong)
        out, json_out = tmp_path / "x.csv", tmp_path / "x.json"
        argv = ["bench", "--grid", "B=8;N=2;S=3", "--out", str(out), "--json", str(json_out)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert len(captured.err.strip().splitlines()) == 1 and "Traceback" not in captured.err
        assert "disagree" in captured.err and captured.out == ""
        rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in out.read_text().splitlines()[1:]]
        assert {(r["rule"], r["impl"]): r["equiv_ok"] for r in rows} == {
            ("swta", "naive"): "0", ("swta", "fast"): "0", ("hpca", "naive"): "1", ("hpca", "fast"): "1",
        }
        assert [r["equiv_ok"] for r in json.loads(json_out.read_text())["rows"]] == [False, False, True, True]
        assert main(["report", "--in", str(out)]) == 3

    def test_option_of_another_layer_kind_is_config_error(self):
        text = DEMO_CONFIG.replace("layer2 = relu", "layer2 = relu window=2")
        with pytest.raises(ConfigError, match="relu layer has no option 'window'"):
            build_stack(parse_config(text), (16,), 0.01)

    def test_report_subcommand(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        main(["bench", "--grid", "B=8;N=2;S=3", "--out", str(out)])
        code = main(["report", "--in", str(out)])
        assert code == 0
        rendered = capsys.readouterr().out
        assert "speedup" in rendered

    def test_pretrain_probe_eval_round_trip(self, demo_config, tmp_path, capsys):
        ckpt = tmp_path / "model.fhb"
        assert main(["pretrain", "--config", str(demo_config), "--out", str(ckpt)]) == 0
        assert ckpt.exists()
        assert main(["probe", "--ckpt", str(ckpt), "--regime", "25", "--seed", "1"]) == 0
        assert load_checkpoint(ckpt).probe is not None
        assert main(["eval", "--ckpt", str(ckpt), "--topk", "1"]) == 0
        out = capsys.readouterr().out
        assert "top-1 accuracy" in out

    def test_probe_without_labeled_samples_fails_before_the_test_split(self, tmp_path, capsys, monkeypatch):
        ckpt = tmp_path / "m.fhb"
        assert main(_pretrain(tmp_path, DEMO_CONFIG.replace("num = 200", "num = 40"))) == 0
        raw = ckpt.read_bytes()
        builds, extracted = [], []

        def build(cfg, split, _orig=cli_mod.build_dataset):
            builds.append(split)
            return _orig(cfg, split)

        def extract(stack, data, _orig=pipeline.extract_features):
            extracted.append(len(data))
            return _orig(stack, data)

        monkeypatch.setattr(cli_mod, "build_dataset", build)
        monkeypatch.setattr(pipeline, "extract_features", extract)
        capsys.readouterr()
        assert main(["probe", "--ckpt", str(ckpt), "--regime", "1"]) == 3  # 1% of 40 rounds to 0
        err = capsys.readouterr().err
        assert err == "error: the 1% regime labels none of the 40 train samples\n"
        assert builds == ["train"] and extracted == []
        assert ckpt.read_bytes() == raw

    def test_probe_on_a_class_count_above_the_cap(self, tmp_path, capsys):
        path = tmp_path / "d.fhds"
        save_dataset(path, Dataset(np.ones((8, 1, 4, 4)), np.zeros(8), 1))
        assert main(_pretrain(tmp_path, IMAGE_CONFIG.format(data=path, layers="layer1 = dense n=2"))) == 0
        raw = (tmp_path / "m.fhb").read_bytes()
        classes = 65_537  # one above the cap; at 2**31, split_regime without the cap allocates 16 GiB
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 28 + 8 * 8 * 16, classes)
        path.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["probe", "--ckpt", str(tmp_path / "m.fhb"), "--regime", "25"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: class count {classes} exceeds 65536\n"
        assert (tmp_path / "m.fhb").read_bytes() == raw

    def test_probe_drops_the_train_split_before_extraction(self, demo_config, tmp_path, monkeypatch):
        ckpt = tmp_path / "model.fhb"
        assert main(["pretrain", "--config", str(demo_config), "--out", str(ckpt)]) == 0
        train, alive = [], []

        def build(cfg, split, _orig=cli_mod.build_dataset):
            data = _orig(cfg, split)
            if split == "train":
                train.append(weakref.ref(data))
            return data

        def extract(stack, data, _orig=pipeline.extract_features):
            alive.append(train[0]() is not None)
            return _orig(stack, data)

        monkeypatch.setattr(cli_mod, "build_dataset", build)
        monkeypatch.setattr(pipeline, "extract_features", extract)
        assert main(["probe", "--ckpt", str(ckpt), "--regime", "25", "--seed", "1"]) == 0
        assert alive == [False, False]  # the labeled features, then the test features

    def test_probe_with_non_finite_weights_is_numeric_error(self, tmp_path, capsys):
        ckpt = tmp_path / "m.fhb"
        assert main(_pretrain(tmp_path, DEMO_CONFIG.replace("probe_lr = 0.05", "probe_lr = 1e308"))) == 0
        raw = ckpt.read_bytes()
        capsys.readouterr()
        assert main(["probe", "--ckpt", str(ckpt), "--regime", "25"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1 and "NaN or Inf" in err
        assert ckpt.read_bytes() == raw

    def test_eval_without_probe_is_data_error(self, demo_config, tmp_path):
        ckpt = tmp_path / "model.fhb"
        main(["pretrain", "--config", str(demo_config), "--out", str(ckpt)])
        assert main(["eval", "--ckpt", str(ckpt)]) == 2

    def test_unknown_config_key_is_data_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[data]\nkind = clusters\nwhatever = 2\n")
        code = main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "m.fhb")])
        assert code == 2

    def test_missing_config_file_is_data_error(self, tmp_path):
        code = main(
            ["pretrain", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "m.fhb")]
        )
        assert code == 2

    def test_pretrain_deterministic_checkpoints(self, demo_config, tmp_path):
        a, b = tmp_path / "a.fhb", tmp_path / "b.fhb"
        assert main(["pretrain", "--config", str(demo_config), "--out", str(a)]) == 0
        assert main(["pretrain", "--config", str(demo_config), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_same_bits_and_output_with_blas_pinned_by_import_or_environment(self, tmp_path, fresh_env):
        """pretrain, probe and eval in fresh processes: the pin the import
        makes gives the checkpoints and output of OPENBLAS_NUM_THREADS=1, and
        OpenBLAS on two threads with a one-worker pool gives them too.  The
        SWTA layer's pull product, 40 x 800 by 800 x 72 per batch, splits its
        rows over a two-worker pool; on two BLAS threads OpenBLAS splits it."""
        rng = np.random.default_rng(5)
        save_dataset(tmp_path / "d.fhds", Dataset(rng.random((64, 3, 16, 16)), rng.integers(0, 4, 64), 4))
        layers = "layer1 = conv k=3 n=8 rule=hpca\nlayer2 = relu\nlayer3 = maxpool window=2\nlayer4 = conv k=3 n=40 rule=swta"
        text = IMAGE_CONFIG.format(data=tmp_path / "d.fhds", layers=layers).replace("epochs = 1", "epochs = 2\nbatch_size = 32")
        _write(tmp_path, "c.cfg", text)
        runs = {}
        for name, blas in {"import": {}, "env-1": {"OPENBLAS_NUM_THREADS": "1"}, "env-2": {"OPENBLAS_NUM_THREADS": "2"}}.items():
            cwd = tmp_path / name
            cwd.mkdir()
            outputs = []
            for argv in (["pretrain", "--config", "../c.cfg", "--out", "m.fhb"], ["probe", "--ckpt", "m.fhb", "--regime", "25"], ["eval", "--ckpt", "m.fhb"]):
                run = subprocess.run(
                    [sys.executable, "-m", "fasthebb", *argv], cwd=cwd, env=fresh_env(**blas),
                    capture_output=True, text=True, timeout=300,
                )
                assert run.returncode == 0, run.stderr
                outputs += [run.stdout, (cwd / "m.fhb").read_bytes()]
            runs[name] = outputs
        assert runs["env-1"] == runs["import"]
        assert runs["env-2"] == runs["import"]
