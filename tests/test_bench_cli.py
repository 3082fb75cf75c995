import struct

import numpy as np
import pytest

from fasthebb import pipeline, rules, tensor as tc
from fasthebb.bench import CSV_COLUMNS, bench_kernels
from fasthebb.cli import main
from fasthebb.config import parse_config
from fasthebb.data import Dataset, save_dataset
from fasthebb.errors import ConfigError
from fasthebb.experiment import build_stack
from fasthebb.layers import HebbLayer
from fasthebb.pipeline import LinearProbe, load_checkpoint, save_checkpoint
from fasthebb.rules import LearningParams
from fasthebb.tensor import Tensor

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


def _bad_echo(command, *args):
    """``command`` on a checkpoint of DEMO_CONFIG whose echo starts with bytes that are not UTF-8."""

    def argv(tmp_path):
        path = tmp_path / "m.fhb"
        stack = [HebbLayer(Tensor(np.zeros((1, 6, 16))), LearningParams(rule="hpca"))]
        save_checkpoint(path, stack, LinearProbe(np.zeros((4, 6)), np.zeros(4)), DEMO_CONFIG)
        raw = bytearray(path.read_bytes())
        echo = len(raw) - len(DEMO_CONFIG.encode())
        raw[echo : echo + 2] = b"\xff\xfe"
        path.write_bytes(bytes(raw))
        return [command, "--ckpt", str(path), *args]

    return argv


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
    "report-ragged-csv": (
        lambda tmp_path: ["report", "--in", _write(tmp_path, "r.csv", "a,b,c\n1,2\n")], 2, "column",
    ),
    "pretrain-out-directory": (lambda tmp_path: _pretrain(tmp_path, DEMO_CONFIG, out="."), 2, "directory"),
    "report-not-utf8": (
        lambda tmp_path: ["report", "--in", str(_write_bytes(tmp_path / "m.fhb", b"FHB1\x01\x00\xff\xfe"))],
        2, "UTF-8",
    ),
    "eval-echo-not-utf8": (_bad_echo("eval"), 2, "config echo is not UTF-8"),
    "probe-echo-not-utf8": (_bad_echo("probe", "--regime", "25"), 2, "config echo is not UTF-8"),
    "fhds-images-not-4d": (_flat_fhds, 2, "4-d"),
    "fhds-nan-pixel": (_nan_pixel, 2, "d.fhds: 1 of 6144 image values are NaN or Inf"),
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


def _write_bytes(path, raw):
    path.write_bytes(raw)
    return path


@pytest.fixture
def demo_config(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(DEMO_CONFIG)
    return path


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

    def test_float32_mode(self):
        report = bench_kernels([(32, 4, 8)], reps=5, seed=0, dtype=np.float32)
        assert report.environment["precision"] == "float32"
        assert report.all_equivalent()

    def test_kernels_run_on_one_blas_thread(self, monkeypatch):
        threads = tc.openblas_threads()
        if threads is None:
            pytest.skip("numpy's OpenBLAS is not mapped into this process")
        get, set_ = threads
        seen = []

        def update_fn(rule, impl, _orig=rules.update_fn):
            kernel = _orig(rule, impl)

            def counted(*args):
                seen.append(get())  # the count while the kernel runs
                return kernel(*args)

            return counted

        monkeypatch.setattr(rules, "update_fn", update_fn)
        outer = get()
        set_(2)  # a count other than 1 where the machine allows it
        try:
            before = get()
            report = bench_kernels([(16, 3, 5)], reps=5, seed=0)
            after = get()
        finally:
            set_(outer)
        assert len(seen) == 2 * 2 * (1 + 1 + 5)  # 2 rules x 2 impls x (check, warm-up, reps)
        assert set(seen) == {1}
        assert report.environment["threads"] == 1
        assert after == before

    def test_csv_stable_without_timing(self):
        a = bench_kernels([(16, 3, 5)], reps=5, seed=0).to_csv(include_timing=False)
        b = bench_kernels([(16, 3, 5)], reps=5, seed=0).to_csv(include_timing=False)
        assert a == b


class TestCli:
    def test_no_args_usage(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_usage(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--nope"])
        assert exc.value.code == 1

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
            (["--grid", "B=x;N=2;S=3"], 2),
            (["--grid", "B=0;N=2;S=3"], 2),
            (["--grid", "B=8;N=-1;S=3"], 2),
        ],
        ids=["reps-floor", "unknown-rule", "non-integer", "zero", "negative"],
    )
    def test_bench_bad_arguments_one_line(self, args, code, tmp_path, capsys):
        assert main(["bench", *args, "--out", str(tmp_path / "x.csv")]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_probe_regime_outside_choices_is_usage(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["probe", "--ckpt", str(tmp_path / "m.fhb"), "--regime", "7"])
        assert exc.value.code == 1
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

    @pytest.mark.parametrize("test_file", [None, b"FHDS\x01"], ids=["missing", "truncated"])
    def test_probe_checks_the_test_split_before_any_feature(self, test_file, tmp_path, capsys, monkeypatch):
        save_dataset(tmp_path / "d.fhds", Dataset(np.ones((8, 1, 4, 4)), np.zeros(8), 1))
        if test_file is not None:
            _write_bytes(tmp_path / "t.fhds", test_file)
        text = IMAGE_CONFIG.format(data=tmp_path / "d.fhds", layers="layer1 = dense n=2")
        text = text.replace(f"test_path = {tmp_path / 'd.fhds'}", f"test_path = {tmp_path / 't.fhds'}")
        assert main(_pretrain(tmp_path, text)) == 0
        calls = []
        monkeypatch.setattr(pipeline, "extract_features", lambda *args: calls.append(args))
        capsys.readouterr()
        assert main(["probe", "--ckpt", str(tmp_path / "m.fhb"), "--regime", "25"]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "t.fhds" in err
        assert calls == []

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
