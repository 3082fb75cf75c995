"""Command-line entry point.

Subcommands: pretrain, probe, eval, bench, report.  Exit codes: 0 success,
1 usage error, 2 data/config error, 3 numeric or equivalence failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod, pipeline, rules
from .config import load_config, parse_config
from .data import REGIME_FRACTIONS, Regime, split_regime
from .errors import ConfigError, CorruptFile, EmptyLabeledSet, EquivalenceViolation, FastHebbError, UsageError
from .experiment import build_dataset, build_stack, build_train_config, input_shape, restore_stack

_FLAG_FLOORS = {"seed": 0, "topk": 1}  # integer flags and their least value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit with code 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fasthebb", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("pretrain", help="unsupervised Hebbian pretraining")
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--out", required=True, help="checkpoint output path")

    p = sub.add_parser("probe", help="train a linear probe on labeled subset")
    p.add_argument("--ckpt", required=True, help="pretrained checkpoint")
    p.add_argument("--regime", type=int, required=True, choices=REGIME_FRACTIONS, help="labeled percent")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="checkpoint output (default: update --ckpt)")

    p = sub.add_parser("eval", help="evaluate a probed checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--topk", type=int, default=1)

    p = sub.add_parser("bench", help="benchmark naive vs fast kernels")
    p.add_argument("--grid", required=True, help="e.g. 'B=64,1024;N=16;S=75'")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--json", dest="json_out", help="optional JSON output path")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--rule", default=",".join(rules.RULES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--float32", action="store_true", help="32-bit benchmark mode")

    p = sub.add_parser("report", help="render a bench CSV as a text table")
    p.add_argument("--in", dest="input", required=True)
    return parser


def _parse_grid(spec: str) -> list[tuple[int, int, int]]:
    axes = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"bad grid component {part!r}")
        key, values = part.split("=", 1)
        key = key.strip().upper()
        if key not in ("B", "N", "S"):
            raise ConfigError(f"grid axis must be B, N or S, got {key!r}")
        if not all(v.strip().isdigit() and int(v) > 0 for v in values.split(",")):
            raise ConfigError(f"grid axis {key} needs integers >= 1, got {values!r}")
        if key in axes:
            raise ConfigError(f"grid axis {key} is set twice")
        axes[key] = [int(v) for v in values.split(",")]
    for key in ("B", "N", "S"):
        if key not in axes:
            raise ConfigError(f"grid is missing axis {key}")
    return [(b, n, s) for b in axes["B"] for n in axes["N"] for s in axes["S"]]


def _cmd_pretrain(args) -> None:
    text, cfg = load_config(args.config)
    train_cfg = build_train_config(cfg)
    stack = build_stack(cfg, input_shape(cfg), train_cfg.hebb_lr)  # before any image is loaded
    pipeline.writable_path(args.out)
    data = build_dataset(cfg, "train")
    stack, metrics = pipeline.pretrain(stack, data, train_cfg)
    pipeline.save_checkpoint(args.out, stack, None, text)
    for epoch, values in enumerate(metrics.epoch_metrics):
        rendered = " ".join(f"{v:.6f}" for v in values)
        print(f"epoch {epoch}: {rendered}")
    if metrics.converged_epoch is not None:
        print(f"converged at epoch {metrics.converged_epoch}")
    print(f"checkpoint written to {args.out}")


def _restore(path):
    """A checkpoint, its config echo and its stack, checked against that config before any image loads."""
    ckpt = pipeline.load_checkpoint(path)
    cfg = parse_config(ckpt.config_echo)
    return ckpt, cfg, restore_stack(cfg, ckpt)


def _cmd_probe(args) -> None:
    ckpt, cfg, stack = _restore(args.ckpt)
    out = args.out or args.ckpt
    pipeline.writable_path(out)
    train_cfg = build_train_config(cfg, seed_override=args.seed)
    data = build_dataset(cfg, "train")
    labeled, _ = split_regime(data, Regime(args.regime, args.seed))
    if not len(labeled):  # before the test split loads
        raise EmptyLabeledSet(f"the {args.regime}% regime labels none of the {len(data)} train samples")
    class_count = data.class_count
    del data  # the labeled subset is a copy; no other train image is read again
    test = build_dataset(cfg, "test")  # a bad test split fails before any feature is computed
    features = pipeline.extract_features(stack, labeled)
    probe = pipeline.train_probe(features, labeled.labels, train_cfg, class_count=class_count)
    test_features = pipeline.extract_features(stack, test)
    test_acc = pipeline.evaluate(probe, test_features, test.labels, k=1)
    pipeline.save_checkpoint(out, stack, probe, ckpt.config_echo)
    print(f"labeled samples: {len(labeled)}")
    print(f"validation accuracy: {probe.val_accuracy:.4f} (epoch {probe.best_epoch})")
    print(f"test top-1 accuracy: {test_acc:.4f}")
    print(f"checkpoint written to {out}")


def _cmd_eval(args) -> None:
    ckpt, cfg, stack = _restore(args.ckpt)
    if ckpt.probe is None:
        raise CorruptFile(f"{args.ckpt} has no trained probe; run 'probe' first")
    test = build_dataset(cfg, "test")
    features = pipeline.extract_features(stack, test)
    acc = pipeline.evaluate(ckpt.probe, features, test.labels, k=args.topk)
    print(f"top-{args.topk} accuracy: {acc:.4f}")


def _cmd_bench(args) -> None:
    grid = _parse_grid(args.grid)
    rule_names = [r.strip() for r in args.rule.split(",") if r.strip()]
    dtype = np.float32 if args.float32 else np.float64
    out = pipeline.writable_path(args.out)  # both paths are checked before any kernel runs
    json_out = args.json_out and pipeline.writable_path(args.json_out)
    report = bench_mod.bench_kernels(grid, rule_names, reps=args.reps, seed=args.seed, dtype=dtype)
    out.write_text(report.to_csv())
    if json_out:
        json_out.write_text(report.to_json())
    if not report.all_equivalent():
        raise EquivalenceViolation(f"fast and naive kernels disagree beyond tolerance (equiv_ok 0 in {args.out})")
    print(f"bench report written to {args.out}")


def _cmd_report(args) -> None:
    try:
        text = Path(args.input).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptFile(f"{args.input} is not UTF-8 text (byte {exc.start})") from None
    lines = [line for line in text.split("\n") if line.strip()]
    if not lines:
        raise CorruptFile(f"{args.input} is empty")
    table = [line.split(",") for line in lines]
    if any(len(row) != len(table[0]) for row in table):
        raise CorruptFile(f"{args.input}: rows have different column counts")
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for row in table:
        print("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
    failed = sum(row[-1] == "0" for row in table[1:])
    if failed:
        raise EquivalenceViolation(f"{args.input}: {failed} rows failed equivalence")


_COMMANDS = {
    "pretrain": _cmd_pretrain,
    "probe": _cmd_probe,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    """Run one command; the only place an error becomes an ``error:`` line and an exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return UsageError.exit_code
        for flag, floor in _FLAG_FLOORS.items():
            if getattr(args, flag, floor) < floor:
                raise UsageError(f"--{flag} must be >= {floor}, got {getattr(args, flag)}")
        with np.errstate(all="ignore"):  # no float warnings on stderr; a non-finite update still ends the run
            _COMMANDS[args.command](args)
        return 0
    except (FastHebbError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", CorruptFile.exit_code)  # an OSError is a data error
    except MemoryError as exc:  # the inputs ask for more than the machine has: a data error
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return CorruptFile.exit_code


if __name__ == "__main__":
    sys.exit(main())
