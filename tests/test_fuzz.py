"""Damaged input files end every CLI path with a documented exit code and at
most one stderr line: a small checkpoint, a small FHDS dataset and the config
file ``pretrain`` reads are truncated, byte-flipped or given bytes past
their end, then ``eval``, ``probe`` and ``pretrain`` run on them
in-process."""

import contextlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fasthebb.cli import main
from fasthebb.config import parse_config
from fasthebb.data import Dataset, save_dataset
from fasthebb.experiment import build_stack
from fasthebb.pipeline import LinearProbe, load_checkpoint, save_checkpoint

CONFIG = """\
[data]
kind = fhds
path = {data}
test_path = {data}

[model]
layer1 = conv k=3 n=3 rule=swta
layer2 = relu
layer3 = maxpool
layer4 = flatten
layer5 = dense n=4 rule=hpca

[train]
epochs = 2
batch_size = 8
# ends in a two-byte UTF-8 character: é
"""

# which commands read each file
READERS = {"m.fhb": ["eval", "probe"], "d.fhds": ["eval", "probe", "pretrain"], "c.cfg": ["pretrain"]}


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """The directory the commands run in, with intact copies of the files in ``intact/``."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    save_dataset(root / "d.fhds", Dataset(rng.random((16, 2, 4, 4)), rng.integers(0, 2, 16), 2))
    text = CONFIG.format(data=root / "d.fhds")
    (root / "c.cfg").write_text(text, encoding="utf-8")
    stack = build_stack(parse_config(text), (2, 4, 4), 1e-3)
    save_checkpoint(root / "m.fhb", stack, LinearProbe(np.zeros((2, 4)), np.zeros(2)), text)
    (root / "intact").mkdir()
    for name in READERS:
        (root / "intact" / name).write_bytes((root / name).read_bytes())
    return root


def _damage(raw: bytes, cut, flips) -> bytes:
    """``raw`` cut short at ``cut``, or else with each ``(position, mask)`` XORed in;
    positions wrap around the file's length."""
    if cut is not None:
        return raw[: cut % len(raw)]
    out = bytearray(raw)
    for pos, mask in flips:
        out[pos % len(raw)] ^= mask
    return bytes(out)


# Byte offsets in the intact files: the checkpoint's probe weights carry their
# rank at 569, their values follow from 578, and its config echo starts at 667;
# the FHDS header holds the rank at 8 and the extents (16, 2, 4, 4) at 12-27,
# images follow from 28, the class count from 4124 and the labels from 4128.
ECHO_TEST_PATH_END = -len(CONFIG.split("test_path = {data}")[1].encode()) - 1  # last byte of the echo's test_path
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    target=st.sampled_from(sorted(READERS)),
    command=st.sampled_from(["eval", "probe", "pretrain"]),
    cut=st.none() | st.integers(0, 2**16),
    flips=st.lists(st.tuples(st.integers(0, 2**16), st.integers(1, 255)), min_size=1, max_size=3),
)
@example("m.fhb", "eval", None, [(569, 24)])  # probe weights of rank 26: more dims than numpy allows
@example("m.fhb", "eval", None, [(667, 128)])  # config echo not UTF-8
@example("m.fhb", "eval", None, [(584, 0xF8), (585, 0x7F)])  # a NaN probe weight
@example("m.fhb", "eval", None, [(ECHO_TEST_PATH_END, ord("s"))])  # a NUL byte in the data path
@example("m.fhb", "eval", None, [(14, 1), (16, 64), (18, 3), (20, 32), (22, 18), (24, 32)])  # 2^22 x 2^21 x 2^21: int64 product 0
@example("d.fhds", "pretrain", None, [(8, 6)])  # 2-d images
@example("d.fhds", "pretrain", None, [(12, 16)])  # no images
@example("d.fhds", "pretrain", None, [(16, 2), (18, 16), (20, 4), (22, 16), (24, 4), (26, 16)])  # 16 x 2^60: int64 product 0
@example("d.fhds", "pretrain", 4150, [(0, 1)])  # cut inside the label block
@example("d.fhds", "pretrain", None, [(275, 64)])  # an image value near 1e300: the update overflows
@example("c.cfg", "pretrain", None, [(0, 128)])  # config not UTF-8: its first byte starts a two-byte character
@example("c.cfg", "pretrain", -2, [(0, 1)])  # config cut inside its last character
def test_damaged_file_exits_with_a_code_and_one_line(root, target, command, cut, flips):
    if command not in READERS[target]:  # pretrain reads no checkpoint, eval and probe no config file
        command = READERS[target][0]
    code, err = _run_on(root, target, lambda raw: _damage(raw, cut, flips), command)
    assert code in (0, 1, 2, 3)
    assert len(err.splitlines()) <= 1, err
    if code == 0 and target == "m.fhb":  # an accepted checkpoint holds only finite numbers
        ckpt = load_checkpoint(root / "m.fhb")
        probe = [] if ckpt.probe is None else [ckpt.probe.weights, ckpt.probe.bias]
        assert all(np.isfinite(a).all() for a in ckpt.weights + probe)


@pytest.mark.parametrize("target, command", [(t, c) for t in ("m.fhb", "d.fhds") for c in READERS[t]])
def test_appended_bytes_exit_2_naming_the_file(root, target, command):
    code, err = _run_on(root, target, lambda raw: raw + bytes(8), command)
    assert code == 2
    assert err.startswith(f"error: {root / target}: 8 bytes follow ") and len(err.splitlines()) == 1, err


def _run_on(root, target, change, command):
    """The exit code and stderr of ``command`` run with ``target`` changed by
    ``change`` (its bytes to new bytes) and the other files intact; no
    warning may be raised, as each would print to stderr."""
    for name in READERS:
        raw = (root / "intact" / name).read_bytes()
        (root / name).write_bytes(change(raw) if name == target else raw)
    argv = {
        "eval": ["eval", "--ckpt", str(root / "m.fhb")],
        "probe": ["probe", "--ckpt", str(root / "m.fhb"), "--regime", "25", "--out", str(root / "p.fhb")],
        "pretrain": ["pretrain", "--config", str(root / "c.cfg"), "--out", str(root / "p.fhb")],
    }[command]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    return code, err.getvalue()
