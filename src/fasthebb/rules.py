"""SWTA and HPCA update kernels, each in naive and fused (fast) form, and
each rule's training metric (:func:`layer_metric`).

Shapes: inputs X are B x 1 x S, weights W 1 x N x S, outputs Y B x N x 1.
Every kernel is ``kernel(w, x, params, metric=False) -> UpdateResult``,
runs the forward Y of X under W itself and reports its largest temporary
(:class:`~fasthebb.tensor.AllocationTracker`).  Both forms of a rule are
algebraically identical; tests hold them to 1e-10 relative Frobenius error
in double precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from . import tensor as tc
from .errors import ConfigError, ShapeMismatch
from .tensor import AllocationTracker, Tensor

__all__ = [
    "RULE_SWTA",
    "RULE_HPCA",
    "RULES",
    "METRIC_FALLS",
    "LearningParams",
    "UpdateResult",
    "forward_linear",
    "aggregate",
    "swta_update_naive",
    "swta_update_fast",
    "hpca_update_naive",
    "hpca_update_fast",
    "update_fn",
    "layer_metric",
]

RULE_SWTA = "swta"
RULE_HPCA = "hpca"
RULES = (RULE_SWTA, RULE_HPCA)  # the order of bench rows and of the ``--rule`` default
METRIC_FALLS = {RULE_SWTA: False, RULE_HPCA: True}  # as a layer learns, HPCA's residual falls and SWTA's score rises


@dataclass(frozen=True)
class LearningParams:
    """Learning rate, softmax temperature (SWTA only) and rule kind."""

    eta: float = 1e-3
    temperature: float = 1.0
    rule: str = RULE_SWTA

    def __post_init__(self):
        if not self.eta > 0:
            raise ConfigError(f"eta must be > 0, got {self.eta}")
        if not self.temperature > 0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        if self.rule not in RULES:
            raise ConfigError(f"unknown rule {self.rule!r}")


@dataclass
class UpdateResult:
    delta_w: Tensor  # 1 x N x S, learning rate already applied
    peak_temp_elements: int = 0
    metric: Optional[float] = None  # layer_metric of the batch: SWTA always, HPCA when asked, else None


def _check_update_shapes(w: Tensor, x: Tensor) -> tuple[int, int, int]:
    if w.ndim != 3 or x.ndim != 3:
        raise ShapeMismatch(f"expected 3-d W and X, got {w.shape} and {x.shape}")
    if w.shape[0] != 1 or x.shape[1] != 1:
        raise ShapeMismatch(
            f"W must be 1xNxS and X Bx1xS, got {w.shape} and {x.shape}"
        )
    if w.shape[2] != x.shape[2]:
        raise ShapeMismatch(
            f"size dims differ: W has S={w.shape[2]}, X has S={x.shape[2]}"
        )
    return x.shape[0], w.shape[1], w.shape[2]


def forward_linear(w: Tensor, x: Tensor) -> Tensor:
    """Y[b,n] = sum_s W[n,s] * X[b,s] (dot product, no bias), with the bits
    of one product."""
    b, n, s = _check_update_shapes(w, x)
    y = tc.matmul(tc.reshape(x, (1, b, s)), tc.transpose(w))  # 1 x B x N
    return tc.reshape(y, (b, n, 1))


def aggregate(coeffs: Tensor, per_sample: Tensor) -> Tensor:
    """Weighted sum over the batch: out[1,n,s] = sum_b C[b,n,1] * D[b,n,s]."""
    if coeffs.ndim != 3 or per_sample.ndim != 3:
        raise ShapeMismatch("aggregate expects 3-d tensors")
    if coeffs.shape[2] != 1 or coeffs.shape[:2] != per_sample.shape[:2]:
        raise ShapeMismatch(
            f"coefficients {coeffs.shape} do not match updates {per_sample.shape}"
        )
    return tc.reduce_sum(tc.elementwise(np.multiply, coeffs, per_sample))


def _swta_scores(w: Tensor, x: Tensor, params: LearningParams, out=None):
    """The scores R, in ``out`` when it is given (see
    :func:`~fasthebb.tensor.softmax`), the guarded column sums that
    C = R / sum_b R divides by, and the layer metric ``mean(1/Σ)`` over the
    softmax row sums Σ (see :func:`layer_metric`)."""
    r, row_sums = tc.softmax(forward_linear(w, x), params.temperature, out)  # B x N x 1, B x 1 x 1
    col_sums = tc.reduce_sum(r)  # 1 x N x 1
    # a losing neuron's scores can all underflow to 0.0 at low temperature;
    # its column then contributes nothing, whatever C is
    safe = Tensor(np.where(col_sums.data > 0, col_sums.data, 1.0))
    return r, safe, float(np.mean(1.0 / row_sums.data))


def swta_update_naive(
    w: Tensor, x: Tensor, params: LearningParams, metric: bool = False
) -> UpdateResult:
    """Reference SWTA path: builds the B x N x S per-sample update, then
    aggregates with score-weighted coefficients C = R / sum_b R, holding at
    most two B x N x S tensors at once.  The layer metric comes back
    whatever ``metric`` says."""
    _check_update_shapes(w, x)
    with AllocationTracker() as tr:
        r, safe, value = _swta_scores(w, x, params)
        c = tc.elementwise(np.divide, r, safe)
        diff = tc.elementwise(np.subtract, x, w)  # B x N x S
        scored = tc.elementwise(np.multiply, r, diff)  # B x N x S
        del diff
        per_sample = tc.elementwise(np.multiply, scored, params.eta)
        del scored
        delta_w = aggregate(c, per_sample)
    return UpdateResult(delta_w, tr.largest, value)


def swta_update_fast(
    w: Tensor, x: Tensor, params: LearningParams, metric: bool = False
) -> UpdateResult:
    """Fused SWTA path: contracts b before any B x N x S object exists.

    delta_w = eta * ((C*R)^T X - Q * W) with Q = sum_b C*R; the layer metric
    comes back whatever ``metric`` says.  C*R overwrites the kernel's own
    score buffer in one :func:`~fasthebb.tensor.split_rows` pass that also
    fills its transposed copy; the pull's :func:`~fasthebb.tensor.gemm_calls`
    and Q then run as one :func:`~fasthebb.tensor.run_tasks` list.  A row of
    C*R reads only itself and each sum over b runs on one thread, so the bits
    are those of one pass.  At most two B x N buffers are alive at once;
    beside them only N x S terms (the forward's transpose of W among them)
    and one :data:`~fasthebb.tensor.ROW_BLOCK` x N scratch per range.
    """
    b, n, s = _check_update_shapes(w, x)
    with AllocationTracker() as tr:
        scores = np.empty((b, n, 1), dtype=np.result_type(w.data, x.data, params.temperature))
        _, safe, value = _swta_scores(w, x, params, scores)
        cr_t = np.empty((1, n, b), dtype=scores.dtype)
        rows, cols = scores.reshape(b, n), cr_t.reshape(n, b)
        sd, block = safe.data.reshape(1, n), tc.ROW_BLOCK

        def fill(first: int, stop: int) -> None:
            c = np.empty((min(block, b), n), dtype=scores.dtype)  # C = R / sum_b R of one block
            for i in range(first * block, stop * block, block):
                r_rows = rows[i : i + block]
                c_rows = c[: len(r_rows)]
                np.divide(r_rows, sd, out=c_rows)
                np.multiply(c_rows, r_rows, out=r_rows)  # C*R over the scores
                cols[:, i : i + block] = r_rows.T

        tc.split_rows(fill, -(-b // block))
        pull, pull_calls = tc.gemm_calls(Tensor(cr_t), tc.reshape(x, (1, b, s)))  # 1 x N x S
        q = tc.run_tasks([*pull_calls, partial(tc.reduce_sum, Tensor(scores))])[-1]  # 1 x N x 1
        decay = tc.elementwise(np.multiply, q, w)  # 1 x N x S
        delta_w = tc.elementwise(np.multiply, tc.elementwise(np.subtract, Tensor(pull), decay), params.eta)
    return UpdateResult(delta_w, tr.largest, value)


def hpca_update_naive(
    w: Tensor, x: Tensor, params: LearningParams, metric: bool = False
) -> UpdateResult:
    """Reference HPCA path via the full residual tensor.

    E[b,n,s] = X[b,s] - sum_{n'<=n} Y[b,n'] * W[n',s]
    delta_w  = (eta/B) * sum_b Y[b,n] * E[b,n,s]

    At most two B x N x S tensors are alive at once.  With ``metric`` the
    layer metric comes back too.
    """
    b, n, s = _check_update_shapes(w, x)
    with AllocationTracker() as tr:
        y = forward_linear(w, x)  # B x N x 1
        mask = tc.tril_mask(n, w.dtype)
        yw = tc.elementwise(np.multiply, y, w)  # B x N x S
        cumulative = tc.matmul(mask, yw)  # B x N x S, cumulative reconstructions
        del yw
        resid = tc.elementwise(np.subtract, x, cumulative)  # B x N x S
        del cumulative
        delta_w = tc.elementwise(np.multiply, aggregate(y, resid), params.eta / b)
        value = layer_metric(w, x, y, params) if metric else None
    return UpdateResult(delta_w, tr.largest, value)


def hpca_update_fast(
    w: Tensor, x: Tensor, params: LearningParams, metric: bool = False
) -> UpdateResult:
    """Fused HPCA path via the masked Gram tensor.

    P = (Y^T Y) * L;  delta_w = (eta/B) * (matmul(Y^T, X) - matmul(P, W))

    Y^T Y and Y^T X, each one whole product, run in one
    :func:`~fasthebb.tensor.run_tasks` list, with the layer metric's row
    blocks when ``metric`` is set; the bits do not depend on the threads.
    ``peak_temp_elements`` is at most max(N*B, N*S, N*N).
    """
    b, n, s = _check_update_shapes(w, x)
    with AllocationTracker() as tr:
        y = forward_linear(w, x)  # B x N x 1
        y_rows = tc.reshape(y, (1, b, n))
        y_t = tc.transpose(y_rows)  # 1 x N x B
        blocks, residual = _residual_blocks(w, x, y) if metric else ([], lambda: None)
        pull, gram = tc.run_tasks(
            [partial(tc.matmul, y_t, tc.reshape(x, (1, b, s))), partial(tc.matmul, y_t, y_rows), *blocks]
        )[:2]  # 1 x N x S, 1 x N x N
        p = tc.elementwise(np.multiply, gram, tc.tril_mask(n, w.dtype))
        decay = tc.matmul(p, w)  # 1 x N x S
        delta_w = tc.elementwise(np.multiply, tc.elementwise(np.subtract, pull, decay), params.eta / b)
    return UpdateResult(delta_w, tr.largest, residual())


_KERNELS = {
    (RULE_SWTA, "naive"): swta_update_naive,
    (RULE_SWTA, "fast"): swta_update_fast,
    (RULE_HPCA, "naive"): hpca_update_naive,
    (RULE_HPCA, "fast"): hpca_update_fast,
}


def update_fn(rule: str, impl: str):
    """Look up an update kernel by rule name and implementation flavor."""
    try:
        return _KERNELS[(rule, impl)]
    except KeyError:
        raise ConfigError(f"no kernel for rule={rule!r} impl={impl!r}") from None


def _residual_blocks(w: Tensor, x: Tensor, y: Tensor):
    """The HPCA layer metric (see :func:`layer_metric`) as the calls that
    each fill one row block of the squared residual norms, and the call
    that reduces those norms to the metric once every block has run."""
    b, n, _ = y.shape
    gram = tc.matmul(w, tc.transpose(w)).data  # 1 x N x N
    x, y = x.data.reshape(b, x.shape[2]), y.data.reshape(1, b, n)
    sq = np.empty(b, dtype=np.result_type(x, y, gram))

    def block(start: int, stop: int) -> None:
        xb, yb = x[start:stop], y[0, start:stop]
        yg = np.matmul(y[:, start:stop], gram)[0]
        sq[start:stop] = (
            np.einsum("ij,ij->i", xb, xb)
            - 2.0 * np.einsum("ij,ij->i", yb, yb)
            + np.einsum("ij,ij->i", yg, yb)
        )

    blocks = [partial(block, start, stop) for start, stop in tc.gemm_ranges(b, b // tc.ROW_BLOCK, [(1, n, n)])]
    return blocks, lambda: float(np.mean(np.sqrt(np.maximum(sq, 0.0))))


def layer_metric(w: Tensor, x: Tensor, y: Tensor, params: LearningParams) -> float:
    """Cheap per-batch training metric of a layer's rows x and their forward
    y = W·x, the value a kernel returns as :attr:`UpdateResult.metric`.

    HPCA: the mean residual norm ``‖x − Wᵀy‖``, from ``‖x‖² − 2‖y‖² +
    yᵀ(WWᵀ)y`` (which holds as ``y = W·x``), a square below zero clamped to
    0.  Its rows run on the pool in b // :data:`~fasthebb.tensor.ROW_BLOCK`
    blocks (at least one) cut by :func:`~fasthebb.tensor.gemm_ranges`, each
    filling its rows of the b squared norms; beside those no temporary
    exceeds max(a block's rows·N, N·S, N·N).
    SWTA: ``mean(1/Σ)`` over the softmax row sums Σ, bit for bit
    ``mean(max(softmax(y/T)))``, since a row's maximum scores ``exp(0)/Σ``."""
    if params.rule == RULE_SWTA:
        return float(np.mean(1.0 / tc.softmax(y, params.temperature)[1].data))
    blocks, residual = _residual_blocks(w, x, y)
    tc.run_tasks(blocks)
    return residual()
