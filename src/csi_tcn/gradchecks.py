"""Finite-difference verification battery: every differentiable primitive is
checked against central differences, then the assembled model loss.

Used by the `gradcheck` CLI command and the acceptance suite. Inputs are
seeded and kept away from ReLU kinks so the numeric derivative is clean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .model import ModelConfig, init_model, model_forward
from .tensor import Tensor, grad_check

__all__ = ["BatteryRow", "PRIMITIVE_TOLERANCE", "MODEL_TOLERANCE", "run_battery", "tiny_model_config"]

PRIMITIVE_TOLERANCE = 1e-6
MODEL_TOLERANCE = 1e-4


@dataclass
class BatteryRow:
    name: str
    error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.error < self.tolerance


def _coeffs(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=shape)


def _weighted_sum(t: Tensor, coeffs: np.ndarray) -> Tensor:
    """The scalar sum(t * coeffs), reduced through `linear` as one dot
    product, so its gradient with respect to t is exactly `coeffs`."""
    row = T.reshape(t, (1, t.size))
    return T.reshape(T.linear(row, Tensor(np.reshape(coeffs, (1, t.size)))), ())


def _away_from_zero(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.uniform(0.2, 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)


def tiny_model_config() -> ModelConfig:
    """Desk-size config for the full-model gradient check (T=16, F=4)."""
    return ModelConfig(
        filters=(8, 8, 8),
        kernel=3,
        dropout=0.0,
        d_k=4,
        n_classes=12,
        in_features=4,
    )


def run_battery() -> list[BatteryRow]:
    rng = np.random.default_rng(20240901)
    rows: list[BatteryRow] = []

    def check(name: str, f, tensors, tolerance: float = PRIMITIVE_TOLERANCE) -> None:
        rows.append(BatteryRow(name=name, error=grad_check(f, tensors), tolerance=tolerance))

    # elementwise / structural
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    c_add = _coeffs(rng, (3, 4))
    check("add", lambda x, y: _weighted_sum(T.add(x, y), c_add), [a, b])
    check("mul", lambda x, y: _weighted_sum(T.mul(x, y), c_add), [a, b])

    p = Tensor(_away_from_zero(rng, (2, 3)), requires_grad=True)
    c_p = _coeffs(rng, (2, 3))
    check("relu", lambda x: _weighted_sum(T.relu(x), c_p), [p])

    t5 = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    c_t = _coeffs(rng, (4, 2, 3))
    check("transpose", lambda x: _weighted_sum(T.transpose(x, (2, 0, 1)), c_t), [t5])
    c_r = _coeffs(rng, (6, 4))
    check("reshape", lambda x: _weighted_sum(T.reshape(x, (6, 4)), c_r), [t5])
    c_i = _coeffs(rng, (2, 3))
    check("index", lambda x: _weighted_sum(T.index(x, (slice(None), slice(None), 1)), c_i), [t5])
    c_s = _coeffs(rng, (2, 4))
    check("mean_axis", lambda x: _weighted_sum(T.mean_over_axis(x, axis=1), c_s), [t5])

    # linear algebra: the residual projection (C_out, C_in) @ (N, C_in, T),
    # and the batched 3-D @ 3-D product of the composed attention chain
    mw = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    mx = Tensor(rng.standard_normal((2, 2, 5)), requires_grad=True)
    c_mp = _coeffs(rng, (2, 3, 5))
    check("matmul_projection", lambda w, x: _weighted_sum(T.matmul(w, x), c_mp), [mw, mx])

    ma = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    mb = Tensor(rng.standard_normal((2, 4, 5)), requires_grad=True)
    c_mb = _coeffs(rng, (2, 3, 5))
    check("matmul_batched", lambda x, y: _weighted_sum(T.matmul(x, y), c_mb), [ma, mb])

    lx = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    lw = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    lb = Tensor(rng.standard_normal(2), requires_grad=True)
    c_l = _coeffs(rng, (5, 2))
    check("linear", lambda x, w, bb: _weighted_sum(T.linear(x, w, bb), c_l), [lx, lw, lb])

    # conv and attention rows keep N >= 2 so the batch split across kernel
    # workers is differentiated too
    cx = Tensor(rng.standard_normal((3, 2, 7)), requires_grad=True)
    cw = Tensor(rng.standard_normal((3, 2, 3)), requires_grad=True)
    cb = Tensor(rng.standard_normal(3), requires_grad=True)
    c_c = _coeffs(rng, (3, 3, 7))
    check(
        "causal_conv1d",
        lambda x, w, bb: _weighted_sum(T.causal_conv1d(x, w, bb, dilation=2), c_c),
        [cx, cw, cb],
    )
    cxb = Tensor(rng.standard_normal((2, 2, 5)), requires_grad=True)
    c_cb = _coeffs(rng, (2, 3, 5))
    check(
        "causal_conv1d_batched",
        lambda x, w, bb: _weighted_sum(T.causal_conv1d(x, w, bb, dilation=1), c_cb),
        [cxb, cw, cb],
    )
    # only the last 4 of 7 outputs, whose taps still reach 2 steps into the pad
    c_cs = _coeffs(rng, (3, 3, 4))
    check(
        "causal_conv1d_steps",
        lambda x, w, bb: _weighted_sum(T.causal_conv1d(x, w, bb, dilation=2, steps=4), c_cs),
        [cx, cw, cb],
    )

    # attention pieces
    sx = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    c_sm = _coeffs(rng, (3, 5))
    check("softmax_rows", lambda x: _weighted_sum(T.softmax_rows(x), c_sm), [sx])

    # batched, with value width F=5 distinct from T=4 and d_k=3
    aq = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
    ak = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
    av = Tensor(rng.standard_normal((2, 4, 5)), requires_grad=True)
    c_att = _coeffs(rng, (2, 4, 5))
    check(
        "causal_attention",
        lambda q, k, v: _weighted_sum(T.causal_attention(q, k, v, 3.0**-0.5), c_att),
        [aq, ak, av],
    )
    # offset form: 2 query rows aligned to the end of 5 key and value steps
    oq = Tensor(rng.standard_normal((2, 2, 3)), requires_grad=True)
    ok = Tensor(rng.standard_normal((2, 5, 3)), requires_grad=True)
    ov = Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True)
    c_off = _coeffs(rng, (2, 2, 4))
    check(
        "causal_attention_offset",
        lambda q, k, v: _weighted_sum(T.causal_attention(q, k, v, 3.0**-0.5), c_off),
        [oq, ok, ov],
    )

    # dropout with a re-seeded mask so every call sees the same pattern
    dx = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    c_d = _coeffs(rng, (4, 6))
    check(
        "dropout_train",
        lambda x: _weighted_sum(
            T.dropout_layer(x, 0.4, training=True, rng=np.random.default_rng(99)), c_d
        ),
        [dx],
    )

    # losses (through softmax so perturbed inputs stay distributions)
    logits_b = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
    labels_b = np.array([1, 0, 5])
    check(
        "softmax_cross_entropy_mean",
        lambda z: T.cross_entropy_mean(T.softmax_rows(z), labels_b),
        [logits_b],
    )

    cfg = tiny_model_config()
    params = init_model(cfg, np.random.default_rng(7))
    x = np.random.default_rng(8).standard_normal((1, 2, 16, cfg.in_features))

    def model_loss(*_):
        probs = model_forward(x, params, cfg, training=False)
        return T.cross_entropy_mean(probs, np.array([3]))

    check("full_model_loss", model_loss, list(params.named().values()), MODEL_TOLERANCE)
    return rows
