"""Composed-chain attention kept as the bitwise reference oracle for
`tensor.causal_attention`.

This is the pre-fusion spelling: matmul -> scale -> lower-triangular mask ->
row softmax -> matmul, each step its own recorded op with its own T x T
tensor. The fused primitive must match it bit for bit, forward and backward.
"""

import math

import numpy as np

from csi_tcn import tensor as T
from csi_tcn.model import AttentionParams, MaskMode
from csi_tcn.tensor import Tensor


def lower_triangular_mask(s: Tensor, mode: str = "neg_inf") -> Tensor:
    """Suppress entries above the main diagonal of the trailing T x T block:
    -inf for "neg_inf", 0.0 for "zero_literal"."""
    if s.ndim < 2 or s.shape[-1] != s.shape[-2]:
        raise ValueError(f"mask input must end in a square block, got {s.shape}")
    if mode not in ("neg_inf", "zero_literal"):
        raise ValueError(f"unknown mask mode {mode!r}")
    t = s.shape[-1]
    above = np.triu(np.ones((t, t), dtype=bool), k=1)
    fill = -np.inf if mode == "neg_inf" else 0.0
    data = np.where(above, fill, s.data)

    def backward_fn(g):
        T._accumulate(s, np.where(above, 0.0, g))

    return T._make(data, (s,), backward_fn, "lower_triangular_mask")


def _swap_last(t: Tensor) -> Tensor:
    axes = list(range(t.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return T.transpose(t, axes)


def reference_attention(q: Tensor, k: Tensor, v: Tensor, scale: float, mode: str = "neg_inf") -> Tensor:
    scores = T.mul(T.matmul(q, _swap_last(k)), Tensor(scale))
    weights = T.softmax_rows(lower_triangular_mask(scores, mode))
    return T.matmul(weights, v)


def reference_attention_forward(
    h: Tensor, params: AttentionParams, mask_mode: MaskMode = MaskMode.NEG_INF
) -> Tensor:
    """`model.attention_forward` spelled with the composed chain."""
    q = T.linear(h, params.w_q)
    k = T.linear(h, params.w_k)
    v = T.linear(h, params.w_v)
    attended = reference_attention(q, k, v, 1.0 / math.sqrt(params.d_k), mask_mode.value)
    return T.mul(h, attended)
