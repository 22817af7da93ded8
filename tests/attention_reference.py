"""Composed-chain attention kept as the bitwise reference oracle for
`tensor.causal_attention`.

This is the pre-fusion spelling: matmul -> scale -> causal mask -> row
softmax -> matmul, each step its own recorded op with its own W x T tensor
(W query rows aligned to the end of T key steps). The fused primitive must
match it bit for bit, forward and backward.
"""

import math

import numpy as np

from csi_tcn import tensor as T
from csi_tcn.model import AttentionParams
from csi_tcn.tensor import Tensor


def lower_triangular_mask(s: Tensor) -> Tensor:
    """Set to -inf the entries of the trailing W x T block (W <= T) that lie
    right of the diagonal ending in its last corner, so row i keeps columns
    0..T-W+i."""
    if s.ndim < 2 or s.shape[-2] > s.shape[-1]:
        raise ValueError(f"mask input must end in a block with no more rows than columns, got {s.shape}")
    rows, t = s.shape[-2:]
    above = np.triu(np.ones((rows, t), dtype=bool), k=t - rows + 1)
    data = np.where(above, -np.inf, s.data)

    def backward_fn(g):
        T._accumulate(s, np.where(above, 0.0, g))

    return T._make(data, (s,), backward_fn, "lower_triangular_mask")


def _swap_last(t: Tensor) -> Tensor:
    axes = list(range(t.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return T.transpose(t, axes)


def reference_attention(q: Tensor, k: Tensor, v: Tensor, scale: float) -> Tensor:
    scores = T.mul(T.matmul(q, _swap_last(k)), Tensor(scale))
    weights = T.softmax_rows(lower_triangular_mask(scores))
    return T.matmul(weights, v)


def reference_attention_forward(h: Tensor, params: AttentionParams, rows=None) -> Tensor:
    """`model.attention_forward` spelled with the composed chain."""
    t_len = h.shape[-2]
    rows = t_len if rows is None else rows
    h_q = h if rows == t_len else T.index(h, (Ellipsis, slice(t_len - rows, None), slice(None)))
    q = T.linear(h_q, params.w_q)
    k = T.linear(h, params.w_k)
    v = T.linear(h, params.w_v)
    attended = reference_attention(q, k, v, 1.0 / math.sqrt(params.d_k))
    return T.mul(h_q, attended)
