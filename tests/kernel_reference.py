"""The parent kernels of `tensor.causal_conv1d`, `tensor.causal_attention`
and `tensor.dropout_layer`, kept as bitwise reference oracles.

These are the whole-slice versions: the convolution keeps a padded copy of
its input for the backward pass, attention keeps its N x T x T weights and
allocates two more T x T buffers in backward, and dropout keeps a float64
scale array. The chunked kernels must match them bit for bit, forward and
backward.
"""

from typing import Optional

import numpy as np

from csi_tcn.tensor import Tensor, _accumulate, _fan_out, _make, _unbroadcast


def _batched(a: np.ndarray, lead: tuple[int, ...]) -> np.ndarray:
    """View of `a` (..., R, C) broadcast to `lead + (R, C)`, with a leading
    axis of 1 when `lead` is empty, so the batch axis is always axis 0."""
    a = np.broadcast_to(a, lead + a.shape[-2:])
    return a if lead else a[None]


def _unbatched(a: np.ndarray, lead: tuple[int, ...]) -> np.ndarray:
    return a if lead else a[0]


def causal_conv1d(
    x: Tensor, w: Tensor, bias: Optional[Tensor] = None, dilation: int = 1
) -> Tensor:
    """Dilated causal convolution along the trailing time axis.

    x: (C_in, T) or (N, C_in, T); w: (C_out, C_in, k); bias: (C_out,).
    The input is left-padded with (k-1)*dilation zeros, so the output keeps
    length T and y[..., t] = bias + sum_{c,kk} w[:, c, kk] * x_pad[c, t + kk*d],
    i.e. tap kk = k-1 reads the current sample and earlier taps reach back in
    strides of `dilation`.
    """
    if dilation < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")
    if w.ndim != 3:
        raise ValueError(f"kernel must be 3-D (C_out, C_in, k), got {w.shape}")
    squeeze = x.ndim == 2
    if x.ndim not in (2, 3):
        raise ValueError(f"input must be (C_in, T) or (N, C_in, T), got {x.shape}")
    xd = x.data[None] if squeeze else x.data
    n, c_in, t_len = xd.shape
    c_out, c_in_w, k = w.shape
    if c_in_w != c_in:
        raise ValueError(f"kernel expects {c_in_w} input channels, input has {c_in}")
    if bias is not None and bias.shape != (c_out,):
        raise ValueError(f"bias shape {bias.shape} != ({c_out},)")

    pad = (k - 1) * dilation
    xp = np.pad(xd, ((0, 0), (0, 0), (pad, 0)))
    data = np.zeros((n, c_out, t_len))
    tap_out = np.empty_like(data)

    def forward_slice(b0: int, b1: int) -> None:
        out, tap = data[b0:b1], tap_out[b0:b1]
        for kk in range(k):
            np.matmul(w.data[:, :, kk], xp[b0:b1, :, kk * dilation : kk * dilation + t_len], out=tap)
            out += tap
        if bias is not None:
            out += bias.data[:, None]

    _fan_out(forward_slice, n)

    def backward_fn(g):
        g3 = g[None] if squeeze else g
        need_x, need_w = x.requires_grad, w.requires_grad
        if need_x:
            gxp = np.zeros_like(xp)
            gx_tap = np.empty((n, c_in, t_len))
        if need_w:
            # Per-sample products of every tap; the sum over samples runs
            # after the join so its order never depends on the worker count.
            gw_taps = np.empty((k, n, c_out, c_in))

        def backward_slice(b0: int, b1: int) -> None:
            for kk in range(k):
                window = slice(kk * dilation, kk * dilation + t_len)
                if need_x:
                    np.matmul(w.data[:, :, kk].T, g3[b0:b1], out=gx_tap[b0:b1])
                    gxp[b0:b1, :, window] += gx_tap[b0:b1]
                if need_w:
                    np.matmul(g3[b0:b1], xp[b0:b1, :, window].swapaxes(1, 2), out=gw_taps[kk, b0:b1])

        if need_x or need_w:
            _fan_out(backward_slice, n)
        if need_x:
            gx = gxp[:, :, pad:]
            _accumulate(x, gx[0] if squeeze else gx)
        if need_w:
            gw = np.empty_like(w.data)
            for kk in range(k):
                gw[:, :, kk] = gw_taps[kk].sum(axis=0)
            _accumulate(w, gw)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g3.sum(axis=(0, 2)))

    parents = (x, w) if bias is None else (x, w, bias)
    return _make(data[0] if squeeze else data, parents, backward_fn, "causal_conv1d")


def causal_attention(q: Tensor, k: Tensor, v: Tensor, scale: float) -> Tensor:
    """softmax(mask(q k^T * scale)) v with the T x T weights built in one buffer.

    q, k: (..., T, d_k); v: (..., T, F). Entries above the main diagonal of
    the scores are set to -inf before the row softmax, so they get zero
    weight.

    Only the weights P are kept for the backward pass, which is analytic:
    gP = g v^T, gv = P^T g, gS = P (gP - rowsum(gP P)), masked entries of gS
    zeroed, times scale, then gq = gS k and gk = (q^T gS)^T. The float
    operations and their order match the composed chain
    matmul -> scale -> mask -> softmax_rows -> matmul, so results are
    bit-identical to it.
    """
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise ValueError("attention operands must be at least 2-D")
    t_len = q.shape[-2]
    if k.shape[-2] != t_len or v.shape[-2] != t_len:
        raise ValueError(
            f"scores must be a square T x T block; got q {q.shape}, k {k.shape}, v {v.shape}"
        )
    scale = np.float64(scale)
    above = np.triu(np.ones((t_len, t_len), dtype=bool), k=1)
    lead = np.broadcast_shapes(q.shape[:-2], k.shape[:-2], v.shape[:-2])
    qd, kd, vd = (_batched(a.data, lead) for a in (q, k, v))
    n = qd.shape[0]
    weights = np.empty(qd.shape[:-1] + (t_len,))
    data = np.empty(vd.shape)

    def forward_slice(b0: int, b1: int) -> None:
        p = weights[b0:b1]
        np.matmul(qd[b0:b1], np.swapaxes(kd[b0:b1], -1, -2), out=p)
        p *= scale
        np.copyto(p, -np.inf, where=above)
        row_max = np.max(p, axis=-1, keepdims=True)
        if np.any(np.isneginf(row_max)):
            raise ValueError("softmax row is entirely -inf")
        p -= row_max
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        np.matmul(p, vd[b0:b1], out=data[b0:b1])

    _fan_out(forward_slice, n)

    def backward_fn(g):
        g3 = _batched(g, lead)
        need_v, need_q, need_k = v.requires_grad, q.requires_grad, k.requires_grad
        need_s = need_q or need_k
        gv = np.empty(vd.shape) if need_v else None
        if need_s:
            gs = np.empty(weights.shape)
            gs_p = np.empty(weights.shape)
            gq = np.empty(qd.shape) if need_q else None
            gk = np.empty(kd.shape[:-2] + (kd.shape[-1], t_len)) if need_k else None

        def backward_slice(b0: int, b1: int) -> None:
            p = weights[b0:b1]
            if need_v:
                np.matmul(np.swapaxes(p, -1, -2), g3[b0:b1], out=gv[b0:b1])
            if not need_s:
                return
            s = gs[b0:b1]
            np.matmul(g3[b0:b1], np.swapaxes(vd[b0:b1], -1, -2), out=s)
            np.multiply(s, p, out=gs_p[b0:b1])
            s -= gs_p[b0:b1].sum(axis=-1, keepdims=True)
            s *= p
            np.copyto(s, 0.0, where=above)
            s *= scale
            if need_q:
                np.matmul(s, kd[b0:b1], out=gq[b0:b1])
            if need_k:
                np.matmul(np.swapaxes(qd[b0:b1], -1, -2), s, out=gk[b0:b1])

        _fan_out(backward_slice, n)
        if need_v:
            _accumulate(v, _unbroadcast(_unbatched(gv, lead), v.shape))
        if need_q:
            _accumulate(q, _unbroadcast(_unbatched(gq, lead), q.shape))
        if need_k:
            _accumulate(k, _unbroadcast(np.swapaxes(_unbatched(gk, lead), -1, -2), k.shape))

    return _make(_unbatched(data, lead), (q, k, v), backward_fn, "causal_attention")


def dropout_layer(
    x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None
) -> Tensor:
    """Inverted dropout: survivors scale by 1/(1-p); evaluation is identity."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate {p} outside [0, 1)")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    scale = (rng.random(x.shape) >= p) / (1.0 - p)
    data = x.data * scale

    def backward_fn(g):
        _accumulate(x, g * scale)

    return _make(data, (x,), backward_fn, "dropout")
