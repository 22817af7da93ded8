"""Dense float64 arrays with recorded operations and reverse-mode gradients.

Covers exactly the primitives a training step of the classifier records:
dilated causal 1-D convolution (optionally only its last output steps),
affine maps, matrix products, row softmax, fused causal attention over a
W x T score block (W query rows aligned to the end of T key steps), ReLU,
elementwise add and multiply, transpose, reshape and basic indexing, the
mean over one axis, inverted dropout, and cross-entropy.
Graphs are built eagerly; calling `backward()` on a scalar root accumulates
gradients into every reachable tensor that requires them. Like PyTorch's
default (`retain_graph=False`), backward frees the graph as it walks it: each
node drops its backward closure and its parents once its gradient has been
handed on, so forward data and gradients go as soon as nothing else holds
the node. Leaves, and any intermediate tensor the caller still holds, keep
their `.grad`; a second backward through a consumed graph raises ValueError.

Conventions: the two kernels take batched operands only, the batch on axis
0. Convolution inputs are (N, C, T), with time trailing, and attention
operands are (N, T, F), all three with the same N; a 2-D operand, mismatched
batch sizes or a missing conv bias are refused by name. `add` takes two
operands of one shape and refuses any other pair by name. `mul` broadcasts,
and matmul requires >= 2-D operands and broadcasts leading batch axes; their
gradients are summed back to each operand's shape.

Threading: `causal_conv1d` and `causal_attention` hand each forward and
backward pass to `_over_chunks` as a body that works on one chunk of samples.
The driver splits the leading batch axis into contiguous slices, one per
usable core, and runs them on a private pool created on first use; with one
core or one sample the same code runs inline. Each slice walks its samples
in chunks whose scratch fits `_CHUNK_BYTES`, reusing one set of chunk
buffers. The calling thread allocates every output and scratch buffer and
each body writes only into its own chunk, so workers allocate nothing large.
Scratch lives only for one forward or backward call: the convolution keeps
no padded copy of its input, and attention keeps no weights, recomputing
them per chunk in backward. Reductions across samples (the conv weight and
bias gradients) run in the calling thread after the join; the weight
gradient is formed one tap at a time, so only one tap's per-sample products
exist at once. Every sample's float operations keep their order, so results
are bitwise independent of the worker count and the chunk size. BLAS calls
inside the workers are expected to be single-threaded; `train` pins them.

Heap thresholds: because backward frees arrays in the middle of the pass,
glibc's dynamic rule would trim the top of the heap several times per step
and the pages would fault straight back in on the next one. At import the
module fixes the mmap threshold at 32 MiB and the trim threshold at 64 MiB,
the values that rule climbs to anyway (see `_hold_heap_thresholds`).
"""

from __future__ import annotations

import ctypes
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "add",
    "mul",
    "matmul",
    "transpose",
    "reshape",
    "index",
    "relu",
    "softmax_rows",
    "causal_attention",
    "causal_conv1d",
    "linear",
    "mean_over_axis",
    "dropout_layer",
    "cross_entropy_mean",
    "backward",
    "grad_check",
]

# glibc mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _hold_heap_thresholds() -> None:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB.

    glibc starts both low and raises them only as large blocks are freed.
    Until they settle, the frees that `backward` makes in the middle of a
    pass trim the top of the heap, and the next step faults those pages back
    in. These are the values the dynamic rule climbs to (its 64-bit mmap
    ceiling, and trim at twice that), fixed from the start. The C library is
    taken from the running process (`CDLL(None)`) because
    `ctypes.util.find_library` starts a subprocess. Without `mallopt` (a C
    library other than glibc) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 * 2**20)
    mallopt(_M_TRIM_THRESHOLD, 64 * 2**20)


_hold_heap_thresholds()


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "op", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self.op = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        backward(self)


def _make(
    data: np.ndarray,
    parents: tuple[Tensor, ...],
    backward_fn: Callable[[np.ndarray], None],
    op: str,
) -> Tensor:
    out = Tensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = parents
        out._backward = backward_fn
    out.op = op
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add `g` into `t.grad`.

    The first contribution is stored without a copy, so `t.grad` may alias an
    array another node also holds (the child's own gradient, or a view of
    it). That is safe because of two invariants: later contributions are
    added out of place (`t.grad + g` makes a new array), and no backward
    function writes into an array it received or handed on. When `backward`
    frees a consumed node, an array that a parent's `.grad` aliases stays
    alive through the parent; only arrays no live tensor holds are released.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.asarray(g, dtype=np.float64)
    else:
        t.grad = t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# Batch fan-out for the heavy kernels

# One kernel worker per usable core; the pool starts on first use.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool: Optional[ThreadPoolExecutor] = None

# Scratch budget of one chunk of samples inside a kernel slice. A chunk's
# scratch is reused by every step of the chunk, so it should stay in a core's
# cache; a sample whose scratch alone exceeds the budget is its own chunk.
_CHUNK_BYTES = 512 * 1024


def _slices(n: int) -> list[tuple[int, int]]:
    """The contiguous slices `(b0, b1)` that `_fan_out` splits `range(n)` into."""
    parts = max(1, min(_WORKERS, n))
    bounds = [n * i // parts for i in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def _fan_out(fn: Callable[[int, int], None], n: int) -> None:
    """Run `fn(b0, b1)` over contiguous slices that cover `range(n)`.

    The kernels call it through `_over_chunks`, and so does
    `csi_data.synthesize_recording` over the antenna pairs of one recording.
    `csi_data.generate_synthetic` calls it directly over the recordings of a
    dataset, and `augment._mix` over the antenna pairs of a raw mix.

    With one worker or one sample this is the plain call `fn(0, n)`.
    Otherwise each slice runs on the kernel pool, the caller waits for all of
    them, and the first exception (in slice order) is raised here. `fn` must
    write only into its own slice of arrays the caller allocated, and must not
    fan out again.
    """
    slices = _slices(n)
    if len(slices) == 1:
        fn(0, n)
        return
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(max_workers=_WORKERS, thread_name_prefix="csi-tcn-kernel")
    futures = [_pool.submit(fn, b0, b1) for b0, b1 in slices]
    wait(futures)
    for future in futures:
        future.result()


def _chunk_len(sample_shapes: Sequence[tuple[int, ...]]) -> int:
    """Samples per chunk: as many as fit `_CHUNK_BYTES` of one float64
    buffer per entry of `sample_shapes` together, and at least one."""
    sample_bytes = 8 * sum(math.prod(shape) for shape in sample_shapes)
    return max(1, _CHUNK_BYTES // max(sample_bytes, 1))


def _over_chunks(n: int, sample_shapes: Sequence[tuple[int, ...]], fn: Callable[..., None]) -> None:
    """Run `fn(c0, c1, *buffers)` over consecutive chunks `(c0, c1)` of samples
    that cover `range(n)`, each `_fan_out` slice on its own worker.

    Every slice gets one zeroed float64 buffer per entry of `sample_shapes`,
    with a leading chunk axis of as many samples as fit `_CHUNK_BYTES` of all
    the buffers together: at least one, and at most the slice's length. They
    are allocated here, in the calling thread, before any worker runs, so
    workers allocate nothing large. `fn` gets them cut to the chunk's length;
    a slice reuses its buffers for every chunk, so what `fn` leaves in them
    carries over to the next chunk of the slice.
    """
    size = _chunk_len(sample_shapes)
    buffers = {
        b0: [np.zeros((min(size, b1 - b0),) + shape) for shape in sample_shapes]
        for b0, b1 in _slices(n)
    }

    def run_slice(b0: int, b1: int) -> None:
        for c0 in range(b0, b1, size):
            c1 = min(c0 + size, b1)
            fn(c0, c1, *(buf[: c1 - c0] for buf in buffers[b0]))

    _fan_out(run_slice, n)


# ---------------------------------------------------------------------------
# Elementwise and structural primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add operands must share one shape; got {a.shape} and {b.shape}")
    data = a.data + b.data

    def backward_fn(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _make(data, (a, b), backward_fn, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), backward_fn, "mul")


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def backward_fn(g):
        _accumulate(a, g * (a.data > 0.0))

    return _make(data, (a,), backward_fn, "relu")


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    data = np.transpose(a.data, axes)

    def backward_fn(g):
        _accumulate(a, np.transpose(g, inverse))

    return _make(data, (a,), backward_fn, "transpose")


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)

    def backward_fn(g):
        _accumulate(a, g.reshape(a.shape))

    return _make(data, (a,), backward_fn, "reshape")


def index(a: Tensor, idx) -> Tensor:
    """Basic (slice/int) indexing with gradient scatter."""
    data = a.data[idx]

    def backward_fn(g):
        ga = np.zeros_like(a.data)
        ga[idx] = g
        _accumulate(a, ga)

    return _make(np.array(data), (a,), backward_fn, "index")


def mean_over_axis(a: Tensor, axis: int) -> Tensor:
    n = a.shape[axis]
    data = a.data.mean(axis=axis)

    def backward_fn(g):
        _accumulate(a, np.broadcast_to(np.expand_dims(g, axis) / n, a.shape).copy())

    return _make(data, (a,), backward_fn, "mean")


# ---------------------------------------------------------------------------
# Linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
    data = np.matmul(a.data, b.data)

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))

    return _make(data, (a, b), backward_fn, "matmul")


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Affine map over the trailing axis: y[..., o] = sum_i x[..., i] w[o, i] + b[o]."""
    if w.ndim != 2:
        raise ValueError(f"weight must be 2-D, got shape {w.shape}")
    if x.shape[-1] != w.shape[1]:
        raise ValueError(f"input width {x.shape[-1]} != weight fan-in {w.shape[1]}")
    if b is not None and b.shape != (w.shape[0],):
        raise ValueError(f"bias shape {b.shape} != ({w.shape[0]},)")
    data = x.data @ w.data.T
    if b is not None:
        data = data + b.data

    def backward_fn(g):
        g2 = g.reshape(-1, w.shape[0])
        if x.requires_grad:
            _accumulate(x, (g2 @ w.data).reshape(x.shape))
        if w.requires_grad:
            _accumulate(w, g2.T @ x.data.reshape(-1, w.shape[1]))
        if b is not None and b.requires_grad:
            _accumulate(b, g2.sum(axis=0))

    parents = (x, w) if b is None else (x, w, b)
    return _make(data, parents, backward_fn, "linear")


def causal_conv1d(x: Tensor, w: Tensor, bias: Tensor, dilation: int = 1, steps: Optional[int] = None) -> Tensor:
    """Dilated causal convolution along the trailing time axis.

    x: (N, C_in, T); w: (C_out, C_in, k); bias: (C_out,). The input is
    left-padded with (k-1)*dilation zeros and
    y[n, :, t] = bias + sum_{c,kk} w[:, c, kk] * x_pad[n, c, t + kk*d],
    i.e. tap kk = k-1 reads the current sample and earlier taps reach back in
    strides of `dilation`. The output is (N, C_out, T), or with `steps` holds
    only the last `steps` of those T outputs: they read only the last
    steps + (k-1)*d inputs, and the zero pad only where that reaches back
    past the first input. Backward always forms the weight and bias
    gradients, and the input gradient when x requires it.
    """
    if dilation < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")
    if w.ndim != 3:
        raise ValueError(f"kernel must be 3-D (C_out, C_in, k), got {w.shape}")
    if x.ndim != 3:
        raise ValueError(f"input must be (N, C_in, T), got {x.shape}")
    xd = x.data
    n, c_in, t_len = xd.shape
    c_out, c_in_w, k = w.shape
    if c_in_w != c_in:
        raise ValueError(f"kernel expects {c_in_w} input channels, input has {c_in}")
    if bias is None or bias.shape != (c_out,):
        raise ValueError(f"bias must have shape ({c_out},), got {None if bias is None else bias.shape}")
    if steps is None:
        steps = t_len
    if not 0 <= steps <= t_len:
        raise ValueError(f"steps {steps} outside [0, {t_len}]")

    reach = (k - 1) * dilation
    # Zeros the kept outputs read before the first input, and the padded
    # index that tap 0 of the first kept output reads.
    pad = max(0, reach - (t_len - steps))
    start = t_len - steps + pad - reach
    windows = [slice(start + kk * dilation, start + kk * dilation + steps) for kk in range(k)]
    data = np.zeros((n, c_out, steps))

    # Chunk buffers: the left-padded input (the pad stays zero) and one tap's
    # product.
    def forward_chunk(c0: int, c1: int, xp: np.ndarray, tap: np.ndarray) -> None:
        out = data[c0:c1]
        xp[:, :, pad:] = xd[c0:c1]
        for kk in range(k):
            np.matmul(w.data[:, :, kk], xp[:, :, windows[kk]], out=tap)
            out += tap
        out += bias.data[:, None]

    _over_chunks(n, [(c_in, t_len + pad), (c_out, steps)], forward_chunk)

    def backward_fn(g):
        if x.requires_grad:
            gx = np.zeros((n, c_in, t_len))

            def backward_chunk(c0: int, c1: int, tap: np.ndarray) -> None:
                for kk in range(k):
                    # Column j of tap kk's input gradient belongs to input
                    # time at + j; the first `lag` columns fall in the pad.
                    at = windows[kk].start - pad
                    lag = max(0, -at)
                    if lag < steps:
                        np.matmul(w.data[:, :, kk].T, g[c0:c1], out=tap)
                        gx[c0:c1, :, at + lag : at + steps] += tap[:, :, lag:]

            _over_chunks(n, [(c_in, steps)], backward_chunk)
            _accumulate(x, gx)
        # One tap at a time: every sample's product of the tap, then their
        # sum in sample order, so the order never depends on the worker count
        # and only one tap's products are alive at once.
        xp = xd
        if pad:
            xp = np.zeros((n, c_in, t_len + pad))
            xp[:, :, pad:] = xd
        products = np.empty((n, c_out, c_in))
        gw = np.empty_like(w.data)
        for kk in range(k):

            def tap_products(b0: int, b1: int) -> None:
                np.matmul(g[b0:b1], xp[b0:b1, :, windows[kk]].swapaxes(1, 2), out=products[b0:b1])

            _fan_out(tap_products, n)
            gw[:, :, kk] = products.sum(axis=0)
        _accumulate(w, gw)
        _accumulate(bias, g.sum(axis=(0, 2)))

    return _make(data, (x, w, bias), backward_fn, "causal_conv1d")


# ---------------------------------------------------------------------------
# Attention pieces


def _softmax_in_place(p: np.ndarray) -> None:
    """Overwrite `p` with its softmax along the trailing axis; -inf entries
    get probability 0."""
    row_max = np.max(p, axis=-1, keepdims=True)
    if np.any(np.isneginf(row_max)):
        raise ValueError("softmax row is entirely -inf")
    p -= row_max
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax along the trailing axis; -inf entries get probability 0."""
    data = a.data.copy()
    _softmax_in_place(data)

    def backward_fn(g):
        dot = np.sum(g * data, axis=-1, keepdims=True)
        _accumulate(a, data * (g - dot))

    return _make(data, (a,), backward_fn, "softmax_rows")


def causal_attention(q: Tensor, k: Tensor, v: Tensor, scale: float) -> Tensor:
    """softmax(mask(q k^T * scale)) v, with the W x T weights built per chunk.

    q: (N, W, d_k), k: (N, T, d_k) and v: (N, T, F), with W <= T query rows
    aligned to the end of k and v: query row i stands at step T-W+i and
    attends keys 0..T-W+i. W = T is the square causal block. Entries right of
    that shifted diagonal are set to -inf before the row softmax, so they get
    zero weight. The output is (N, W, F).

    Nothing but the operands is kept for the backward pass. It recomputes
    each chunk's weights P with the same operations as the forward pass, then
    applies the analytic gradient: gP = g v^T, gv = P^T g,
    gS = P (gP - rowsum(gP P)), masked entries of gS zeroed, times scale,
    then gq = gS k and gk = (q^T gS)^T. It forms all three gradients. The
    float operations and their order match the composed chain
    matmul -> scale -> mask -> softmax_rows -> matmul, so results are
    bit-identical to it.
    """
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3 or not q.shape[0] == k.shape[0] == v.shape[0]:
        raise ValueError(
            f"attention operands must be (N, steps, width) with one N; got q {q.shape}, k {k.shape}, v {v.shape}"
        )
    n, rows, t_len = q.shape[0], q.shape[1], k.shape[1]
    if v.shape[1] != t_len:
        raise ValueError(f"k and v must share their steps; got k {k.shape}, v {v.shape}")
    if rows > t_len:
        raise ValueError(f"q has {rows} rows, more than the {t_len} key steps; got q {q.shape}, k {k.shape}")
    scale = np.float64(scale)
    above = np.triu(np.ones((rows, t_len), dtype=bool), k=t_len - rows + 1)
    qd, kd, vd = q.data, k.data, v.data
    block = (rows, t_len)  # one sample's W x T weights
    data = np.empty((n, rows, vd.shape[-1]))

    def weights(c0: int, c1: int, p: np.ndarray) -> None:
        """Write the weights of samples c0:c1 into `p`."""
        np.matmul(qd[c0:c1], np.swapaxes(kd[c0:c1], -1, -2), out=p)
        p *= scale
        np.copyto(p, -np.inf, where=above)
        _softmax_in_place(p)

    def forward_chunk(c0: int, c1: int, p: np.ndarray) -> None:
        weights(c0, c1, p)
        np.matmul(p, vd[c0:c1], out=data[c0:c1])

    _over_chunks(n, [block], forward_chunk)

    def backward_fn(g):
        gv = np.empty(vd.shape)
        gq = np.empty(qd.shape)
        gk = np.empty((n, kd.shape[-1], t_len))

        def backward_chunk(c0: int, c1: int, p: np.ndarray, s: np.ndarray, s_p: np.ndarray) -> None:
            weights(c0, c1, p)
            np.matmul(np.swapaxes(p, -1, -2), g[c0:c1], out=gv[c0:c1])
            np.matmul(g[c0:c1], np.swapaxes(vd[c0:c1], -1, -2), out=s)
            np.multiply(s, p, out=s_p)
            s -= s_p.sum(axis=-1, keepdims=True)
            s *= p
            np.copyto(s, 0.0, where=above)
            s *= scale
            np.matmul(s, kd[c0:c1], out=gq[c0:c1])
            np.matmul(np.swapaxes(qd[c0:c1], -1, -2), s, out=gk[c0:c1])

        _over_chunks(n, [block, block, block], backward_chunk)
        _accumulate(v, gv)
        _accumulate(q, gq)
        _accumulate(k, np.swapaxes(gk, -1, -2))

    return _make(data, (q, k, v), backward_fn, "causal_attention")


# ---------------------------------------------------------------------------
# Regularization and loss


def dropout_layer(
    x: Tensor,
    p: float,
    training: bool,
    rng: Optional[np.random.Generator] = None,
    t_full: Optional[int] = None,
) -> Tensor:
    """Inverted dropout: survivors scale by 1/(1-p); evaluation is identity.

    With `t_full`, x holds the last x.shape[-1] of `t_full` time steps: the
    mask is drawn for all `t_full` steps and only its last columns are kept,
    so the rng stream and the dropped units match a pass over the full length.
    The draws go through one buffer of a few rows at a time, which takes the
    same stream as a single `rng.random` call over the whole shape.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate {p} outside [0, 1)")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    steps = x.shape[-1]
    if t_full is None:
        t_full = steps
    if t_full < steps:
        raise ValueError(f"t_full {t_full} is shorter than the input's {steps} steps")
    keep = np.empty(x.shape, dtype=bool)
    rows = keep.reshape(math.prod(x.shape[:-1]), steps)
    draw = np.empty((max(1, _CHUNK_BYTES // (8 * max(t_full, 1))), t_full))
    for r0 in range(0, len(rows), len(draw)):
        chunk = draw[: len(rows) - r0]
        rng.random(out=chunk)
        np.greater_equal(chunk[:, t_full - steps :], p, out=rows[r0 : r0 + len(chunk)])
    survivor = 1.0 / (1.0 - p)
    # The bool mask is all the backward pass keeps; the float factors are
    # rebuilt from it, so both passes multiply by exactly 1/(1-p) or 0.0.
    data = x.data * np.where(keep, survivor, 0.0)

    def backward_fn(g):
        _accumulate(x, g * np.where(keep, survivor, 0.0))

    return _make(data, (x,), backward_fn, "dropout")


_PROB_CLAMP = 1e-12


def _check_distribution(p: np.ndarray) -> None:
    if not np.all(np.isfinite(p)):
        raise ValueError("input is not a probability distribution (non-finite entries)")
    sums = p.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > 1e-6) or np.any(p < -1e-6):
        raise ValueError("input is not a probability distribution (within 1e-6)")


def _check_labels(labels: np.ndarray, classes: int) -> None:
    bad = labels[(labels < 0) | (labels >= classes)]
    if bad.size:
        raise ValueError(f"label {bad.flat[0]} outside the model's classes [0, {classes})")


def cross_entropy_mean(probabilities: Tensor, labels: np.ndarray) -> Tensor:
    """Mean of -log p[b, labels[b]] over the batch axis."""
    if probabilities.ndim != 2:
        raise ValueError(f"expected (batch, classes), got shape {probabilities.shape}")
    labels = np.asarray(labels)
    _check_distribution(probabilities.data)
    _check_labels(labels, probabilities.shape[1])
    batch = probabilities.shape[0]
    rows = np.arange(batch)
    p = probabilities.data[rows, labels]
    clamped = np.maximum(p, _PROB_CLAMP)
    data = -np.log(clamped).mean()

    def backward_fn(g):
        gp = np.zeros_like(probabilities.data)
        live = p > _PROB_CLAMP
        gp[rows[live], labels[live]] = -float(g) / (batch * p[live])
        _accumulate(probabilities, gp)

    return _make(np.asarray(data), (probabilities,), backward_fn, "cross_entropy_mean")


# ---------------------------------------------------------------------------
# Reverse-mode driver


def _topological_order(root: Tensor) -> list[Tensor]:
    """Nodes reachable from `root` that require grad, parents before children.

    Raises before any gradient is touched when a recorded node (not a leaf)
    has lost its backward closure, i.e. an earlier backward consumed it.
    """
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is None and node.op != "leaf":
            raise ValueError("graph was already consumed by backward; run the forward pass again")
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad:
                stack.append((parent, False))
    return order


def backward(root: Tensor) -> None:
    """Accumulate gradients of the scalar `root` into all recorded tensors,
    freeing the graph as it goes.

    Nodes are popped from the topological order child first. Once a node's
    closure has handed its gradient to its parents, the node drops the
    closure and its parents, so the node (its forward data and its gradient)
    is freed as soon as nothing outside the graph holds it. Leaves and any
    tensor the caller still holds keep their `.grad`. A consumed graph cannot
    be walked again: a second call through it raises ValueError.
    """
    if root.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.shape}")
    if not root.requires_grad:
        raise ValueError("backward root does not require grad")
    order = _topological_order(root)
    root.grad = np.ones_like(root.data)
    while order:
        node = order.pop()
        if node._backward is not None:
            node._backward(node.grad)
            node._backward = None
            node._parents = ()


def grad_check(
    f: Callable[..., Tensor],
    x: Tensor | Iterable[Tensor],
    eps: float = 1e-5,
) -> float:
    """Max relative error between analytic gradients and central differences.

    `f(*tensors)` must rebuild the (deterministic) graph and return a scalar.
    The error per coordinate is |a - n| / max(|a|, |n|, 1), i.e. absolute
    error for small gradients and relative error for large ones.
    """
    tensors = [x] if isinstance(x, Tensor) else list(x)
    for t in tensors:
        t.grad = None
    out = f(*tensors)
    if out.size != 1:
        raise ValueError("grad_check target must return a scalar")
    out.backward()
    analytic = [
        np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors
    ]
    worst = 0.0
    for t, a in zip(tensors, analytic):
        flat_a = a.ravel()
        for i in range(t.data.size):
            orig = t.data.flat[i]
            t.data.flat[i] = orig + eps
            f_plus = float(f(*tensors).data)
            t.data.flat[i] = orig - eps
            f_minus = float(f(*tensors).data)
            t.data.flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(flat_a[i] - numeric) / max(abs(flat_a[i]), abs(numeric), 1.0)
            worst = max(worst, err)
    return worst
