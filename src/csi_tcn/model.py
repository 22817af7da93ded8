"""Classifier: temporal attention, stacked dilated causal conv blocks, shared
per-pair head, and average pooling over antenna pairs.

`ModelConfig.filters` fixes the conv stack: one block per listed width, and
block m dilates by 2^m, so the depth and the dilation schedule are not
separate settings. `_stages` is the one description of stage order: it lays
out the attention sites and conv blocks between input and head, and
`init_model`, the receptive-field window, `model_forward` and
`parameter_count` all follow it.

Input is one preprocessed sample (pairs, T, features) or a batch of them;
output is a class distribution. All pairs share the same weights; the final
distribution is the mean of the per-pair softmax outputs.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import os
import struct
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import tensor as T
from .fields import as_plain, check_fields
from .tensor import Tensor

__all__ = [
    "AttentionPlacement",
    "ModelConfig",
    "AttentionParams",
    "TcnBlockParams",
    "ModelParams",
    "init_model",
    "attention_forward",
    "tcn_block_forward",
    "model_forward",
    "receptive_field",
    "probe_receptive_field",
    "parameter_count",
    "save_checkpoint",
    "load_checkpoint",
    "model_config_to_dict",
    "model_config_from_dict",
]


class AttentionPlacement(enum.Enum):
    PRE_TCN_ONLY = "pre_tcn_only"
    POST_TCN = "post_tcn"
    EVERY_LAYER = "every_layer"
    NONE = "none"


@dataclass
class ModelConfig:
    filters: tuple[int, ...] = (50, 50, 50)  # one conv block per width
    kernel: int = 15
    dropout: float = 0.5
    attention_placement: AttentionPlacement = AttentionPlacement.PRE_TCN_ONLY
    d_k: int = 30
    n_classes: int = 12
    in_features: int = 30

    def __post_init__(self) -> None:
        check_fields(self)
        if any(f < 1 for f in self.filters):
            raise ValueError(f"filters {self.filters} must all be >= 1")
        if self.attention_placement is AttentionPlacement.EVERY_LAYER and not self.filters:
            raise ValueError("attention_placement every_layer needs at least one filter block")
        for name in ("kernel", "d_k", "n_classes", "in_features"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


def _dilations(cfg: ModelConfig) -> list[int]:
    """Per-block dilation: block m of the stack dilates by 2^m."""
    return [2**m for m in range(len(cfg.filters))]


def model_config_to_dict(cfg: ModelConfig) -> dict:
    return as_plain(cfg)


def model_config_from_dict(d: dict) -> ModelConfig:
    """Inverse of `model_config_to_dict`. Version 1 checkpoint headers also
    carry `layers` and `dilations`, derived from `filters`, and `mask_mode`
    and `residual`, which can only be "neg_inf" and true; each is accepted
    only when it holds that value, then dropped."""
    d = dict(d)
    legacy = {key: d.pop(key) for key in ("layers", "dilations", "mask_mode", "residual") if key in d}
    known = {f.name for f in dataclasses.fields(ModelConfig)}
    unknown = set(d) - known
    if unknown:
        raise ValueError(f"unknown model config key: {sorted(unknown)[0]}")
    cfg = ModelConfig(**d)
    expected = {
        "layers": len(cfg.filters),
        "dilations": _dilations(cfg),
        "mask_mode": "neg_inf",
        "residual": True,
    }
    for key, value in legacy.items():
        if value != expected[key]:
            raise ValueError(f"model config key {key} is {value!r}, but this model has {expected[key]!r}")
    return cfg


@dataclass
class AttentionParams:
    """Query/key/value maps; the value map is square so the attended output
    matches the input width and can gate it elementwise."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor

    def __post_init__(self) -> None:
        f = self.w_q.shape[1]
        if self.w_k.shape[1] != f or self.w_v.shape[1] != f:
            raise ValueError("w_q, w_k, w_v must share their input dimension")
        if self.w_k.shape[0] != self.w_q.shape[0]:
            raise ValueError("w_q and w_k must share their output dimension d_k")
        if self.w_v.shape != (f, f):
            raise ValueError(f"w_v must be square ({f}, {f}), got {self.w_v.shape}")

    @property
    def d_k(self) -> int:
        return self.w_q.shape[0]


@dataclass
class TcnBlockParams:
    w: Tensor  # (C_out, C_in, k)
    b: Tensor  # (C_out,)
    proj: Optional[Tensor] = None  # (C_out, C_in) 1x1 residual projection


@dataclass
class ModelParams:
    attention: dict[str, AttentionParams] = field(default_factory=dict)
    blocks: list[TcnBlockParams] = field(default_factory=list)
    head_w: Tensor = None  # type: ignore[assignment]
    head_b: Tensor = None  # type: ignore[assignment]

    def named(self) -> dict[str, Tensor]:
        """Stable name -> tensor view used by the optimizer and checkpoints."""
        out: dict[str, Tensor] = {}
        for key, ap in self.attention.items():
            out[f"attn.{key}.w_q"] = ap.w_q
            out[f"attn.{key}.w_k"] = ap.w_k
            out[f"attn.{key}.w_v"] = ap.w_v
        for m, blk in enumerate(self.blocks):
            out[f"block{m}.w"] = blk.w
            out[f"block{m}.b"] = blk.b
            if blk.proj is not None:
                out[f"block{m}.proj"] = blk.proj
        out["head.w"] = self.head_w
        out["head.b"] = self.head_b
        return out

    def detached(self) -> "ModelParams":
        """The same parameters as new tensors that wrap the same arrays and
        require no grad, so a forward over them records no graph. The
        tensors of `self` are left as they are."""

        def frozen(t: Optional[Tensor]) -> Optional[Tensor]:
            return None if t is None else Tensor(t.data)

        return ModelParams(
            attention={
                key: AttentionParams(frozen(ap.w_q), frozen(ap.w_k), frozen(ap.w_v))
                for key, ap in self.attention.items()
            },
            blocks=[TcnBlockParams(frozen(b.w), frozen(b.b), frozen(b.proj)) for b in self.blocks],
            head_w=frozen(self.head_w),
            head_b=frozen(self.head_b),
        )


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> Tensor:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


class _Stage(NamedTuple):
    """One stage between input and head: an attention site, whose parameters
    sit under `key`, or a conv block (`key` None) dilated by `dilation`."""

    name: str  # activation name
    key: Optional[str]
    width: int  # input features or channels
    dilation: int = 0


def _stages(cfg: ModelConfig) -> list[_Stage]:
    """The network between input and head, in forward order. This is the one
    place the attention placement decides where attention sits."""
    widths = [cfg.in_features, *cfg.filters]
    blocks = [_Stage(f"block{m}", None, widths[m], d) for m, d in enumerate(_dilations(cfg))]
    placement = cfg.attention_placement
    if placement is AttentionPlacement.PRE_TCN_ONLY:
        return [_Stage("attention_pre", "pre", widths[0]), *blocks]
    if placement is AttentionPlacement.POST_TCN:
        return [*blocks, _Stage("attention_post", "post", widths[-1])]
    if placement is AttentionPlacement.EVERY_LAYER:
        sites = [_Stage(f"attention_layer{m}", f"layer{m}", b.width) for m, b in enumerate(blocks)]
        return [s for pair in zip(sites, blocks) for s in pair]
    return blocks


def init_model(cfg: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Glorot-uniform weights, zero biases; draw order is fixed (attention
    sites, then blocks, then head) so a seed pins every parameter."""
    params = ModelParams()
    for _, key, width, _ in (s for s in _stages(cfg) if s.key is not None):
        params.attention[key] = AttentionParams(
            w_q=_glorot(rng, (cfg.d_k, width), width, cfg.d_k),
            w_k=_glorot(rng, (cfg.d_k, width), width, cfg.d_k),
            w_v=_glorot(rng, (width, width), width, width),
        )
    c_in = cfg.in_features
    for c_out in cfg.filters:
        w = _glorot(rng, (c_out, c_in, cfg.kernel), c_in * cfg.kernel, c_out * cfg.kernel)
        b = Tensor(np.zeros(c_out), requires_grad=True)
        proj = None
        if c_in != c_out:
            proj = _glorot(rng, (c_out, c_in), c_in, c_out)
        params.blocks.append(TcnBlockParams(w=w, b=b, proj=proj))
        c_in = c_out
    params.head_w = _glorot(rng, (cfg.n_classes, c_in), c_in, cfg.n_classes)
    params.head_b = Tensor(np.zeros(cfg.n_classes), requires_grad=True)
    return params


def attention_forward(h: Tensor, params: AttentionParams, rows: Optional[int] = None) -> Tensor:
    """Masked scaled dot-product attention gating the input elementwise.

    h: (N, T, F), a batch of sequences. Keys and values are linear maps of
    every step of h; queries are linear maps of its last `rows` steps (all T
    by default). The fused `tensor.causal_attention` primitive scales the
    scores by 1/sqrt(d_k), sets every future position to -inf so it gets zero
    weight, and returns the softmax-weighted value rows, building the
    rows x T weights a chunk of samples at a time and keeping none of them
    for backward. The value map is square (`AttentionParams`), so the
    attended rows are (N, rows, F) and gate the same last rows of h
    entrywise; the output is (N, rows, F).
    """
    t_len = h.shape[-2]
    if rows is None:
        rows = t_len
    h_q = h if rows == t_len else T.index(h, (slice(None), slice(t_len - rows, None), slice(None)))
    q = T.linear(h_q, params.w_q)
    k = T.linear(h, params.w_k)
    v = T.linear(h, params.w_v)
    return T.mul(h_q, T.causal_attention(q, k, v, 1.0 / math.sqrt(params.d_k)))


def tcn_block_forward(
    x: Tensor,
    params: TcnBlockParams,
    dilation: int,
    dropout: float = 0.0,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
    steps: Optional[int] = None,
    t_full: Optional[int] = None,
) -> Tensor:
    """conv -> ReLU -> dropout, plus the residual path: the identity, or
    the 1x1 projection `params.proj` when channel counts differ. Every block
    is residual, as in Bai et al.'s TCN; channel-changing params without a
    projection are refused.

    x: (N, C_in, T), a batch of channel-major sequences; the output is
    (N, C_out, T), or (N, C_out, steps).

    With `steps` the block computes only the last `steps` output steps.
    `t_full` is the length of the full pass this block is part of, so that
    dropout draws its mask at that length (see `tensor.dropout_layer`).
    """
    t_len = x.shape[-1]
    if steps is None:
        steps = t_len
    y = T.causal_conv1d(x, params.w, params.b, dilation, steps)
    y = T.relu(y)
    y = T.dropout_layer(y, dropout, training, rng, t_full)
    c_out, c_in = params.w.shape[0], params.w.shape[1]
    if steps < t_len:
        x = T.index(x, (slice(None), slice(None), slice(t_len - steps, None)))
    if params.proj is not None:
        return T.add(y, T.matmul(params.proj, x))
    if c_in != c_out:
        raise ValueError(f"residual needs a projection when channels change ({c_in} -> {c_out})")
    return T.add(y, x)


def _stage_steps(cfg: ModelConfig, t_len: int) -> tuple[int, dict[str, int]]:
    """How many trailing time steps each stage must compute for the head.

    Walks `_stages` backwards from the head, which reads one step of the last
    stage. A conv block that must output n steps reads n + (k-1)*d steps of
    its input (at most the t_len there are). An attention site reads every
    step of its input as keys and values, but only its n output rows as
    queries. Returns the steps read of the stack's input, and the output
    steps of each stage keyed by its activation name.
    """
    out: dict[str, int] = {}
    n = 1
    for stage in reversed(_stages(cfg)):
        out[stage.name] = n
        n = t_len if stage.key is not None else min(t_len, n + (cfg.kernel - 1) * stage.dilation)
    return n, out


def model_forward(
    x,
    params: ModelParams,
    cfg: ModelConfig,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
    return_activations: bool = False,
):
    """Class distribution for one sample (P, T, F) or a batch (B, P, T, F).

    Every pair runs through shared weights; per-pair distributions are then
    averaged. With `return_activations` a dict of named full-length
    intermediate tensors is returned alongside the output (used by the
    causality probes). The stages run in `_stages` order, transposed only
    where the layout switches between attention's (N, T, F) and the conv
    blocks' (N, C, T).

    Receptive-field window: the head reads only the last conv-stack step, so
    without `return_activations` each stage computes only the trailing steps
    that the stages after it read (`_stage_steps`). With `pre_tcn_only` or
    `none` attention the stack's input is its last W = min(T,
    `receptive_field(cfg)`) steps; the attention sites take every step as
    keys and values but only the rows read as queries (W rows for
    `pre_tcn_only`, one for `post_tcn`); and each conv block outputs only the
    steps the next stage reads. Dropout still draws each block's mask at the
    full (N, C, T) shape, so the rng stream and the dropped units are the
    full pass's, and the output matches it up to float rounding.
    """
    if not isinstance(x, Tensor):
        x = Tensor(np.asarray(x, dtype=np.float64))
    single = x.ndim == 3
    if single:
        x = T.reshape(x, (1, *x.shape))
    if x.ndim != 4:
        raise ValueError(f"expected (P, T, F) or (B, P, T, F), got shape {x.shape}")
    batch, pairs, t_len, feats = x.shape
    if feats != cfg.in_features:
        raise ValueError(f"input feature width {feats} != configured {cfg.in_features}")

    first, steps = _stage_steps(cfg, t_len)
    if return_activations:  # the probes see every step
        first, steps = t_len, dict.fromkeys(steps, t_len)
    acts: dict[str, Tensor] = {}
    h = T.reshape(x, (batch * pairs, t_len, feats))
    if first < t_len:
        h = T.index(h, (slice(None), slice(t_len - first, None), slice(None)))
    time_major = True  # attention reads (N, T, F); blocks read (N, C, T)
    blocks = iter(params.blocks)
    for stage in _stages(cfg):
        if time_major != (stage.key is not None):
            h, time_major = T.transpose(h, (0, 2, 1)), not time_major
        if stage.key is not None:
            h = attention_forward(h, params.attention[stage.key], steps[stage.name])
        else:
            h = tcn_block_forward(
                h, next(blocks), stage.dilation, cfg.dropout, training, rng, steps[stage.name], t_len
            )
        acts[stage.name] = h
    z = T.transpose(h, (0, 2, 1)) if time_major else h  # (N, C, T)

    feats_last = T.index(z, (slice(None), slice(None), -1))  # (N, C_last)
    logits = T.linear(feats_last, params.head_w, params.head_b)
    pair_probs = T.softmax_rows(logits)
    probs = T.mean_over_axis(T.reshape(pair_probs, (batch, pairs, cfg.n_classes)), axis=1)
    if single:
        probs = T.reshape(probs, (cfg.n_classes,))
    acts["features"] = feats_last
    acts["logits"] = logits
    acts["pair_probs"] = pair_probs
    acts["output"] = probs
    return (probs, acts) if return_activations else probs


def receptive_field(cfg: ModelConfig) -> int:
    """Trailing input steps that can reach the final conv-stack output step:
    1 + (k-1)(2^L - 1) for L blocks dilated 1, 2, ..., 2^(L-1)."""
    return 1 + (cfg.kernel - 1) * sum(_dilations(cfg))


def probe_receptive_field(cfg: ModelConfig, t_len: Optional[int] = None, seed: int = 0) -> int:
    """Brute-force dependency count through the conv stack.

    Perturbs each input step and counts how many change the last output step.
    Weights are made positive and inputs kept positive so every live path
    propagates through the ReLUs; attention is excluded (its reach is the
    whole past by construction).
    """
    stack_cfg = dataclasses.replace(cfg, attention_placement=AttentionPlacement.NONE)
    if t_len is None:
        t_len = receptive_field(stack_cfg) + 8
    rng = np.random.default_rng(seed)
    params = init_model(stack_cfg, rng)
    for name, p in params.named().items():
        if name.startswith("block"):
            p.data = np.abs(p.data) + 0.01

    def stack_last_column(arr: np.ndarray) -> np.ndarray:
        z = Tensor(arr[None])  # a batch of one
        for block, dilation in zip(params.blocks, _dilations(stack_cfg)):
            z = tcn_block_forward(z, block, dilation)
        return z.data[0, :, -1].copy()

    base = rng.uniform(0.5, 1.0, size=(stack_cfg.in_features, t_len))
    reference = stack_last_column(base)
    count = 0
    for t in range(t_len):
        poked = base.copy()
        poked[:, t] += 1.0
        if np.any(stack_last_column(poked) != reference):
            count += 1
    return count


def parameter_count(cfg: ModelConfig) -> int:
    """Exact scalar parameter total: the sizes of what `init_model` builds."""
    return sum(p.size for p in init_model(cfg, np.random.default_rng(0)).named().values())


# ---------------------------------------------------------------------------
# Checkpoints

CHECKPOINT_MAGIC = b"TCK1"
CHECKPOINT_VERSION = 1


def save_checkpoint(path: str | os.PathLike, params: ModelParams, cfg: ModelConfig) -> None:
    """Versioned header, canonical config echo, then named shape-tagged
    little-endian float64 blocks."""
    named = params.named()
    cfg_blob = json.dumps(model_config_to_dict(cfg), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<H", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(cfg_blob)))
        fh.write(cfg_blob)
        fh.write(struct.pack("<I", len(named)))
        for name, p in named.items():
            blob = name.encode("utf-8")
            fh.write(struct.pack("<H", len(blob)))
            fh.write(blob)
            fh.write(struct.pack("<B", p.ndim))
            fh.write(struct.pack(f"<{p.ndim}I", *p.shape))
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load_checkpoint(
    path: str | os.PathLike, expected: Optional[ModelConfig] = None
) -> tuple[ModelParams, ModelConfig]:
    """Rebuild params from a checkpoint; rejects a config mismatch when the
    caller states what it expects."""
    with open(path, "rb") as fh:
        blob = fh.read()
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise ValueError(f"{path}: truncated checkpoint")
        chunk = blob[off : off + n]
        off += n
        return chunk

    if take(4) != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack("<H", take(2))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<I", take(4))
    cfg_json = take(cfg_len).decode("utf-8")
    cfg = model_config_from_dict(json.loads(cfg_json))
    if expected is not None:
        expected_json = json.dumps(model_config_to_dict(expected), sort_keys=True)
        if expected_json != json.dumps(model_config_to_dict(cfg), sort_keys=True):
            raise ValueError(f"{path}: checkpoint config does not match the expected config")

    (n_params,) = struct.unpack("<I", take(4))
    loaded: dict[str, np.ndarray] = {}
    for _ in range(n_params):
        (name_len,) = struct.unpack("<H", take(2))
        name = take(name_len).decode("utf-8")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        count = int(np.prod(shape)) if ndim else 1
        data = np.frombuffer(take(8 * count), dtype="<f8").reshape(shape).astype(np.float64)
        loaded[name] = data

    params = init_model(cfg, np.random.default_rng(0))
    named = params.named()
    if set(named) != set(loaded):
        missing = sorted(set(named) - set(loaded))
        extra = sorted(set(loaded) - set(named))
        raise ValueError(f"{path}: parameter names mismatch (missing {missing}, extra {extra})")
    for name, p in named.items():
        if loaded[name].shape != p.shape:
            raise ValueError(
                f"{path}: shape of {name} is {loaded[name].shape}, expected {p.shape}"
            )
        p.data = loaded[name]
        p.grad = None
    return params, cfg
