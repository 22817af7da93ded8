"""Dataset augmentation: value dropout and three-sample mixing.

The operators keep tensor shape and label and draw their randomness from
explicit generators, so expansion is reproducible and schedule-independent.
One expander, `augmented`, serves both domains and takes the domain from the
input: float grids are preprocessed samples (pairs, packets, subcarriers);
int8 grids are raw complex recordings with a trailing (re, im) axis, whose
outputs are rounded back into the signed 8-bit grid.

Raw dropout never leaves the integers: each (re, im) pair is read as one
int16 and multiplied by the keep mask, which zeroes whole complex values
exactly. Mixing computes in float64. Raw mixing fans its antenna pairs out
over the kernel pool of `tensor._fan_out`; each worker mixes, rounds, clips
and converts its own pairs inside buffers allocated before the fan-out.
`augmented` allocates the two float64 grids of raw mixing (`out` and
`scratch`) once per call, since a raw grid is 8x larger in float64 and a
fresh temporary per output would be handed back to the OS and faulted in
again for the next one; only a fresh int8 grid per output leaves the
generator. Float outputs stay fresh arrays, because callers such as
`expand_dataset` keep every one. Every element's float operations keep their
order, so outputs do not depend on the worker count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import tensor as T
from .dsp import PreprocessedSample
from .fields import check_fields
from .seeding import named_rng

__all__ = [
    "AugmentMethod",
    "AugmentConfig",
    "mix_samples",
    "augmented",
    "expand_dataset",
]


class AugmentMethod(enum.Enum):
    DROPOUT = "dropout"
    MIX_OTHER = "mix_other"
    MIX_SAME = "mix_same"


@dataclass
class AugmentConfig:
    dropout_lambda_max: float = 0.07
    mix_epsilon_max: float = 0.05
    methods: tuple[AugmentMethod, ...] = (
        AugmentMethod.DROPOUT,
        AugmentMethod.MIX_OTHER,
        AugmentMethod.MIX_SAME,
    )
    copies_per_method: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        if not 0.0 < self.dropout_lambda_max < 1.0:
            raise ValueError("dropout_lambda_max must be in (0, 1)")
        if not 0.0 < self.mix_epsilon_max < 0.5:
            raise ValueError("mix_epsilon_max must be in (0, 0.5)")
        if self.copies_per_method < 1:
            raise ValueError("copies_per_method must be >= 1")
        if not self.methods:
            raise ValueError("methods must name at least one method")
        for i, method in enumerate(self.methods):
            if method in self.methods[:i]:
                raise ValueError(f"methods names {method.value} twice; use copies_per_method for more copies")


# The operators take float or int8 grids. Float grids and mixing compute in
# float64, each input converted inside the multiply that consumes it; `out`
# (and `_mix`'s `scratch` for one donor term) are float64 buffers of the
# inputs' shape to compute into, allocated here when left None.


def _dropout(
    x: np.ndarray,
    rng: np.random.Generator,
    lambda_max: float,
    lam: Optional[float] = None,
) -> np.ndarray:
    # Zero each (pair, packet, subcarrier) cell with probability
    # lambda ~ U(0, lambda_max), so a raw drop zeroes a whole complex value.
    # `lam` overrides the drawn probability (test hook).
    if lam is None:
        lam = rng.uniform(0.0, lambda_max)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"dropout probability {lam} outside [0, 1]")
    keep = rng.random(x.shape[:3]) >= lam
    keep = keep.reshape(keep.shape + (1,) * (x.ndim - 3))
    if x.dtype == np.int8:
        pairs = np.ascontiguousarray(x).view(np.int16)  # one int16 per (re, im)
        return np.multiply(pairs, keep, dtype=np.int16).view(np.int8)
    return np.multiply(x, keep, dtype=np.float64)


def _mix(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    eps1: float,
    eps2: float,
    eps3: float,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
    quantized: Optional[np.ndarray] = None,
) -> np.ndarray:
    # (A(1 - eps1) + B eps2) + C eps3, summed in this order. Given an int8
    # `quantized`, the result is rounded, clipped and converted into it and
    # `quantized` is returned; this raw mixing runs one slice of the leading
    # (pair) axis per kernel worker. A preprocessed grid is too small for the
    # pool to pay (a 6 x 375 x 30 mix took 200 us inline, 310 us on 2 cores).
    if not (a.shape == b.shape == c.shape):
        raise ValueError(f"shape mismatch: {a.shape}, {b.shape}, {c.shape}")
    for eps in (eps1, eps2, eps3):
        if not 0.0 <= eps < 0.5:
            raise ValueError(f"mixing rate {eps} outside [0, 0.5)")
    out = np.empty(a.shape) if out is None else out
    scratch = np.empty(a.shape) if scratch is None else scratch

    def mix_pairs(p0: int, p1: int) -> None:
        mixed, term = out[p0:p1], scratch[p0:p1]
        np.multiply(a[p0:p1], 1.0 - eps1, out=mixed, dtype=np.float64)
        np.multiply(b[p0:p1], eps2, out=term, dtype=np.float64)
        mixed += term
        mixed += np.multiply(c[p0:p1], eps3, out=term, dtype=np.float64)
        if quantized is not None:
            np.clip(np.rint(mixed, out=mixed), -128, 127, out=mixed)
            np.copyto(quantized[p0:p1], mixed, casting="unsafe")

    if quantized is None:
        mix_pairs(0, len(a))
        return out
    T._fan_out(mix_pairs, len(a))
    return quantized


def mix_samples(
    a: PreprocessedSample,
    b: PreprocessedSample,
    c: PreprocessedSample,
    eps1: float,
    eps2: float,
    eps3: float,
) -> PreprocessedSample:
    """D = A*(1 - eps1) + B*eps2 + C*eps3, inheriting A's label."""
    return PreprocessedSample(data=_mix(a.data, b.data, c.data, eps1, eps2, eps3), label=a.label)


def augmented(
    grids: Sequence[np.ndarray], labels: Sequence[int], cfg: AugmentConfig
) -> Iterator[tuple[tuple[AugmentMethod, int, int], np.ndarray]]:
    """Yield `((method, copy, source index), grid)` for every new sample, in
    method x copy x source order: `copies_per_method` outputs per method for
    each input, each with its own RNG stream, so an output does not depend on
    generation order.

    MIX_OTHER draws both donors from the inputs with a different label,
    MIX_SAME from the other inputs with the source's label; each donor pool
    keeps input order. All grids must share one shape (gate/trim first).
    """
    if not grids:
        return
    if any(g.shape != grids[0].shape for g in grids):
        raise ValueError("inputs must share one shape; gate/trim before augmenting")
    raw = grids[0].dtype == np.int8
    stream, kind = ("augment_raw", "recordings") if raw else ("augment", "samples")
    # Float outputs are kept by callers, so only raw mixing reuses `out`.
    out = np.empty(grids[0].shape) if raw else None
    scratch = np.empty(grids[0].shape)
    same: dict[int, list[int]] = {}
    for i, label in enumerate(labels):
        same.setdefault(label, []).append(i)
    other = {lb: [j for j, l in enumerate(labels) if l != lb] for lb in same}
    rank = {j: p for pool in same.values() for p, j in enumerate(pool)}

    for m_idx, method in enumerate(cfg.methods):
        for copy in range(cfg.copies_per_method):
            for i, label in enumerate(labels):
                rng = named_rng(cfg.seed, stream, m_idx, copy, i)
                if method is AugmentMethod.DROPOUT:
                    grid = _dropout(grids[i], rng, cfg.dropout_lambda_max)
                else:
                    same_label = method is AugmentMethod.MIX_SAME
                    pool = same[label] if same_label else other[label]
                    n = len(pool) - same_label
                    if same_label and n < 2:
                        raise ValueError(f"need >= 2 other {kind} with label {label}, found {n}")
                    if not n:
                        raise ValueError(f"no donor {kind} with label != {label}")
                    # Draw order (B, C, eps1..3) is part of the determinism contract.
                    ks = [int(rng.integers(n)), int(rng.integers(n))]
                    if same_label:  # skip the source's own slot in its pool
                        ks = [k + (k >= rank[i]) for k in ks]
                    eps1, eps2, eps3 = rng.uniform(0.0, cfg.mix_epsilon_max, size=3)
                    b, c = (grids[pool[k]] for k in ks)
                    quantized = np.empty(grids[i].shape, dtype=np.int8) if raw else None
                    grid = _mix(grids[i], b, c, eps1, eps2, eps3, out, scratch, quantized)
                yield (method, copy, i), grid


def expand_dataset(
    dataset: Sequence[PreprocessedSample], cfg: AugmentConfig
) -> list[PreprocessedSample]:
    """Originals followed by `augmented`'s outputs, each labelled like its
    source. `dataset` is asked for each sample once."""
    originals = list(dataset)
    labels = [s.label for s in originals]
    if None in labels:
        raise ValueError("expand_dataset requires labelled samples")
    grids = [s.data for s in originals]
    return originals + [
        PreprocessedSample(data=g, label=labels[i])
        for (_, _, i), g in augmented(grids, labels, cfg)
    ]
