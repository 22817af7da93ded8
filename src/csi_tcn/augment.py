"""Dataset augmentation: value dropout and three-sample mixing.

The operators keep tensor shape and label and draw their randomness from
explicit generators, so expansion is reproducible and schedule-independent.
One expander, `augmented`, serves both domains and takes the domain from the
input: float grids are preprocessed samples (pairs, packets, subcarriers);
int8 grids are raw complex recordings with a trailing (re, im) axis, whose
outputs are rounded back into the signed 8-bit grid.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .dsp import PreprocessedSample
from .seeding import named_rng

__all__ = [
    "AugmentMethod",
    "AugmentConfig",
    "dropout_augment",
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
        if not 0.0 < self.dropout_lambda_max < 1.0:
            raise ValueError("dropout_lambda_max must be in (0, 1)")
        if not 0.0 < self.mix_epsilon_max < 0.5:
            raise ValueError("mix_epsilon_max must be in (0, 0.5)")
        if self.copies_per_method < 1:
            raise ValueError("copies_per_method must be >= 1")
        self.methods = tuple(AugmentMethod(m) for m in self.methods)


# The operators take float or int8 grids and compute in float64. Each input
# is converted inside the expression that consumes it, so no float copy
# outlives its term: a raw recording is 8x larger in float64.


def _dropout(
    x: np.ndarray, rng: np.random.Generator, lambda_max: float, lam: Optional[float] = None
) -> np.ndarray:
    # One draw per (pair, packet, subcarrier) cell, so a raw drop zeroes a
    # whole complex value.
    if lam is None:
        lam = rng.uniform(0.0, lambda_max)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"dropout probability {lam} outside [0, 1]")
    keep = rng.random(x.shape[:3]) >= lam
    return np.asarray(x, np.float64) * keep.reshape(keep.shape + (1,) * (x.ndim - 3))


def _mix(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, eps1: float, eps2: float, eps3: float
) -> np.ndarray:
    if not (a.shape == b.shape == c.shape):
        raise ValueError(f"shape mismatch: {a.shape}, {b.shape}, {c.shape}")
    for eps in (eps1, eps2, eps3):
        if not 0.0 <= eps < 0.5:
            raise ValueError(f"mixing rate {eps} outside [0, 0.5)")
    f64 = np.float64
    return np.asarray(a, f64) * (1.0 - eps1) + np.asarray(b, f64) * eps2 + np.asarray(c, f64) * eps3


def dropout_augment(
    sample: PreprocessedSample,
    rng: np.random.Generator,
    lambda_max: float = 0.07,
    lam: Optional[float] = None,
) -> PreprocessedSample:
    """Zero each scalar independently with probability lambda ~ U(0, lambda_max).

    `lam` overrides the drawn probability (test hook).
    """
    return PreprocessedSample(data=_dropout(sample.data, rng, lambda_max, lam), label=sample.label)


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
                    out = _dropout(grids[i], rng, cfg.dropout_lambda_max)
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
                    out = _mix(grids[i], b, c, eps1, eps2, eps3)
                if raw:  # `out` is the operator's own fresh array: round in place
                    out = np.clip(np.rint(out, out=out), -128, 127, out=out).astype(np.int8)
                yield (method, copy, i), out


def expand_dataset(
    dataset: Sequence[PreprocessedSample], cfg: AugmentConfig
) -> list[PreprocessedSample]:
    """Originals followed by `augmented`'s outputs, each labelled like its source."""
    for s in dataset:
        if s.label is None:
            raise ValueError("expand_dataset requires labelled samples")
    grids = [s.data for s in dataset]
    labels = [s.label for s in dataset]
    return list(dataset) + [
        PreprocessedSample(data=g, label=labels[i])
        for (_, _, i), g in augmented(grids, labels, cfg)
    ]
