"""The two-expander augmentation kept as the bitwise reference oracle for
`augment.augmented`.

This is the earlier spelling: `expand_dataset` for preprocessed samples and
`expand_recordings` for raw int8 recordings, each with its own method x copy
x source loop and donor rules, with donor lists rebuilt for every output by
`mix_other` / `mix_same`, plus the `divmod` arithmetic `cmd_augment` used to
name each output. The single expander must match it bit for bit: data,
labels and file names.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from csi_tcn.augment import AugmentConfig, AugmentMethod
from csi_tcn.cli import _unique_stem
from csi_tcn.csi_data import CsiRecording
from csi_tcn.dsp import PreprocessedSample
from csi_tcn.seeding import named_rng


def dropout_augment(
    sample: PreprocessedSample,
    rng: np.random.Generator,
    lambda_max: float = 0.07,
    lam: Optional[float] = None,
) -> PreprocessedSample:
    """Zero each scalar independently with probability lambda ~ U(0, lambda_max).

    `lam` overrides the drawn probability (test hook).
    """
    if lam is None:
        lam = rng.uniform(0.0, lambda_max)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"dropout probability {lam} outside [0, 1]")
    keep = rng.random(sample.data.shape) >= lam
    return PreprocessedSample(data=sample.data * keep, label=sample.label)


def mix_samples(
    a: PreprocessedSample,
    b: PreprocessedSample,
    c: PreprocessedSample,
    eps1: float,
    eps2: float,
    eps3: float,
) -> PreprocessedSample:
    """D = A*(1 - eps1) + B*eps2 + C*eps3, inheriting A's label."""
    if not (a.data.shape == b.data.shape == c.data.shape):
        raise ValueError(
            f"shape mismatch: {a.data.shape}, {b.data.shape}, {c.data.shape}"
        )
    for eps in (eps1, eps2, eps3):
        if not 0.0 <= eps < 0.5:
            raise ValueError(f"mixing rate {eps} outside [0, 0.5)")
    mixed = a.data * (1.0 - eps1) + b.data * eps2 + c.data * eps3
    return PreprocessedSample(data=mixed, label=a.label)


def _draw_and_mix(
    donors: Sequence[PreprocessedSample],
    a: PreprocessedSample,
    rng: np.random.Generator,
    epsilon_max: float,
) -> PreprocessedSample:
    # Draw order (B, C, eps1..3) is part of the determinism contract.
    b = donors[int(rng.integers(len(donors)))]
    c = donors[int(rng.integers(len(donors)))]
    eps1, eps2, eps3 = rng.uniform(0.0, epsilon_max, size=3)
    return mix_samples(a, b, c, eps1, eps2, eps3)


def mix_other(
    dataset: Sequence[PreprocessedSample],
    a: PreprocessedSample,
    rng: np.random.Generator,
    epsilon_max: float = 0.05,
) -> PreprocessedSample:
    """Mix `a` with two donors whose labels differ from a's."""
    donors = [s for s in dataset if s.label != a.label]
    if not donors:
        raise ValueError(f"no donor samples with label != {a.label}")
    return _draw_and_mix(donors, a, rng, epsilon_max)


def mix_same(
    dataset: Sequence[PreprocessedSample],
    a: PreprocessedSample,
    rng: np.random.Generator,
    epsilon_max: float = 0.05,
) -> PreprocessedSample:
    """Mix `a` with two other donors sharing a's label."""
    donors = [s for s in dataset if s.label == a.label and s is not a]
    if len(donors) < 2:
        raise ValueError(
            f"need >= 2 other samples with label {a.label}, found {len(donors)}"
        )
    return _draw_and_mix(donors, a, rng, epsilon_max)


def expand_dataset(
    dataset: Sequence[PreprocessedSample], cfg: AugmentConfig
) -> list[PreprocessedSample]:
    """Originals plus, per enabled method, `copies_per_method` new samples for
    every original. RNG streams are keyed per output sample, so the result is
    independent of generation order.
    """
    for s in dataset:
        if s.label is None:
            raise ValueError("expand_dataset requires labelled samples")
    out = list(dataset)
    for m_idx, method in enumerate(cfg.methods):
        for copy in range(cfg.copies_per_method):
            for i, a in enumerate(dataset):
                rng = named_rng(cfg.seed, "augment", m_idx, copy, i)
                if method is AugmentMethod.DROPOUT:
                    out.append(dropout_augment(a, rng, cfg.dropout_lambda_max))
                elif method is AugmentMethod.MIX_OTHER:
                    out.append(mix_other(dataset, a, rng, cfg.mix_epsilon_max))
                else:
                    out.append(mix_same(dataset, a, rng, cfg.mix_epsilon_max))
    return out


def _rec_to_float(rec: CsiRecording) -> np.ndarray:
    return rec.data.astype(np.float64)


def _float_to_rec(values: np.ndarray, template: CsiRecording) -> CsiRecording:
    quantized = np.clip(np.rint(values), -128, 127).astype(np.int8)
    return CsiRecording(
        n_t=template.n_t,
        n_r=template.n_r,
        n_p=template.n_p,
        n_s=template.n_s,
        data=quantized,
    )


def expand_recordings(
    recordings: Sequence[tuple[CsiRecording, int]], cfg: AugmentConfig
) -> list[tuple[CsiRecording, int]]:
    """`expand_dataset` semantics on (recording, label) pairs.

    Dropout zeroes whole complex values; mixing follows the same three-sample
    rule with the donor-label constraints of each method. All recordings must
    share one shape (gate/trim first).
    """
    if not recordings:
        return []
    shape = recordings[0][0].data.shape
    for rec, _ in recordings:
        if rec.data.shape != shape:
            raise ValueError("recordings must share one shape; gate/trim before augmenting")
    out = list(recordings)
    for m_idx, method in enumerate(cfg.methods):
        for copy in range(cfg.copies_per_method):
            for i, (a, label) in enumerate(recordings):
                rng = named_rng(cfg.seed, "augment_raw", m_idx, copy, i)
                if method is AugmentMethod.DROPOUT:
                    lam = rng.uniform(0.0, cfg.dropout_lambda_max)
                    keep = rng.random(a.data.shape[:-1]) >= lam
                    mixed = _rec_to_float(a) * keep[..., None]
                else:
                    if method is AugmentMethod.MIX_OTHER:
                        donors = [r for r, lb in recordings if lb != label]
                        if not donors:
                            raise ValueError(f"no donor recordings with label != {label}")
                    else:
                        donors = [r for r, lb in recordings if lb == label and r is not a]
                        if len(donors) < 2:
                            raise ValueError(
                                f"need >= 2 other recordings with label {label}"
                            )
                    b = donors[int(rng.integers(len(donors)))]
                    c = donors[int(rng.integers(len(donors)))]
                    eps1, eps2, eps3 = rng.uniform(0.0, cfg.mix_epsilon_max, size=3)
                    mixed = (
                        _rec_to_float(a) * (1.0 - eps1)
                        + _rec_to_float(b) * eps2
                        + _rec_to_float(c) * eps3
                    )
                out.append((_float_to_rec(mixed, a), label))
    return out


def reference_names(base, n_items: int, cfg: AugmentConfig, suffix: str) -> list[tuple[str, int, int]]:
    """(file name, pair_id, trial_id) of each of `n_items` expander outputs,
    rebuilt from the output index by `cmd_augment`'s old divmod arithmetic;
    `base` is the input manifest's entry list."""
    taken: set[str] = set()
    names = []
    n_base = len(base)
    for j in range(n_items):
        if j < n_base:
            src = base[j]
            name = _unique_stem(src.path, taken) + suffix
            pair_id, trial_id = src.pair_id, src.trial_id
        else:
            k = j - n_base
            method_idx, rest = divmod(k, cfg.copies_per_method * n_base)
            copy_idx, base_idx = divmod(rest, n_base)
            src = base[base_idx]
            method = cfg.methods[method_idx].value
            name = _unique_stem(f"aug_{method}_{copy_idx}_{base_idx:05d}", taken) + suffix
            pair_id, trial_id = src.pair_id, src.trial_id
        names.append((name, pair_id, trial_id))
    return names
