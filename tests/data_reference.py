"""The whole-grid data path kept as the bitwise reference oracle for
`dsp.preprocess` and `csi_data.synthesize_recording`.

This is the earlier spelling: amplitude by `np.hypot` over the full
(pairs, packets, subcarriers) grid, min-max normalization into a fresh array
per pair, the filter designed for every recording and run along the packet
axis of the whole grid, each Haar level a fresh array; and synthesis that
builds every trig, envelope and noise term as a whole (pairs, packets,
subcarriers) grid before stacking and quantizing. The per-pair chain must
match it bit for bit.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy import signal

from csi_tcn.csi_data import CsiRecording, SyntheticSpec, check_label
from csi_tcn.dsp import FilterSpec, PreprocessedSample, WaveletSpec
from csi_tcn.seeding import named_rng


def amplitude(rec: CsiRecording) -> np.ndarray:
    re = rec.data[..., 0].astype(np.float64)
    im = rec.data[..., 1].astype(np.float64)
    return np.hypot(re, im)


def minmax_normalize(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    for i, sl in enumerate(x):
        mn = sl.min()
        mx = sl.max()
        if mx == mn:
            out[i] = 0.0
        else:
            out[i] = 2.0 * (sl - mn) / (mx - mn) - 1.0
    return out


def dwt_approx(x: np.ndarray) -> np.ndarray:
    return (x[:, 0::2] + x[:, 1::2]) / np.sqrt(2.0)


def preprocess(
    rec: CsiRecording,
    filt: FilterSpec | None = None,
    wav: WaveletSpec | None = None,
    label: Optional[int] = None,
) -> PreprocessedSample:
    filt = filt or FilterSpec()
    wav = wav or WaveletSpec()
    b, a = signal.butter(filt.order, filt.cutoff, btype="low", output="ba")
    x = signal.lfilter(b, a, minmax_normalize(amplitude(rec)), axis=1)
    for _ in range(wav.levels):
        x = dwt_approx(x)
    return PreprocessedSample(data=x, label=label)


def synthesize_recording(spec: SyntheticSpec, class_id: int, trial_id: int) -> CsiRecording:
    check_label(class_id, spec.classes)
    frac = class_id / (spec.classes - 1)
    freq = spec.freq_min + frac * (spec.freq_max - spec.freq_min)
    profile_cycles = class_id + 1
    rng = named_rng(spec.seed, "synth", class_id, trial_id)

    pairs = spec.n_t * spec.n_r
    t = np.arange(spec.n_p, dtype=np.float64)
    s = np.arange(spec.n_s, dtype=np.float64)
    p = np.arange(pairs, dtype=np.float64)

    scale = 1.0 + spec.scale_jitter * (2.0 * rng.random() - 1.0)
    trial_phase = 2.0 * math.pi * spec.phase_jitter * rng.random()
    carrier_phase = 2.0 * math.pi * spec.phase_jitter * rng.random()

    gain = 1.0 + spec.profile_depth * np.cos(2.0 * math.pi * profile_cycles * s / spec.n_s)

    mod_phase = (
        2.0 * math.pi * (0.13 * p[:, None, None] + 0.07 * s[None, None, :]) + trial_phase
    )
    mod_arg = 2.0 * math.pi * (freq * t)
    modulation = spec.mod_depth * np.sin(mod_arg[None, :, None] + mod_phase)
    envelope = spec.base_amplitude * scale * gain[None, None, :] * (1.0 + modulation)

    theta = (
        2.0 * math.pi * (0.21 * t[None, :, None] + 0.11 * s[None, None, :] + 0.05 * p[:, None, None])
        + carrier_phase
    )
    re = envelope * np.cos(theta)
    im = envelope * np.sin(theta)
    if spec.noise_amp > 0.0:
        re = re + spec.noise_amp * rng.standard_normal(re.shape)
        im = im + spec.noise_amp * rng.standard_normal(im.shape)

    quantized = np.rint(np.stack([re, im], axis=-1))
    peak = np.abs(quantized).max()
    if peak > 127:
        raise ValueError(
            f"signature amplitude exceeds signed 8-bit range after quantization (peak {peak:.0f})"
        )
    return CsiRecording(
        n_t=spec.n_t, n_r=spec.n_r, n_p=spec.n_p, n_s=spec.n_s, data=quantized.astype(np.int8)
    )
