"""Preprocessing chain: per-pair min-max normalization, Butterworth low-pass
filtering along time, and repeated single-level Haar DWT downsampling.

With the defaults (two DWT levels) a 1500-packet recording becomes a
(pairs, 375, subcarriers) float tensor.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import signal as _signal

from .csi_data import CsiRecording, amplitude, read_container, write_container

__all__ = [
    "FilterSpec",
    "IirCoefficients",
    "WaveletSpec",
    "PreprocessedSample",
    "minmax_normalize",
    "design_butterworth_lowpass",
    "apply_filter",
    "dwt_approx",
    "preprocess",
    "save_sample",
    "load_sample",
]

SAMPLE_MAGIC = b"CSP1"
_SAMPLE_HEADER = struct.Struct("<3H")  # pairs, n_p', n_s
_SAMPLE_FIELDS = ("pairs", "n_p", "n_s")


@dataclass
class FilterSpec:
    """Low-pass design parameters; `cutoff` is a fraction of Nyquist."""

    order: int = 5
    cutoff: float = 0.1
    zero_phase: bool = False  # forward-backward filtering instead of causal

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if not 0.0 < self.cutoff < 1.0:
            raise ValueError(f"cutoff must be in (0, 1), got {self.cutoff}")


@dataclass
class IirCoefficients:
    """Discrete-time transfer function b(z)/a(z), normalized to a[0] = 1."""

    b: np.ndarray
    a: np.ndarray

    def __post_init__(self) -> None:
        self.b = np.asarray(self.b, dtype=np.float64)
        self.a = np.asarray(self.a, dtype=np.float64)
        if self.a.ndim != 1 or self.b.ndim != 1 or len(self.a) == 0:
            raise ValueError("coefficients must be non-empty 1-D sequences")
        if self.a[0] == 0.0:
            raise ValueError("leading denominator coefficient must be nonzero")
        if self.a[0] != 1.0:
            self.b = self.b / self.a[0]
            self.a = self.a / self.a[0]
        if len(self.a) > 1:
            poles = np.roots(self.a)
            if np.any(np.abs(poles) >= 1.0):
                raise ValueError("unstable filter: pole on or outside the unit circle")

    @property
    def dc_gain(self) -> float:
        return float(np.sum(self.b) / np.sum(self.a))


@dataclass
class WaveletSpec:
    """Cascaded single-level Haar DWTs."""

    levels: int = 2

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")


@dataclass
class PreprocessedSample:
    """Real tensor (pairs, packets, subcarriers) after the full chain."""

    data: np.ndarray
    label: Optional[int] = None

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise ValueError(f"sample tensor must be 3-D, got shape {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("sample tensor contains non-finite values")


def minmax_normalize(x: np.ndarray, pair_axis: int = 0) -> np.ndarray:
    """Map each slice along `pair_axis` to [-1, 1].

    out = 2*(x - min)/(max - min) - 1 over the slice's remaining axes;
    a constant slice maps to all zeros.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")
    moved = np.moveaxis(x, pair_axis, 0)
    out = np.empty_like(moved)
    for i, sl in enumerate(moved):
        mn = sl.min()
        mx = sl.max()
        if mx == mn:
            out[i] = 0.0
        else:
            out[i] = 2.0 * (sl - mn) / (mx - mn) - 1.0
    return np.moveaxis(out, 0, pair_axis)


def design_butterworth_lowpass(spec: FilterSpec) -> IirCoefficients:
    """Digital Butterworth low-pass via bilinear transform with pre-warping,
    so the magnitude at `cutoff` is exactly 1/sqrt(2)."""
    b, a = _signal.butter(spec.order, spec.cutoff, btype="low", output="ba")
    return IirCoefficients(b=b, a=a)


def apply_filter(
    x: np.ndarray,
    coeffs: IirCoefficients,
    axis: int = -1,
    zero_phase: bool = False,
) -> np.ndarray:
    """Run the IIR recursion along `axis` with zero initial state.

    Default is a single causal pass; `zero_phase=True` selects the
    forward-backward variant (non-causal, squared magnitude response).
    """
    x = np.asarray(x, dtype=np.float64)
    if zero_phase:
        return _signal.filtfilt(coeffs.b, coeffs.a, x, axis=axis)
    return _signal.lfilter(coeffs.b, coeffs.a, x, axis=axis)


def dwt_approx(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Haar approximation half: a[i] = (x[2i] + x[2i+1]) / sqrt(2).

    The detail half is discarded; the length along `axis` must be even.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[axis]
    if n % 2 != 0:
        raise ValueError(f"length along axis {axis} must be even, got {n}")
    moved = np.moveaxis(x, axis, -1)
    approx = (moved[..., 0::2] + moved[..., 1::2]) / np.sqrt(2.0)
    return np.moveaxis(approx, -1, axis)


def preprocess(
    rec: CsiRecording,
    filt: FilterSpec | None = None,
    wav: WaveletSpec | None = None,
    label: Optional[int] = None,
    normalize_first: bool = True,
) -> PreprocessedSample:
    """Full chain: amplitude -> per-pair normalize -> low-pass along time ->
    `wav.levels` Haar approximations along time.

    `normalize_first=False` swaps the first two stages (ablation knob). The
    recording is expected to be gated/trimmed already; the packet count must
    be divisible by 2**levels.
    """
    filt = filt or FilterSpec()
    wav = wav or WaveletSpec()
    coeffs = design_butterworth_lowpass(filt)
    x = amplitude(rec)  # (pairs, n_p, n_s)
    if normalize_first:
        x = minmax_normalize(x, pair_axis=0)
        x = apply_filter(x, coeffs, axis=1, zero_phase=filt.zero_phase)
    else:
        x = apply_filter(x, coeffs, axis=1, zero_phase=filt.zero_phase)
        x = minmax_normalize(x, pair_axis=0)
    for _ in range(wav.levels):
        x = dwt_approx(x, axis=1)
    return PreprocessedSample(data=x, label=label)


def save_sample(sample: PreprocessedSample, path: str | os.PathLike) -> None:
    """Bit-exact container: magic, u16 dims, float64 little-endian payload in
    pair-major / packet / subcarrier order. The label lives in the manifest."""
    payload = sample.data.astype("<f8", copy=False)
    write_container(path, SAMPLE_MAGIC, _SAMPLE_HEADER, _SAMPLE_FIELDS, payload.shape, payload)


def load_sample(path: str | os.PathLike, label: Optional[int] = None) -> PreprocessedSample:
    (pairs, n_p, n_s), payload = read_container(path, SAMPLE_MAGIC, _SAMPLE_HEADER, _SAMPLE_FIELDS, "<f8")
    data = payload.reshape(pairs, n_p, n_s).astype(np.float64)
    return PreprocessedSample(data=data, label=label)
