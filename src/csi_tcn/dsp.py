"""Preprocessing chain: per-pair min-max normalization, causal Butterworth
low-pass filtering along time, and repeated single-level Haar DWT
downsampling, always in that order.

With the defaults (two DWT levels) a 1500-packet recording becomes a
(pairs, 375, subcarriers) float tensor.

`preprocess` runs the chain one antenna pair at a time: the pair's amplitude
is gathered from `csi_data`'s magnitude table into one (packets,
subcarriers) buffer, normalized in place, filtered, and halved level by
level, the last level straight into the pair's slice of the output. Each
element sees the float operations of the whole-grid stages below, so the
result is bitwise that of composing them. The filter is designed once per
distinct (order, cutoff) and reused. The chain stays on the calling thread:
the compiled filter kernel holds the GIL, so pairs on the kernel pool would
not overlap.

The filter stages give the bytes of scipy's `butter` and `lfilter`
without importing scipy's signal package, which loads some 530 modules
and costs every process about 75 MB of resident memory and 0.8 s (scipy
1.17.1, python 3.11, x86-64 Linux). The Butterworth design repeats
scipy's steps in numpy (analog prototype, pre-warp, bilinear transform,
polynomial expansion). The IIR recursion runs in scipy's compiled kernel,
`_linear_filter` from the `_sigtools` extension that `lfilter` itself
calls, loaded from its file once when this module is imported.
"""

from __future__ import annotations

import decimal
import functools
import importlib.machinery
import importlib.util
import os
import struct
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy

from .csi_data import CsiRecording, _magnitude_into, read_container, read_container_dims, write_container
from .fields import check_fields

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
    "load_sample_shape",
    "load_sample",
]

SAMPLE_MAGIC = b"CSP1"
_SAMPLE_HEADER = struct.Struct("<3H")  # pairs, n_p', n_s
_SAMPLE_FIELDS = ("pairs", "n_p", "n_s")


def _load_linear_filter():
    # `importlib.util.find_spec` of the submodule would import its package,
    # so the extension is found by its file name instead.
    name = "scipy.signal._sigtools"
    module = sys.modules.get(name)  # there once scipy's signal package is imported
    if module is None:
        directory = os.path.join(os.path.dirname(scipy.__file__), "signal")
        paths = [os.path.join(directory, "_sigtools" + suffix) for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is None:
            raise ImportError(f"no compiled _sigtools extension in {directory} (scipy {scipy.__version__})")
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
        loader.exec_module(module)
        # A single-phase extension enters itself in sys.modules; take it out
        # again, so that no submodule sits there without its package.
        sys.modules.pop(name, None)
    return module._linear_filter


_linear_filter = _load_linear_filter()


@dataclass
class FilterSpec:
    """Low-pass design parameters; `cutoff` is a fraction of Nyquist."""

    order: int = 5
    cutoff: float = 0.1

    def __post_init__(self) -> None:
        check_fields(self)
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
        if self.a.ndim != 1 or self.b.ndim != 1 or len(self.a) == 0 or not np.all(np.isfinite(self.a)):
            raise ValueError("coefficients must be non-empty 1-D sequences, the denominator finite")
        if self.a[0] == 0.0:
            raise ValueError("leading denominator coefficient must be nonzero")
        if self.a[0] != 1.0:
            self.b = self.b / self.a[0]
            self.a = self.a / self.a[0]
        # Schur-Cohn step-down at 60 digits: np.roots is ill-conditioned at high order.
        with decimal.localcontext(decimal.Context(prec=60)):
            a = [decimal.Decimal(x) for x in self.a]
            while len(a) > 1 and abs(a[-1]) < abs(a[0]):
                k = a[-1] / a[0]  # the reflection coefficient, |k| < 1 at every step iff stable
                a = [x - k * y for x, y in zip(a[:-1], a[:0:-1])]
        if len(a) > 1:
            raise ValueError("unstable filter: pole on or outside the unit circle")

    @property
    def dc_gain(self) -> float:
        return float(np.sum(self.b) / np.sum(self.a))


@dataclass
class WaveletSpec:
    """Cascaded single-level Haar DWTs."""

    levels: int = 2

    def __post_init__(self) -> None:
        check_fields(self)
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


def _minmax_in_place(x: np.ndarray) -> None:
    # 2*(x - min)/(max - min) - 1 over all of `x`, operation by operation;
    # a constant array becomes all zeros.
    mn = x.min()
    mx = x.max()
    if mx == mn:
        x[...] = 0.0
        return
    x -= mn
    x *= 2.0
    x /= mx - mn
    x -= 1.0


def minmax_normalize(x: np.ndarray, pair_axis: int = 0) -> np.ndarray:
    """Map each slice along `pair_axis` to [-1, 1].

    out = 2*(x - min)/(max - min) - 1 over the slice's remaining axes;
    a constant slice maps to all zeros.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")
    out = np.array(x)
    for sl in np.moveaxis(out, pair_axis, 0):
        _minmax_in_place(sl)
    return out


def design_butterworth_lowpass(spec: FilterSpec) -> IirCoefficients:
    """Digital Butterworth low-pass via bilinear transform with pre-warping,
    so the magnitude at `cutoff` is exactly 1/sqrt(2).

    The steps and their float operations are those of scipy's `butter`,
    so the coefficients are its bytes: the analog prototype's poles on the
    left half of the unit circle, the cutoff pre-warped to wo = 4 tan(pi
    cutoff / 2), the poles scaled by wo and mapped through the bilinear
    transform with 2 fs = 4, and the N zeros at z = -1.

    A design whose coefficients overflow float64, or whose filter is
    unstable, raises ValueError naming `filter.order` and `filter.cutoff`."""
    n = spec.order
    keys = f"filter.order {n} with filter.cutoff {spec.cutoff}"
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.arange(-n + 1, n, 2, dtype=np.float64)
        wo = float(4.0 * np.tan(np.pi * np.asarray(spec.cutoff, dtype=np.float64) / 2.0))
        p = wo * -np.exp(1j * np.pi * m / (2 * n))
        try:
            gain = wo**n
        except OverflowError:  # Python floats raise where numpy gives inf
            gain = np.inf
        k = gain * np.real(1.0 / np.prod(4.0 - p))
        b = k * _poly(-np.ones(n))
        # The poles come in conjugate pairs, so the expansion is real.
        a = np.real(_poly((4.0 + p) / (4.0 - p)))
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(a))):
        raise ValueError(f"{keys}: the design overflows float64")
    try:
        return IirCoefficients(b=b, a=a)
    except ValueError as exc:
        raise ValueError(f"{keys}: {exc}") from None


def _poly(roots: np.ndarray) -> np.ndarray:
    # Monic polynomial with these roots, one convolution per root.
    c = np.ones(1, dtype=roots.dtype)
    for r in roots:
        c = np.convolve(c, np.array([1, -r], dtype=roots.dtype))
    return c


@functools.lru_cache(maxsize=32)
def _lowpass(order: int, cutoff: float) -> IirCoefficients:
    # One design per distinct (order, cutoff), shared by every caller, so
    # its coefficient arrays are made read-only.
    coeffs = design_butterworth_lowpass(FilterSpec(order=order, cutoff=cutoff))
    coeffs.b.flags.writeable = False
    coeffs.a.flags.writeable = False
    return coeffs


def apply_filter(x: np.ndarray, coeffs: IirCoefficients, axis: int = -1) -> np.ndarray:
    """Run the IIR recursion along `axis` with zero initial state: one causal
    pass, so no output sample depends on a later input. The bytes are those
    of scipy's `lfilter`, which runs the same compiled kernel."""
    x = np.asarray(x, dtype=np.float64)
    return _linear_filter(coeffs.b, coeffs.a, x, axis)


def _haar_into(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    # (x[2i] + x[2i+1]) / sqrt(2) along axis 0 of `x`, written into `out`.
    np.add(x[0::2], x[1::2], out=out)
    out /= np.sqrt(2.0)
    return out


def dwt_approx(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Haar approximation half: a[i] = (x[2i] + x[2i+1]) / sqrt(2).

    The detail half is discarded; the length along `axis` must be even.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[axis]
    if n % 2 != 0:
        raise ValueError(f"length along axis {axis} must be even, got {n}")
    moved = np.moveaxis(x, axis, 0)
    approx = _haar_into(moved, np.empty((n // 2,) + moved.shape[1:]))
    return np.moveaxis(approx, 0, axis)


def preprocess(
    rec: CsiRecording,
    filt: FilterSpec | None = None,
    wav: WaveletSpec | None = None,
    label: Optional[int] = None,
) -> PreprocessedSample:
    """Full chain: amplitude -> per-pair normalize -> causal low-pass along
    time -> `wav.levels` Haar approximations along time.

    The recording is expected to be gated/trimmed already; the packet count
    must be divisible by 2**levels.
    """
    filt = filt or FilterSpec()
    wav = wav or WaveletSpec()
    n_p = rec.n_p
    if n_p % (1 << wav.levels) != 0:
        raise ValueError(f"{n_p} packets cannot be halved {wav.levels} times")
    coeffs = _lowpass(filt.order, filt.cutoff)
    out = np.empty((rec.n_pairs, n_p >> wav.levels, rec.n_s))
    pair = np.empty((n_p, rec.n_s))
    # Haar levels alternate between the two halves of `pair`, which is free
    # once filtered, so that no level reads the rows it writes.
    halves = (pair[: n_p // 2], pair[n_p // 2 :])
    for p in range(rec.n_pairs):
        _magnitude_into(rec.data[p], pair)
        _minmax_in_place(pair)
        x = apply_filter(pair, coeffs, axis=0)
        for level in range(wav.levels):
            dst = out[p] if level == wav.levels - 1 else halves[level % 2][: len(x) // 2]
            x = _haar_into(x, dst)
    return PreprocessedSample(data=out, label=label)


def save_sample(sample: PreprocessedSample, path: str | os.PathLike) -> None:
    """Bit-exact container: magic, u16 dims, float64 little-endian payload in
    pair-major / packet / subcarrier order. The label lives in the manifest."""
    payload = sample.data.astype("<f8", copy=False)
    write_container(path, SAMPLE_MAGIC, _SAMPLE_HEADER, _SAMPLE_FIELDS, payload.shape, payload)


def load_sample_shape(path: str | os.PathLike) -> tuple[int, int, int]:
    """A sample file's (pairs, n_p, n_s), checked against its size without
    reading its tensor (see `read_container_dims`)."""
    return read_container_dims(path, SAMPLE_MAGIC, _SAMPLE_HEADER, _SAMPLE_FIELDS, "<f8")


def load_sample(path: str | os.PathLike, label: Optional[int] = None) -> PreprocessedSample:
    """The sample of a file written by `save_sample`. A tensor that
    `PreprocessedSample` refuses, one with a non-finite value, raises
    ValueError naming `path`."""
    (pairs, n_p, n_s), payload = read_container(path, SAMPLE_MAGIC, _SAMPLE_HEADER, _SAMPLE_FIELDS, "<f8")
    try:
        return PreprocessedSample(data=payload.reshape(pairs, n_p, n_s), label=label)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
