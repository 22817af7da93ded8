"""Raw CSI data model: binary container, manifests, gating, synthetic source.

A recording is the complex channel grid of one trial: `n_t * n_r` transmit/
receive antenna pairs, `n_p` packets, `n_s` subcarriers, each entry a complex
number with signed 8-bit real and imaginary parts. The on-disk container is
bit-exact (see `save_recording` / `load_recording`).

Amplitude is a table lookup: every (re, im) int8 pair, read as one
little-endian u16 code, indexes a 65,536-entry table of `np.hypot` values.
Synthesis is one formula with two drivers on the kernel pool of
`tensor._fan_out`. Per recording, `_prepare` draws the rng stream (scalars,
then both noise grids) and forms the per-trial terms, and `_build` forms each
antenna pair's trig terms, envelope and quantized int8 grid; terms of the
spec alone come from `_grid`. `generate_synthetic` hands each worker a
contiguous run of recordings, which it prepares, builds pair after pair and
writes one at a time; `synthesize_recording` prepares its one recording and
builds its pairs on the pool. Every buffer a worker writes is allocated
before the fan-out, and each element's float operations are those of the
whole-grid formula, so the bytes do not depend on the driver or the worker
count.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import tensor as T
from .fields import check_fields
from .seeding import named_rng

__all__ = [
    "LABEL_NAMES",
    "N_CLASSES",
    "CsiFormatError",
    "CsiRecording",
    "ManifestEntry",
    "DatasetManifest",
    "SyntheticSpec",
    "check_label",
    "read_container",
    "write_container",
    "load_recording",
    "save_recording",
    "gate_and_trim",
    "amplitude",
    "synthesize_recording",
    "generate_synthetic",
]

# The 12 interaction classes of the human-to-human CSI dataset, in canonical
# order. Class ids index into this tuple.
LABEL_NAMES = (
    "approaching",
    "departing",
    "handshaking",
    "high_five",
    "hugging",
    "kicking_left_leg",
    "kicking_right_leg",
    "pointing_left_hand",
    "pointing_right_hand",
    "punching_left_hand",
    "punching_right_hand",
    "pushing",
)
N_CLASSES = len(LABEL_NAMES)

MAGIC = b"CSI1"
_HEADER = struct.Struct("<4H")  # n_t, n_r, n_p, n_s, little-endian u16
_FIELDS = ("n_t", "n_r", "n_p", "n_s")


class CsiFormatError(ValueError):
    """Raised when a CSI container file violates the binary format."""


def check_label(label: int, n_classes: int = N_CLASSES) -> int:
    if not 0 <= label < n_classes:
        raise ValueError(f"label {label} outside [0, {n_classes - 1}]")
    return int(label)


@dataclass
class CsiRecording:
    """Complex CSI grid of one trial.

    `data` has shape (n_t * n_r, n_p, n_s, 2), dtype int8; the last axis is
    (re, im). The pair axis is transmitter-major: pair = i * n_r + j for
    transmit antenna i and receive antenna j.
    """

    n_t: int
    n_r: int
    n_p: int
    n_s: int
    data: np.ndarray

    def __post_init__(self) -> None:
        for name in ("n_t", "n_r", "n_p", "n_s"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        expected = (self.n_pairs, self.n_p, self.n_s, 2)
        if self.data.shape != expected:
            raise ValueError(f"data shape {self.data.shape} != expected {expected}")
        if self.data.dtype != np.int8:
            raise ValueError(f"data dtype must be int8, got {self.data.dtype}")

    @property
    def n_pairs(self) -> int:
        return self.n_t * self.n_r

    def pair_index(self, tx: int, rx: int) -> int:
        if not (0 <= tx < self.n_t and 0 <= rx < self.n_r):
            raise ValueError(f"antenna pair ({tx}, {rx}) out of range")
        return tx * self.n_r + rx


def write_container(
    path: str | os.PathLike,
    magic: bytes,
    header: struct.Struct,
    names: Sequence[str],
    dims: Sequence[int],
    payload: np.ndarray,
) -> None:
    """Write a container file: `magic`, `dims` packed as the u16 fields of
    `header` (called `names` in errors), then the bytes of `payload` in C
    order. Every field is checked before the file is opened, so a value
    outside [1, 65535] raises ValueError naming its field and leaves no file
    behind."""
    for name, v in zip(names, dims):
        if not 0 < v <= 0xFFFF:
            raise ValueError(f"{path}: {name} = {v} does not fit the u16 header field")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(header.pack(*dims))
        fh.write(np.ascontiguousarray(payload))


def save_recording(rec: CsiRecording, path: str | os.PathLike) -> None:
    """Write the bit-exact container: magic, u16 dims, interleaved i8 pairs."""
    dims = (rec.n_t, rec.n_r, rec.n_p, rec.n_s)
    write_container(path, MAGIC, _HEADER, _FIELDS, dims, rec.data)


def read_container(
    path: str | os.PathLike,
    magic: bytes,
    header: struct.Struct,
    names: Sequence[str],
    dtype: str | np.dtype,
    per_cell: int = 1,
) -> tuple[tuple[int, ...], np.ndarray]:
    """Read a container file: `magic`, the u16 dimension fields of `header`
    (called `names` in errors), then `per_cell` items of `dtype` per cell of
    the grid those fields span. Returns the fields and the flat payload, a
    read-only view of the file's bytes. Raises CsiFormatError naming `path`
    for a bad magic, a short header, a zero field or a payload of the wrong
    size."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(magic)] != magic:
        raise CsiFormatError(f"{path}: bad magic {blob[:len(magic)]!r}, expected {magic!r}")
    header_end = len(magic) + header.size
    if len(blob) < header_end:
        raise CsiFormatError(f"{path}: truncated header ({len(blob)} bytes)")
    dims = header.unpack(blob[len(magic) : header_end])
    if 0 in dims:
        fields = ", ".join(f"{name}={v}" for name, v in zip(names, dims))
        raise CsiFormatError(f"{path}: dimension field zero in header ({fields})")
    expected = np.dtype(dtype).itemsize * per_cell * math.prod(dims)
    actual = len(blob) - header_end
    if actual != expected:
        raise CsiFormatError(f"{path}: payload holds {actual} bytes, header implies {expected}")
    return dims, np.frombuffer(blob, dtype=dtype, offset=header_end)


def load_recording(path: str | os.PathLike) -> CsiRecording:
    (n_t, n_r, n_p, n_s), payload = read_container(path, MAGIC, _HEADER, _FIELDS, np.int8, per_cell=2)
    data = payload.reshape(n_t * n_r, n_p, n_s, 2).copy()
    return CsiRecording(n_t=n_t, n_r=n_r, n_p=n_p, n_s=n_s, data=data)


def gate_and_trim(rec: CsiRecording, target_np: int = 1500) -> Optional[CsiRecording]:
    """Standardize the packet count.

    Recordings shorter than `target_np` are discarded (returns None). Longer
    ones lose their excess packets from the front, where the initial steady
    state sits; retained packets keep their order.
    """
    if target_np < 1:
        raise ValueError(f"target_np must be >= 1, got {target_np}")
    if rec.n_p < target_np:
        return None
    if rec.n_p == target_np:
        return rec
    start = rec.n_p - target_np
    return CsiRecording(
        n_t=rec.n_t,
        n_r=rec.n_r,
        n_p=target_np,
        n_s=rec.n_s,
        data=rec.data[:, start:, :, :].copy(),
    )


# Magnitude of every (re, im) int8 pair, indexed by the pair's two bytes read
# as one little-endian u16 (re is the low byte).
_CODES = np.arange(1 << 16, dtype="<u2").view(np.int8).reshape(-1, 2).astype(np.float64)
_MAGNITUDE = np.hypot(_CODES[:, 0], _CODES[:, 1])
_MAGNITUDE.flags.writeable = False
del _CODES


def _magnitude_into(data: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gather the magnitude of every complex entry of the int8 (..., 2) grid
    `data` into the float64 array `out` of shape (...)."""
    codes = np.ascontiguousarray(data).view("<u2")[..., 0]
    return np.take(_MAGNITUDE, codes, out=out, mode="clip")


def amplitude(rec: CsiRecording) -> np.ndarray:
    """Per-entry magnitude sqrt(re^2 + im^2) as float64, shape (pairs, n_p, n_s)."""
    return _magnitude_into(rec.data, np.empty(rec.data.shape[:-1]))


# ---------------------------------------------------------------------------
# Dataset manifests


@dataclass
class ManifestEntry:
    path: str
    label: int
    pair_id: int
    trial_id: int


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        seen: set[str] = set()
        for e in self.entries:
            if e.path in seen:
                raise ValueError(f"duplicate manifest path: {e.path}")
            seen.add(e.path)
            check_label(e.label, N_CLASSES)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def save_manifest(manifest: DatasetManifest, path: str | os.PathLike) -> None:
    """One `path,label_id,pair_id,trial_id` line per entry; paths stored
    relative to the manifest location when possible."""
    base = os.path.dirname(os.path.abspath(path))
    lines = []
    for e in manifest.entries:
        p = os.path.abspath(e.path)
        try:
            p = os.path.relpath(p, base)
        except ValueError:
            pass  # different drive on win32; keep absolute
        lines.append(f"{p},{e.label},{e.pair_id},{e.trial_id}\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)


def load_manifest(path: str | os.PathLike) -> DatasetManifest:
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise CsiFormatError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            rel, *fields = parts
            try:
                label, pair_id, trial_id = (int(f) for f in fields)
                check_label(label)
            except ValueError as exc:
                raise CsiFormatError(f"{path}:{lineno}: {exc}") from exc
            full = rel if os.path.isabs(rel) else os.path.join(base, rel)
            entries.append(ManifestEntry(path=full, label=label, pair_id=pair_id, trial_id=trial_id))
    return DatasetManifest(entries=entries)


# ---------------------------------------------------------------------------
# Synthetic data source (desk-scale stand-in for real captures)


@dataclass
class SyntheticSpec:
    """Parameters of the synthetic CSI source.

    Each class gets a distinct amplitude-modulation signature derived from
    its index c: a sinusoid whose frequency is spaced evenly over
    [freq_min, freq_max] (freq_min for class 0, freq_max for the last), with
    depth `mod_depth`, and a static subcarrier gain profile of c + 1 cosine
    cycles with depth `profile_depth`. Trials add seeded noise and, when
    enabled, per-trial scale/phase jitter. Generation is a pure function of
    this spec.
    """

    classes: int = N_CLASSES
    samples_per_class: int = 10
    n_t: int = 2
    n_r: int = 3
    n_p: int = 1500
    n_s: int = 30
    freq_min: float = 0.008  # cycles per packet
    freq_max: float = 0.04
    mod_depth: float = 0.35
    profile_depth: float = 0.3
    base_amplitude: float = 50.0
    noise_amp: float = 2.0
    scale_jitter: float = 0.0  # per-trial amplitude scale ~ U(1-j, 1+j)
    phase_jitter: float = 0.0  # per-trial envelope phase, fraction of a cycle
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        if not 2 <= self.classes <= N_CLASSES:
            raise ValueError(f"classes must be in [2, {N_CLASSES}], got {self.classes}")
        for name in ("samples_per_class", "n_t", "n_r", "n_p", "n_s"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("mod_depth", "profile_depth", "base_amplitude", "noise_amp", "scale_jitter", "phase_jitter"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.freq_min <= self.freq_max < 0.5:
            raise ValueError(
                "need 0 <= freq_min <= freq_max < 0.5 cycles per packet (Nyquist 0.5), "
                f"got freq_min {self.freq_min}, freq_max {self.freq_max}"
            )


class _Grid(NamedTuple):
    """Terms of the synthesis formula that depend on the spec alone."""

    t: np.ndarray  # packet index, (n_p,)
    s: np.ndarray  # subcarrier index, (n_s,)
    pair_phase: np.ndarray  # modulation phase of each (pair, subcarrier), (pairs, 1, n_s)
    carrier: np.ndarray  # (n_p, n_s)
    pair_carrier: np.ndarray  # (pairs, 1, 1)


class _Trial(NamedTuple):
    """Terms of the synthesis formula for one (class, trial)."""

    amp_gain: np.ndarray  # base * scale * gain, (n_s,)
    mod_phase: np.ndarray  # (pairs, 1, n_s)
    mod_arg: np.ndarray  # (n_p,)
    carrier_phase: float


class _Buffers(NamedTuple):
    """What building one recording writes: both noise grids (None without
    noise), the int8 grid, and each pair's highest and lowest rounded part."""

    noise: Optional[np.ndarray]  # (2, pairs, n_p, n_s)
    data: np.ndarray  # (pairs, n_p, n_s, 2) int8
    highs: np.ndarray  # (pairs, 2)
    lows: np.ndarray  # (pairs, 2)


def _grid(spec: SyntheticSpec) -> _Grid:
    t = np.arange(spec.n_p, dtype=np.float64)
    s = np.arange(spec.n_s, dtype=np.float64)
    p = np.arange(spec.n_t * spec.n_r, dtype=np.float64)
    # Modulation phase spread over pairs/subcarriers keeps the 6 x 30 series
    # distinct while sharing the class frequency.
    pair_phase = 2.0 * math.pi * (0.13 * p[:, None, None] + 0.07 * s[None, None, :])
    carrier = 0.21 * t[:, None] + 0.11 * s[None, :]
    return _Grid(t, s, pair_phase, carrier, 0.05 * p[:, None, None])


def _buffers(spec: SyntheticSpec) -> _Buffers:
    pairs = spec.n_t * spec.n_r
    noise = np.empty((2, pairs, spec.n_p, spec.n_s)) if spec.noise_amp > 0.0 else None
    data = np.empty((pairs, spec.n_p, spec.n_s, 2), dtype=np.int8)
    return _Buffers(noise, data, np.empty((pairs, 2)), np.empty((pairs, 2)))


def _prepare(
    spec: SyntheticSpec, grid: _Grid, class_id: int, trial_id: int, noise: Optional[np.ndarray]
) -> _Trial:
    """Draw the (class, trial)'s random terms, both noise grids into `noise`
    included, in stream order, and form its per-trial terms."""
    check_label(class_id, spec.classes)
    freq = spec.freq_min + class_id / (spec.classes - 1) * (spec.freq_max - spec.freq_min)
    profile_cycles = class_id + 1
    rng = named_rng(spec.seed, "synth", class_id, trial_id)

    scale = 1.0 + spec.scale_jitter * (2.0 * rng.random() - 1.0)
    trial_phase = 2.0 * math.pi * spec.phase_jitter * rng.random()
    carrier_phase = 2.0 * math.pi * spec.phase_jitter * rng.random()
    if noise is not None:
        rng.standard_normal(out=noise[0])
        rng.standard_normal(out=noise[1])

    gain = 1.0 + spec.profile_depth * np.cos(2.0 * math.pi * profile_cycles * grid.s / spec.n_s)
    amp_gain = spec.base_amplitude * scale * gain
    mod_arg = 2.0 * math.pi * (freq * grid.t)
    return _Trial(amp_gain, grid.pair_phase + trial_phase, mod_arg, carrier_phase)


def _build(
    spec: SyntheticSpec,
    grid: _Grid,
    trial: _Trial,
    out: _Buffers,
    p0: int,
    p1: int,
    envelope: np.ndarray,
    theta: np.ndarray,
    part: np.ndarray,
) -> None:
    """Build pairs p0..p1 into `out`, as many at a time as the scratch
    (a leading pair axis over (n_p, n_s)) holds.

    Each element is formed as in the whole-grid formula
    envelope = base * scale * gain * (1 + depth * sin(mod));
    (re, im) = rint(envelope * (cos, sin)(theta) + noise_amp * noise).
    A pair is written to `out.data` only when it fits int8; its extremes go to
    `out.highs` and `out.lows` for `_check_peak`."""
    size = len(part)
    for c0 in range(p0, p1, size):
        c1 = min(c0 + size, p1)
        env, th, pt = envelope[: c1 - c0], theta[: c1 - c0], part[: c1 - c0]
        np.add(trial.mod_arg[:, None], trial.mod_phase[c0:c1], out=env)
        np.sin(env, out=env)
        np.multiply(env, spec.mod_depth, out=env)
        np.add(env, 1.0, out=env)
        np.multiply(trial.amp_gain, env, out=env)
        np.add(grid.carrier, grid.pair_carrier[c0:c1], out=th)
        np.multiply(th, 2.0 * math.pi, out=th)
        np.add(th, trial.carrier_phase, out=th)
        highs, lows = out.highs[c0:c1], out.lows[c0:c1]
        for k, trig in enumerate((np.cos, np.sin)):
            trig(th, out=pt)
            np.multiply(env, pt, out=pt)
            if out.noise is not None:
                term = out.noise[k, c0:c1]
                np.multiply(term, spec.noise_amp, out=term)
                np.add(pt, term, out=pt)
            np.rint(pt, out=pt)
            np.max(pt, axis=(1, 2), out=highs[:, k])
            np.min(pt, axis=(1, 2), out=lows[:, k])
            if highs[:, k].max() <= 127 and lows[:, k].min() >= -127:
                np.copyto(out.data[c0:c1, ..., k], pt, casting="unsafe")


def _check_peak(out: _Buffers, where: str = "") -> None:
    peak = max(out.highs.max(), -out.lows.min())
    if not peak <= 127:
        raise ValueError(
            f"signature amplitude exceeds signed 8-bit range after quantization (peak {peak:.0f}){where}"
        )


def synthesize_recording(spec: SyntheticSpec, class_id: int, trial_id: int) -> CsiRecording:
    """One trial of `class_id`, deterministic in (spec, class_id, trial_id).

    The noise is drawn first, then the antenna pairs are built on the kernel
    pool, a chunk of pairs per task."""
    grid = _grid(spec)
    out = _buffers(spec)
    trial = _prepare(spec, grid, class_id, trial_id, out.noise)
    shape = (spec.n_p, spec.n_s)
    T._over_chunks(spec.n_t * spec.n_r, (shape, shape, shape), functools.partial(_build, spec, grid, trial, out))
    _check_peak(out)
    return CsiRecording(n_t=spec.n_t, n_r=spec.n_r, n_p=spec.n_p, n_s=spec.n_s, data=out.data)


def generate_synthetic(spec: SyntheticSpec, out_dir: str | os.PathLike) -> DatasetManifest:
    """Write one recording per (class, trial) plus `manifest.csv` into `out_dir`.

    Same spec (including seed) always produces bitwise-identical files. The
    recordings run on the kernel pool, a contiguous run of them per worker,
    each built whole (its noise drawn, every pair built, the file written)
    before the next; buffers are allocated here, once per worker. A recording
    that overflows int8 raises ValueError naming it; for any worker count
    that is the earliest one in (class, trial) order, raised once every
    worker has stopped.
    """
    os.makedirs(out_dir, exist_ok=True)
    trials = [(c, trial) for c in range(spec.classes) for trial in range(spec.samples_per_class)]
    stems = [f"class{c:02d}_trial{trial:03d}" for c, trial in trials]
    paths = [os.path.join(out_dir, stem + ".csi") for stem in stems]
    dims = (spec.n_t, spec.n_r, spec.n_p, spec.n_s)
    pairs = spec.n_t * spec.n_r
    grid = _grid(spec)
    shape = (spec.n_p, spec.n_s)
    size = min(T._chunk_len((shape, shape, shape)), pairs)
    buffers = {
        b0: (_buffers(spec), [np.empty((size,) + shape) for _ in range(3)])
        for b0, _ in T._slices(len(trials))
    }

    def run_slice(b0: int, b1: int) -> None:
        out, scratch = buffers[b0]
        for i in range(b0, b1):
            trial = _prepare(spec, grid, *trials[i], out.noise)
            _build(spec, grid, trial, out, 0, pairs, *scratch)
            _check_peak(out, f" in recording {stems[i]}")
            write_container(paths[i], MAGIC, _HEADER, _FIELDS, dims, out.data)

    T._fan_out(run_slice, len(trials))
    # 10 trials per subject pair mirrors the acquisition layout of the real
    # dataset; harmless bookkeeping for synthetic data.
    entries = [
        ManifestEntry(path=path, label=c, pair_id=trial // 10, trial_id=trial)
        for path, (c, trial) in zip(paths, trials)
    ]
    manifest = DatasetManifest(entries=entries)
    save_manifest(manifest, os.path.join(out_dir, "manifest.csv"))
    return manifest
