import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csi_tcn import csi_data
from csi_tcn.csi_data import (
    CsiFormatError,
    CsiRecording,
    DatasetManifest,
    ManifestEntry,
    SyntheticSpec,
    amplitude,
    gate_and_trim,
    generate_synthetic,
    load_manifest,
    load_recording,
    save_manifest,
    save_recording,
    synthesize_recording,
)

from conftest import random_recording


def make_recording(n_t=2, n_r=3, n_p=4, n_s=5, fill=0):
    data = np.full((n_t * n_r, n_p, n_s, 2), fill, dtype=np.int8)
    return CsiRecording(n_t=n_t, n_r=n_r, n_p=n_p, n_s=n_s, data=data)


class TestBinaryFormat:
    def test_header_dimensions_round_trip(self, tmp_path):
        rec = make_recording(n_t=2, n_r=3, n_p=1500, n_s=30)
        path = tmp_path / "full.csi"
        save_recording(rec, path)
        loaded = load_recording(path)
        assert (loaded.n_t, loaded.n_r, loaded.n_p, loaded.n_s) == (2, 3, 1500, 30)
        assert loaded.data.shape == (6, 1500, 30, 2)

    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        rec = random_recording(rng)
        p1, p2 = tmp_path / "a.csi", tmp_path / "b.csi"
        save_recording(rec, p1)
        loaded = load_recording(p1)
        save_recording(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(rec.data, loaded.data)

    def test_exact_layout(self, tmp_path):
        # magic, 4 little-endian u16 dims, then interleaved (re, im) int8 pairs
        # pair-major, packet next, subcarrier innermost.
        rec = make_recording(n_t=1, n_r=1, n_p=1, n_s=2)
        rec.data[0, 0, 0] = (3, -4)
        rec.data[0, 0, 1] = (5, 6)
        path = tmp_path / "tiny.csi"
        save_recording(rec, path)
        blob = path.read_bytes()
        assert blob[:4] == b"CSI1"
        assert struct.unpack("<4H", blob[4:12]) == (1, 1, 1, 2)
        assert blob[12:] == bytes([3, 256 - 4, 5, 6])

    def test_truncated_payload_reports_counts(self, tmp_path):
        rec = make_recording(n_t=2, n_r=3, n_p=1500, n_s=30)
        path = tmp_path / "trunc.csi"
        save_recording(rec, path)
        blob = path.read_bytes()
        # drop exactly one packet's worth of bytes: header still claims 1500
        short = blob[: len(blob) - 2 * 6 * 30]
        path.write_bytes(short)
        with pytest.raises(CsiFormatError, match=r"539640.*540000"):
            load_recording(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.csi"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CsiFormatError, match="magic"):
            load_recording(path)

    @pytest.mark.parametrize("field", ["n_t", "n_r", "n_p", "n_s"])
    def test_dimension_above_u16_rejected_before_the_file_is_made(self, tmp_path, field):
        dims = dict(n_t=1, n_r=1, n_p=1, n_s=1)
        dims[field] = 65536
        data = np.zeros((dims["n_t"] * dims["n_r"], dims["n_p"], dims["n_s"], 2), dtype=np.int8)
        rec = CsiRecording(data=data, **dims)
        path = tmp_path / "big.csi"
        with pytest.raises(ValueError, match=rf"big\.csi: {field} = 65536 does not fit the u16 header field"):
            save_recording(rec, path)
        assert not path.exists()

    def test_zero_dimension_field(self, tmp_path):
        path = tmp_path / "zero.csi"
        path.write_bytes(b"CSI1" + struct.pack("<4H", 2, 0, 4, 5))
        with pytest.raises(CsiFormatError, match="dimension field zero"):
            load_recording(path)


def test_twelve_distinct_label_names():
    assert csi_data.N_CLASSES == 12
    assert len(set(csi_data.LABEL_NAMES)) == 12
    assert csi_data.LABEL_NAMES[0] == "approaching"
    assert csi_data.LABEL_NAMES[-1] == "pushing"


def test_pair_index_is_transmitter_major():
    rec = make_recording(n_t=2, n_r=3)
    assert [rec.pair_index(i, j) for i in range(2) for j in range(3)] == [0, 1, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        rec.pair_index(2, 0)


class TestGateAndTrim:
    def _numbered(self, n_p):
        rec = make_recording(n_t=1, n_r=1, n_p=n_p, n_s=1)
        rec.data[0, :, 0, 0] = np.arange(n_p) % 100
        return rec

    def test_short_recording_discarded(self):
        assert gate_and_trim(self._numbered(1040), 1500) is None

    def test_exact_length_unchanged(self):
        rec = self._numbered(1500)
        out = gate_and_trim(rec, 1500)
        assert out is rec

    def test_front_trim(self):
        rec = self._numbered(2249)
        out = gate_and_trim(rec, 1500)
        assert out is not None and out.n_p == 1500
        # first 749 packets dropped, order preserved
        assert np.array_equal(out.data[0, :, 0, 0], rec.data[0, 749:, 0, 0])

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            gate_and_trim(self._numbered(5), 0)

    @given(n_p=st.integers(1, 60), target=st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_output_length_contract(self, n_p, target):
        out = gate_and_trim(self._numbered(n_p), target)
        if n_p < target:
            assert out is None
        else:
            assert out.n_p == target


class TestAmplitude:
    def test_pythagorean(self):
        rec = make_recording(n_t=1, n_r=1, n_p=1, n_s=1)
        rec.data[0, 0, 0] = (3, 4)
        assert amplitude(rec)[0, 0, 0] == 5.0

    def test_zero(self):
        rec = make_recording(n_t=1, n_r=1, n_p=1, n_s=1, fill=0)
        assert amplitude(rec)[0, 0, 0] == 0.0

    def test_extreme(self):
        rec = make_recording(n_t=1, n_r=1, n_p=1, n_s=1)
        rec.data[0, 0, 0] = (-128, 0)
        assert amplitude(rec)[0, 0, 0] == 128.0

    @given(st.integers(-127, 127), st.integers(-127, 127))
    @settings(max_examples=60, deadline=None)
    def test_sign_invariance_and_nonnegative(self, re, im):
        rec = make_recording(n_t=1, n_r=1, n_p=1, n_s=1)
        rec.data[0, 0, 0] = (re, im)
        a = amplitude(rec)[0, 0, 0]
        rec.data[0, 0, 0] = (-re, -im)
        assert amplitude(rec)[0, 0, 0] == a >= 0.0


class TestManifest:
    def test_round_trip_relative_paths(self, tmp_path):
        sub = tmp_path / "data"
        sub.mkdir()
        entries = [
            ManifestEntry(path=str(sub / "a.csi"), label=0, pair_id=1, trial_id=2),
            ManifestEntry(path=str(sub / "b.csi"), label=11, pair_id=3, trial_id=4),
        ]
        mpath = sub / "manifest.csv"
        save_manifest(DatasetManifest(entries=entries), mpath)
        text = mpath.read_text()
        assert "a.csi,0,1,2" in text and "/" not in text.splitlines()[0]
        loaded = load_manifest(mpath)
        assert [os.path.abspath(e.path) for e in loaded] == [e.path for e in entries]
        assert [(e.label, e.pair_id, e.trial_id) for e in loaded] == [(0, 1, 2), (11, 3, 4)]

    def test_duplicate_path_rejected(self):
        e = ManifestEntry(path="x.csi", label=0, pair_id=0, trial_id=0)
        with pytest.raises(ValueError, match="duplicate"):
            DatasetManifest(entries=[e, ManifestEntry(path="x.csi", label=1, pair_id=0, trial_id=1)])

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            DatasetManifest(entries=[ManifestEntry(path="x.csi", label=12, pair_id=0, trial_id=0)])


class TestSynthetic:
    def test_deterministic_files(self, tmp_path):
        spec = SyntheticSpec(classes=12, samples_per_class=2, n_p=64, n_s=8, seed=7)
        d1, d2 = tmp_path / "one", tmp_path / "two"
        m1 = generate_synthetic(spec, d1)
        generate_synthetic(spec, d2)
        assert len(m1) == 24
        for name in sorted(os.listdir(d1)):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_zero_noise_makes_class_samples_identical(self):
        spec = SyntheticSpec(classes=2, samples_per_class=3, n_p=64, n_s=8, noise_amp=0.0, seed=5)
        recs = [synthesize_recording(spec, 0, t) for t in range(3)]
        assert np.array_equal(recs[0].data, recs[1].data)
        assert np.array_equal(recs[0].data, recs[2].data)

    def test_classes_differ(self):
        spec = SyntheticSpec(classes=2, samples_per_class=1, n_p=64, n_s=8, seed=5)
        a = synthesize_recording(spec, 0, 0)
        b = synthesize_recording(spec, 1, 0)
        assert not np.array_equal(a.data, b.data)

    def test_amplitude_overflow_rejected(self):
        spec = SyntheticSpec(classes=2, samples_per_class=1, n_p=32, n_s=4, base_amplitude=200.0)
        with pytest.raises(ValueError, match="8-bit"):
            synthesize_recording(spec, 0, 0)

    def test_fft_peak_separates_well_spaced_classes(self):
        # independent oracle: every sample's dominant amplitude-spectrum bin
        # must sit closer to its own class frequency than to the other one.
        freqs = (0.02, 0.1)
        spec = SyntheticSpec(
            classes=2,
            samples_per_class=5,
            n_p=256,
            n_s=8,
            freq_min=freqs[0],
            freq_max=freqs[1],
            mod_depth=0.5,
            profile_depth=0.0,
            noise_amp=1.0,
            seed=3,
        )
        for c in range(2):
            for t in range(5):
                rec = synthesize_recording(spec, c, t)
                amp = amplitude(rec)  # (pairs, T, s)
                spectra = np.abs(np.fft.rfft(amp - amp.mean(axis=1, keepdims=True), axis=1))
                mean_spectrum = spectra.mean(axis=(0, 2))
                peak_freq = np.argmax(mean_spectrum[1:]) + 1
                peak_freq = peak_freq / spec.n_p
                assert abs(peak_freq - freqs[c]) < abs(peak_freq - freqs[1 - c])

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SyntheticSpec(classes=1)

    @pytest.mark.parametrize(
        "name", ["noise_amp", "base_amplitude", "mod_depth", "profile_depth", "scale_jitter", "phase_jitter"]
    )
    def test_negative_setting_refused_by_name(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -1.0$"):
            SyntheticSpec(**{name: -1.0})
        SyntheticSpec(**{name: 0.0})
