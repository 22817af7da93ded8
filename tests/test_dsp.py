import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from csi_tcn import dsp
from csi_tcn.csi_data import CsiRecording, amplitude
from csi_tcn.dsp import (
    FilterSpec,
    IirCoefficients,
    WaveletSpec,
    apply_filter,
    design_butterworth_lowpass,
    dwt_approx,
    load_sample,
    minmax_normalize,
    preprocess,
    save_sample,
)


def sine_gain(coeffs: IirCoefficients, nyquist_fraction: float) -> float:
    """Steady-state output/input amplitude ratio for a pure sinusoid.

    Quadrature demodulation over many periods after the transient has died
    out; independent of any frequency-response formula.
    """
    n = 8000
    t = np.arange(n)
    omega = math.pi * nyquist_fraction
    x = np.sin(omega * t)
    y = apply_filter(x, coeffs)
    tail = slice(4000, None)
    probe = np.exp(-1j * omega * t[tail])
    amp_out = 2.0 * abs(np.mean(y[tail] * probe))
    amp_in = 2.0 * abs(np.mean(x[tail] * probe))
    return amp_out / amp_in


class TestMinMaxNormalize:
    def test_endpoints(self):
        out = minmax_normalize(np.array([[0.0, 5.0, 10.0]]))
        assert np.array_equal(out, [[-1.0, 0.0, 1.0]])

    def test_constant_slice_maps_to_zero(self):
        out = minmax_normalize(np.array([[7.0, 7.0]]))
        assert np.array_equal(out, [[0.0, 0.0]])

    def test_symmetric(self):
        out = minmax_normalize(np.array([[-2.0, 2.0]]))
        assert np.array_equal(out, [[-1.0, 1.0]])

    def test_per_pair_scope(self):
        x = np.stack([np.array([[0.0, 1.0]]), np.array([[0.0, 100.0]])])
        out = minmax_normalize(x, pair_axis=0)
        assert np.array_equal(out[0], [[-1.0, 1.0]])
        assert np.array_equal(out[1], [[-1.0, 1.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            minmax_normalize(np.array([[np.nan, 1.0]]))

    @given(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=40).filter(
            lambda v: max(v) > min(v)
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_extrema(self, values):
        out = minmax_normalize(np.array([values]))
        assert out.min() == -1.0 and out.max() == 1.0
        assert np.all(out >= -1.0) and np.all(out <= 1.0)


class TestButterworth:
    def test_dc_gain_is_unity(self):
        for order in (1, 2, 5, 8):
            coeffs = design_butterworth_lowpass(FilterSpec(order=order, cutoff=0.1))
            assert abs(coeffs.dc_gain - 1.0) <= 1e-9

    def test_stability_invariant(self):
        coeffs = design_butterworth_lowpass(FilterSpec(order=5, cutoff=0.1))
        assert np.all(np.abs(np.roots(coeffs.a)) < 1.0)

    def test_leading_denominator_normalized(self):
        coeffs = design_butterworth_lowpass(FilterSpec(order=5, cutoff=0.1))
        assert coeffs.a[0] == 1.0

    def test_unstable_coefficients_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            IirCoefficients(b=np.array([1.0]), a=np.array([1.0, -1.5]))

    @pytest.mark.parametrize("order", [8, 9, 10, 11, 12])
    @pytest.mark.parametrize("cutoff", [0.005, 0.01, 0.015, 0.025, 0.99])
    def test_accepted_exactly_when_the_recursion_decays(self, order, cutoff):
        # High orders at extreme cutoffs, where the float denominator's roots
        # are ill-conditioned: np.roots refused order 10 at cutoff 0.015,
        # whose impulse response decays, and the design's own poles (all
        # inside the unit circle) would pass ones whose response overflows.
        b, a = signal.butter(order, cutoff, btype="low", output="ba")
        impulse = np.zeros(200_000)
        impulse[0] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            tail = np.abs(signal.lfilter(b, a, impulse)[-2000:]).max()
        decays = bool(tail < 1e-6)  # False for nan
        try:
            IirCoefficients(b=b, a=a)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == decays
        if (order, cutoff) == (10, 0.015):
            assert accepted

    def test_cutoff_out_of_range(self):
        with pytest.raises(ValueError):
            FilterSpec(order=5, cutoff=1.5)

    def test_half_power_at_cutoff(self):
        # analytic Butterworth magnitude: |H|^2 = 1/(1 + (w/wc)^(2n)) = 1/2 at
        # the cutoff; pre-warping makes this exact for the digital filter.
        coeffs = design_butterworth_lowpass(FilterSpec(order=5, cutoff=0.1))
        gain_db = 20.0 * math.log10(sine_gain(coeffs, 0.1))
        assert gain_db == pytest.approx(-3.0103, abs=0.05)

    def test_stopband_at_five_times_cutoff(self):
        coeffs = design_butterworth_lowpass(FilterSpec(order=5, cutoff=0.1))
        gain_db = 20.0 * math.log10(sine_gain(coeffs, 0.5))
        assert gain_db <= -40.0


class TestApplyFilter:
    def setup_method(self):
        self.coeffs = design_butterworth_lowpass(FilterSpec(order=5, cutoff=0.1))

    def test_zero_in_zero_out(self):
        y = apply_filter(np.zeros(100), self.coeffs)
        assert np.array_equal(y, np.zeros(100))

    def test_step_converges_to_dc_gain(self):
        y = apply_filter(np.ones(800), self.coeffs)
        assert abs(y[-1] - 1.0) < 1e-3

    def test_two_sinusoid_separation(self):
        # low (0.02) passes, high (0.45) is crushed: compare FFT amplitudes.
        n = 4096
        t = np.arange(n)
        low, high = 0.02, 0.45
        x = np.sin(math.pi * low * t) + np.sin(math.pi * high * t)
        y = apply_filter(x, self.coeffs)
        spectrum = np.abs(np.fft.rfft(y[n // 2 :]))
        freqs = np.fft.rfftfreq(n // 2) * 2.0  # in fractions of Nyquist
        low_amp = spectrum[np.argmin(np.abs(freqs - low))]
        high_amp = spectrum[np.argmin(np.abs(freqs - high))]
        assert 20.0 * math.log10(low_amp / high_amp) >= 40.0

    def test_linearity(self):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(500), rng.standard_normal(500)
        a, b = 2.5, -1.25
        lhs = apply_filter(a * x + b * y, self.coeffs)
        rhs = a * apply_filter(x, self.coeffs) + b * apply_filter(y, self.coeffs)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(np.linalg.norm(lhs), 1e-12)

    def test_output_length_and_causality(self):
        # causal single pass: output before an impulse arrives is zero
        x = np.zeros(64)
        x[10] = 1.0
        y = apply_filter(x, self.coeffs)
        assert y.shape == x.shape
        assert np.array_equal(y[:10], np.zeros(10))

    def test_filters_along_requested_axis(self):
        x = np.zeros((2, 50, 3))
        x[:, 0, :] = 1.0
        y = apply_filter(x, self.coeffs, axis=1)
        assert y.shape == x.shape
        assert np.allclose(y[0, :, 0], y[1, :, 2])


class TestMatchesScipySignal:
    """`dsp` gives the bytes of `scipy.signal.butter` and `lfilter` without
    importing `scipy.signal`; only the test imports it, as the oracle."""

    CUTOFFS = np.union1d(np.linspace(0.035, 0.965, 100), [0.1, 0.2, 0.3, 0.4])

    @pytest.mark.parametrize("order", range(1, 13))
    def test_design_is_butter(self, order):
        assert len(self.CUTOFFS) == 104 and 0.1 in self.CUTOFFS
        for cutoff in self.CUTOFFS:
            coeffs = design_butterworth_lowpass(FilterSpec(order=order, cutoff=float(cutoff)))
            b, a = signal.butter(order, cutoff, btype="low", output="ba")
            assert coeffs.b.tobytes() == b.tobytes() and coeffs.a.tobytes() == a.tobytes(), cutoff

    @pytest.mark.parametrize(
        "shape, axis", [((300,), -1), ((300, 7), 0), ((7, 300), 1), ((3, 4, 300), -1)], ids=["1d", "2d_axis0", "2d_axis1", "3d_last"]
    )
    def test_apply_filter_is_lfilter(self, shape, axis):
        x = np.random.default_rng(len(shape) + axis).standard_normal(shape)
        for order, cutoff in ((5, 0.1), (1, 0.5), (8, 0.4)):
            coeffs = design_butterworth_lowpass(FilterSpec(order=order, cutoff=cutoff))
            want = signal.lfilter(coeffs.b, coeffs.a, x, axis=axis)
            assert apply_filter(x, coeffs, axis=axis).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "imports",
        [
            # dsp loads the extension from its file and leaves sys.modules as
            # it was; scipy.signal imported later gets the same kernel.
            "from csi_tcn import dsp\n"
            "assert not [m for m in sys.modules if m.startswith('scipy.signal')]\n"
            "import scipy.signal",
            # dsp imported after scipy.signal takes the kernel already loaded
            # and leaves scipy's entry in sys.modules.
            "import scipy.signal\nfrom csi_tcn import dsp",
        ],
        ids=["dsp_first", "scipy_signal_first"],
    )
    def test_one_kernel_whichever_is_imported_first(self, imports):
        code = (
            f"import sys\n{imports}\n"
            "assert sys.modules['scipy.signal._sigtools'] is scipy.signal._sigtools\n"
            "assert dsp._linear_filter is scipy.signal._sigtools._linear_filter\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(dsp.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestHaarDwt:
    def test_constant_signal_scales(self):
        out = dwt_approx(np.array([1.0, 1.0, 1.0, 1.0]))
        assert np.allclose(out, [math.sqrt(2.0), math.sqrt(2.0)], atol=1e-15)

    def test_two_levels_of_constant(self):
        out = dwt_approx(dwt_approx(np.array([1.0, 1.0, 1.0, 1.0])))
        assert out.shape == (1,)
        assert abs(out[0] - 2.0) <= 1e-12

    def test_length_1500_to_375(self):
        x = np.random.default_rng(0).standard_normal(1500)
        once = dwt_approx(x)
        twice = dwt_approx(once)
        assert once.shape == (750,)
        assert twice.shape == (375,)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError, match="even"):
            dwt_approx(np.ones(7))

    @given(st.integers(1, 64))
    @settings(max_examples=30, deadline=None)
    def test_energy_split(self, half):
        # keeping both halves conserves energy; the approximation alone
        # can only lose it.
        x = np.random.default_rng(half).standard_normal(2 * half)
        approx = dwt_approx(x)
        detail = (x[0::2] - x[1::2]) / math.sqrt(2.0)
        total = np.sum(approx**2) + np.sum(detail**2)
        assert abs(total - np.sum(x**2)) <= 1e-9 * max(np.sum(x**2), 1e-12)
        assert np.sum(approx**2) <= np.sum(x**2) + 1e-12

    def test_wavelet_spec_validation(self):
        with pytest.raises(ValueError):
            WaveletSpec(levels=0)


class TestPreprocess:
    def test_stock_pipeline_shape(self):
        rng = np.random.default_rng(2)
        data = rng.integers(-100, 101, size=(6, 1500, 30, 2)).astype(np.int8)
        rec = CsiRecording(n_t=2, n_r=3, n_p=1500, n_s=30, data=data)
        sample = preprocess(rec, FilterSpec(), WaveletSpec(levels=2), label=4)
        assert sample.data.shape == (6, 375, 30)
        assert sample.label == 4

    def test_all_zero_recording(self):
        rec = CsiRecording(
            n_t=1, n_r=2, n_p=16, n_s=3, data=np.zeros((2, 16, 3, 2), dtype=np.int8)
        )
        sample = preprocess(rec, FilterSpec(), WaveletSpec(levels=2))
        assert np.array_equal(sample.data, np.zeros((2, 4, 3)))

    def test_constant_amplitude_recording(self):
        data = np.zeros((2, 16, 3, 2), dtype=np.int8)
        data[..., 0] = 3
        data[..., 1] = 4
        rec = CsiRecording(n_t=1, n_r=2, n_p=16, n_s=3, data=data)
        sample = preprocess(rec, FilterSpec(), WaveletSpec(levels=2))
        assert np.array_equal(sample.data, np.zeros((2, 4, 3)))

    def test_normalizes_before_filtering(self):
        # the chain is amplitude, min-max, low-pass, Haar; filtering first
        # would give different values
        rng = np.random.default_rng(3)
        data = rng.integers(-100, 101, size=(2, 32, 4, 2)).astype(np.int8)
        rec = CsiRecording(n_t=1, n_r=2, n_p=32, n_s=4, data=data)
        coeffs = design_butterworth_lowpass(FilterSpec())
        amp = amplitude(rec)
        norm_first = dwt_approx(apply_filter(minmax_normalize(amp), coeffs, axis=1), axis=1)
        filter_first = dwt_approx(minmax_normalize(apply_filter(amp, coeffs, axis=1)), axis=1)
        sample = preprocess(rec, FilterSpec(), WaveletSpec(levels=1))
        assert np.allclose(sample.data, norm_first, rtol=0, atol=1e-12)
        assert not np.allclose(sample.data, filter_first, rtol=0, atol=1e-6)


class TestSampleContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((6, 375, 30))
        from csi_tcn.dsp import PreprocessedSample

        sample = PreprocessedSample(data=data, label=3)
        path = tmp_path / "s.csp"
        save_sample(sample, path)
        loaded = load_sample(path, label=3)
        assert np.array_equal(loaded.data, data)
        assert loaded.label == 3
        assert path.read_bytes()[:4] == b"CSP1"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.csp"
        path.write_bytes(b"CSI1" + b"\x00" * 10)
        from csi_tcn.csi_data import CsiFormatError

        with pytest.raises(CsiFormatError, match="magic"):
            load_sample(path)

    def test_truncation(self, tmp_path):
        from csi_tcn.csi_data import CsiFormatError
        from csi_tcn.dsp import PreprocessedSample

        sample = PreprocessedSample(data=np.ones((1, 4, 2)), label=0)
        path = tmp_path / "t.csp"
        save_sample(sample, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CsiFormatError, match="56.*64"):
            load_sample(path)

    def test_dimension_above_u16_rejected_before_the_file_is_made(self, tmp_path):
        from csi_tcn.dsp import PreprocessedSample

        path = tmp_path / "big.csp"
        with pytest.raises(ValueError, match=r"big\.csp: n_p = 65536 does not fit the u16 header field"):
            save_sample(PreprocessedSample(data=np.zeros((1, 65536, 1))), path)
        assert not path.exists()

    def test_zero_dimension_field_and_short_header(self, tmp_path):
        from csi_tcn.csi_data import CsiFormatError

        path = tmp_path / "z.csp"
        path.write_bytes(b"CSP1" + struct.pack("<3H", 6, 0, 30))
        with pytest.raises(CsiFormatError, match=r"z\.csp: dimension field zero in header \(pairs=6, n_p=0, n_s=30\)"):
            load_sample(path)
        path.write_bytes(b"CSP1\x06\x00")
        with pytest.raises(CsiFormatError, match=r"z\.csp: truncated header \(6 bytes\)"):
            load_sample(path)
