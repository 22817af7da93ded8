"""The per-pair data path against the whole-grid oracle in
`data_reference.py`, its independence from the kernel worker count, and
the thread its traced functions run on."""

import os
import re
import struct
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import data_reference as reference
from csi_tcn import csi_data, dsp
from csi_tcn import tensor as T
from csi_tcn.augment import AugmentConfig, augmented
from csi_tcn.cli import main
from csi_tcn.csi_data import CsiRecording, SyntheticSpec, amplitude, synthesize_recording
from csi_tcn.dsp import FilterSpec, WaveletSpec, preprocess

from conftest import random_recording

SPECS = {
    "default": {},
    "jitter": {"scale_jitter": 0.1, "phase_jitter": 0.3},
    "deep_fast": {"mod_depth": 0.9, "freq_max": 0.12, "base_amplitude": 30.0},
    "no_noise": {"noise_amp": 0.0},
    "flat_profile": {"profile_depth": 0.0},
    "one_pair": {"n_t": 1, "n_r": 1, "n_s": 7},
    "three_by_three": {"n_t": 3, "n_r": 3, "n_s": 5, "profile_depth": 0.8, "base_amplitude": 40.0},
}


def spec_of(name: str, n_p: int) -> SyntheticSpec:
    return SyntheticSpec(n_p=n_p, **SPECS[name])


def test_magnitude_table_is_hypot_of_every_int8_pair():
    codes = np.arange(1 << 16, dtype="<u2").view(np.int8).reshape(1, 256, 256, 2)
    rec = CsiRecording(n_t=1, n_r=1, n_p=256, n_s=256, data=codes)
    want = np.hypot(codes[..., 0].astype(np.float64), codes[..., 1].astype(np.float64))
    got = amplitude(rec)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert got.tobytes() == reference.amplitude(rec).tobytes()


class TestSynthesisMatchesReference:
    @pytest.mark.parametrize("n_p", [1500, 256])
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_bitwise(self, name, n_p):
        spec = spec_of(name, n_p)
        for class_id, trial in ((0, 0), (7, 3), (11, 9)):
            got = synthesize_recording(spec, class_id, trial)
            want = reference.synthesize_recording(spec, class_id, trial)
            assert got.data.dtype == np.int8 and got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("base", [200.0, 90.0])
    def test_overflow_error_matches(self, base):
        spec = SyntheticSpec(n_p=64, base_amplitude=base)
        with pytest.raises(ValueError) as want:
            reference.synthesize_recording(spec, 0, 0)
        with pytest.raises(ValueError, match="exceeds signed 8-bit range") as got:
            synthesize_recording(spec, 0, 0)
        assert str(got.value) == str(want.value)


def constant_pair_recording(n_p: int) -> CsiRecording:
    rec = random_recording(np.random.default_rng(n_p), n_p=n_p, n_s=30)
    rec.data[2] = 7  # every entry 7 + 7j: a constant amplitude
    rec.data[4] = 0
    return rec


class TestPreprocessMatchesReference:
    @pytest.mark.parametrize("levels", [2, 1])
    @pytest.mark.parametrize("order, cutoff", [(5, 0.1), (8, 0.4)], ids=["stock_filter", "steep_filter"])
    @pytest.mark.parametrize("n_p", [1500, 256])
    @pytest.mark.parametrize("source", ["default", "deep_fast", "no_noise", "one_pair", "constant_pair"])
    def test_bitwise(self, source, n_p, order, cutoff, levels):
        if source == "constant_pair":
            rec = constant_pair_recording(n_p)
        else:
            rec = synthesize_recording(spec_of(source, n_p), 5, 2)
        args = (FilterSpec(order=order, cutoff=cutoff), WaveletSpec(levels=levels))
        got = preprocess(rec, *args, label=3)
        want = reference.preprocess(rec, *args, label=3)
        assert got.label == 3 and got.data.shape == want.data.shape
        assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("order, cutoff, levels", [(3, 0.3, 1), (2, 0.05, 3), (7, 0.2, 4)])
    def test_other_filters_and_levels(self, order, cutoff, levels):
        rec = synthesize_recording(spec_of("jitter", 512), 1, 1)
        args = (FilterSpec(order=order, cutoff=cutoff), WaveletSpec(levels=levels))
        got = preprocess(rec, *args)
        want = reference.preprocess(rec, *args)
        assert got.data.tobytes() == want.data.tobytes()

    def test_packets_must_halve_every_level(self):
        rec = synthesize_recording(spec_of("default", 250), 0, 0)
        with pytest.raises(ValueError, match="250 packets cannot be halved 2 times"):
            preprocess(rec)

    def test_filter_designed_once_per_spec(self, monkeypatch):
        calls = []
        design = dsp.design_butterworth_lowpass
        monkeypatch.setattr(dsp, "design_butterworth_lowpass", lambda spec: calls.append(spec) or design(spec))
        dsp._lowpass.cache_clear()
        rec = synthesize_recording(spec_of("default", 256), 0, 0)
        for filt in (FilterSpec(), FilterSpec(order=3), FilterSpec()):
            preprocess(rec, filt)
        dsp._lowpass.cache_clear()
        assert [(s.order, s.cutoff) for s in calls] == [(5, 0.1), (3, 0.1)]


def run_data_path(labels, recs):
    """Bytes of every synthesized, preprocessed and augmented output."""
    grids = [r.data for r in recs]
    prep = [preprocess(r).data for r in recs]
    cfg = AugmentConfig(copies_per_method=2, mix_epsilon_max=0.45, dropout_lambda_max=0.5, seed=3)
    raw_out = [g.tobytes() for _, g in augmented(grids, labels, cfg)]
    post_out = [g.tobytes() for _, g in augmented(prep, labels, cfg)]
    return [g.tobytes() for g in grids], [p.tobytes() for p in prep], raw_out, post_out


class TestWorkerCountIndependence:
    """Synthesis and raw mixing fan antenna pairs out over the kernel pool;
    every stage gives the same bytes for any worker count, including counts
    that do not divide the pairs and a one-pair recording."""

    @pytest.mark.parametrize("name", ["default", "one_pair", "deep_fast"])
    def test_same_bytes_for_1_2_3_workers(self, monkeypatch, name):
        spec = SyntheticSpec(classes=3, n_p=256, **SPECS[name])
        labels = [c for c in range(3) for _ in range(3)]
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(T, "_WORKERS", workers)
            recs = [synthesize_recording(spec, c, t) for c in range(3) for t in range(3)]
            results.append(run_data_path(labels, recs))
        assert results[0] == results[1] == results[2]


def expected_file(spec: SyntheticSpec, class_id: int, trial: int) -> bytes:
    """The container bytes of the whole-grid oracle's recording."""
    rec = reference.synthesize_recording(spec, class_id, trial)
    header = struct.pack("<4H", spec.n_t, spec.n_r, spec.n_p, spec.n_s)
    return csi_data.MAGIC + header + rec.data.tobytes()


class TestGenerateSynthetic:
    """`generate_synthetic` runs its recordings on the kernel pool, a
    contiguous run of them per worker."""

    @pytest.mark.parametrize("name", ["default", "one_pair", "three_by_three", "no_noise", "jitter"])
    def test_files_are_the_reference_for_1_2_3_workers(self, tmp_path, monkeypatch, name):
        # 10 recordings: 3 workers take 3, 3 and 4
        spec = SyntheticSpec(classes=5, samples_per_class=2, n_p=64, seed=4, **SPECS[name])
        listings = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # let the workers interleave often
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(T, "_WORKERS", workers)
                out = tmp_path / f"w{workers}"
                manifest = csi_data.generate_synthetic(spec, out)
                assert [(e.label, e.trial_id) for e in manifest] == [(c, t) for c in range(5) for t in range(2)]
                listings.append({p.name: p.read_bytes() for p in out.iterdir()})
        finally:
            sys.setswitchinterval(interval)
        assert listings[0] == listings[1] == listings[2]
        files = listings[0]
        assert len(files) == 11 and "manifest.csv" in files
        for c in range(5):
            for t in range(2):
                assert files[f"class{c:02d}_trial{t:03d}.csi"] == expected_file(spec, c, t)

    def test_peak_memory_does_not_grow_with_the_recording_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(T, "_WORKERS", 2)
        peaks = {}
        for trials in (2, 8, 2):  # 6 and 24 recordings; the first run warms up
            spec = SyntheticSpec(classes=3, samples_per_class=trials, n_p=256)
            tracemalloc.start()
            try:
                csi_data.generate_synthetic(spec, tmp_path / f"n{trials}")
                peaks[trials] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # Buffers kept per recording would add 18 of these; ufunc cast
        # buffers of workers that happen to overlap move the peak by ~128 kB.
        one_noise = 2 * 6 * 256 * 30 * 8  # the two noise grids of one recording
        assert peaks[8] < peaks[2] + one_noise / 2, peaks

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_overflow_names_the_earliest_recording_after_every_worker_stops(
        self, tmp_path, monkeypatch, capsys, workers
    ):
        # Recordings 4 (class 1, trial 0), 8 and 9 overflow; with 2 workers
        # the second one fails at its third recording while the first is
        # still writing, and with 3 the last two fail at their first.
        settings = dict(classes=3, samples_per_class=4, n_p=64, n_s=8, base_amplitude=66.0, scale_jitter=0.1)
        spec = SyntheticSpec(seed=5, **settings)
        failures = {}
        for i, (c, t) in enumerate((c, t) for c in range(3) for t in range(4)):
            try:
                reference.synthesize_recording(spec, c, t)
            except ValueError as exc:
                failures[i] = str(exc)
        assert sorted(failures) == [4, 8, 9]
        monkeypatch.setattr(T, "_WORKERS", workers)
        written = []
        write = csi_data.write_container

        def slow_write(path, *args):
            time.sleep(0.02)
            write(path, *args)
            written.append(os.path.basename(path))

        monkeypatch.setattr(csi_data, "write_container", slow_write)
        message = f"{failures[4]} in recording class01_trial000"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            csi_data.generate_synthetic(spec, tmp_path / "raw")
        done = list(written)
        time.sleep(0.2)
        assert written == done and sorted(done) == sorted(p.name for p in (tmp_path / "raw").iterdir())
        expected = []
        for b0, b1 in T._slices(12):
            stop = min([i for i in (4, 8, 9) if b0 <= i < b1], default=b1)
            expected += [f"class{i // 4:02d}_trial{i % 4:03d}.csi" for i in range(b0, stop)]
        assert sorted(done) == expected

        config = [f"synth.{k}={v}" for k, v in settings.items()]
        argv = ["synth", "--seed", "5", *(a for kv in config for a in ("--set", kv)), "--out", str(tmp_path / "cli")]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["raw"]


def test_traced_functions_run_on_the_main_thread(tmp_path, monkeypatch, capsys):
    """A span tracer keeps one stack, so the public functions it wraps must
    be called from the main thread only, with the pool busy around them."""
    main_thread = threading.main_thread()
    calls = {}

    def on_main(name, fn):
        def wrapper(*args, **kwargs):
            calls.setdefault(name, []).append(threading.current_thread() is main_thread)
            return fn(*args, **kwargs)

        return wrapper

    modules = [m for n, m in sys.modules.items() if n.startswith("csi_tcn.") and m is not None]
    for mod, name in [
        (csi_data, "amplitude"),
        (csi_data, "generate_synthetic"),
        (csi_data, "synthesize_recording"),
        (csi_data, "save_recording"),
        (dsp, "minmax_normalize"),
        (dsp, "apply_filter"),
        (dsp, "dwt_approx"),
        (dsp, "design_butterworth_lowpass"),
    ]:
        original = getattr(mod, name)
        wrapper = on_main(f"{mod.__name__}.{name}", original)
        for other in modules:
            for attr, value in list(vars(other).items()):
                if value is original:
                    monkeypatch.setattr(other, attr, wrapper)
    monkeypatch.setattr(T, "_WORKERS", 3)
    dsp._lowpass.cache_clear()
    monkeypatch.chdir(tmp_path)
    config = ["--set", "synth.classes=3", "--set", "synth.samples_per_class=3", "--set", "synth.n_p=256",
              "--set", "pipeline.target_np=256"]
    assert main(["synth", *config, "--out", "raw"]) == 0
    assert main(["preprocess", "raw/manifest.csv", *config, "--out", "prep"]) == 0
    assert main(["augment", "prep/manifest.csv", "--stage", "post", *config, "--out", "post"]) == 0
    assert main(["augment", "raw/manifest.csv", "--stage", "pre", *config, "--out", "pre"]) == 0
    dsp._lowpass.cache_clear()
    capsys.readouterr()
    # synth builds its recordings in private helpers on the pool, so of the
    # synthesis functions only `generate_synthetic` is called, once.
    assert len(calls["csi_tcn.csi_data.generate_synthetic"]) == 1
    assert "csi_tcn.csi_data.synthesize_recording" not in calls
    assert len(calls["csi_tcn.csi_data.save_recording"]) == len(list((tmp_path / "pre").glob("*.csi"))) == 36
    assert len(calls["csi_tcn.dsp.design_butterworth_lowpass"]) == 1
    assert all(all(flags) for flags in calls.values()), {k: v.count(False) for k, v in calls.items()}
