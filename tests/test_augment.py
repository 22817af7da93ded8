import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import augment_reference as reference
from csi_tcn.augment import (
    AugmentConfig,
    AugmentMethod,
    _dropout,
    _mix,
    augmented,
    expand_dataset,
    mix_samples,
)
from csi_tcn.cli import main
from csi_tcn.config import load_run_config
from csi_tcn.csi_data import (
    DatasetManifest,
    ManifestEntry,
    load_manifest,
    load_recording,
    save_manifest,
    save_recording,
)
from csi_tcn.dsp import PreprocessedSample, load_sample, save_sample
from csi_tcn.seeding import named_rng

from conftest import random_recording


def sample_of(values, label=0):
    return PreprocessedSample(data=np.asarray(values, dtype=float).reshape(1, -1, 1), label=label)


def tiny_dataset(per_class: int, classes: int = 3, width: int = 4, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [
        PreprocessedSample(data=rng.standard_normal((1, width, 2)), label=c)
        for c in range(classes)
        for _ in range(per_class)
    ]


class TestDropout:
    def test_lambda_zero_is_identity(self):
        x = sample_of([1.0, -2.0, 3.0]).data
        out = _dropout(x, named_rng(0, "t"), 0.07, lam=0.0)
        assert np.array_equal(out, x)

    def test_lambda_one_zeroes_everything(self):
        x = sample_of([1.0, -2.0, 3.0]).data
        out = _dropout(x, named_rng(0, "t"), 0.07, lam=1.0)
        assert np.array_equal(out, np.zeros_like(x))

    def test_zeroed_fraction_concentrates(self):
        out = _dropout(np.ones((100, 100, 100)), named_rng(3, "t"), 0.07, lam=0.05)
        frac = np.mean(out == 0.0)
        assert abs(frac - 0.05) <= 0.002

    def test_drawn_lambda_within_bound(self):
        out = _dropout(sample_of([1.0] * 64).data, named_rng(5, "t"), 0.07)
        frac = np.mean(out == 0.0)
        assert frac <= 0.5  # loose: lambda < 0.07 means few zeros


class TestMixSamples:
    def test_identity_when_eps_zero(self):
        a, b, c = (sample_of(v, lbl) for v, lbl in [([1, 2], 0), ([5, 6], 1), ([7, 8], 2)])
        d = mix_samples(a, b, c, 0.0, 0.0, 0.0)
        assert np.array_equal(d.data, a.data)
        assert d.label == 0

    def test_vector_example(self):
        a = sample_of([1.0, 0.0], 0)
        b = sample_of([0.0, 1.0], 1)
        c = sample_of([2.0, 2.0], 2)
        d = mix_samples(a, b, c, 0.04, 0.02, 0.02)
        assert np.allclose(d.data.ravel(), [1.00, 0.06], atol=1e-12)
        assert d.label == 0

    def test_equal_inputs_scale(self):
        x = sample_of([0.5, -1.5, 2.0], 4)
        e = 0.03
        d = mix_samples(x, x, x, e, e, e)
        assert np.allclose(d.data, x.data * (1.0 + e), atol=1e-15)

    def test_shape_mismatch(self):
        a = sample_of([1, 2])
        b = sample_of([1, 2, 3])
        with pytest.raises(ValueError, match="shape"):
            mix_samples(a, b, a, 0.0, 0.0, 0.0)

    def test_rate_out_of_range(self):
        a = sample_of([1, 2])
        with pytest.raises(ValueError, match="rate"):
            mix_samples(a, a, a, 0.6, 0.0, 0.0)

    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=6),
        st.floats(0, 0.049),
        st.floats(0, 0.049),
        st.floats(0, 0.049),
    )
    @settings(max_examples=50, deadline=None)
    def test_linearity_in_each_argument(self, values, e1, e2, e3):
        a = sample_of(values, 0)
        b = sample_of(values[::-1], 1)
        zero = sample_of([0.0] * len(values), 2)
        d = mix_samples(a, b, zero, e1, e2, e3)
        expected = a.data * (1.0 - e1) + b.data * e2
        assert np.allclose(d.data, expected, atol=1e-12)


def mixed(dataset, method, seed, copies=1):
    """The new samples one mixing method makes from `dataset`."""
    cfg = AugmentConfig(methods=(method,), copies_per_method=copies, seed=seed)
    return expand_dataset(dataset, cfg)[len(dataset):]


class TestDonorSelection:
    def test_mix_other_labels_differ(self):
        dataset = tiny_dataset(per_class=4, classes=12)
        out = mixed(dataset, "mix_other", seed=1, copies=20)
        assert len(out) == 20 * len(dataset)
        for d, a in zip(out, dataset * 20):
            assert d.label == a.label

    def test_provenance_in_method_copy_source_order(self):
        dataset = tiny_dataset(per_class=3)
        cfg = AugmentConfig(methods=("mix_same", "dropout"), copies_per_method=2, seed=1)
        origins = [o for o, _ in augmented([s.data for s in dataset], [s.label for s in dataset], cfg)]
        assert origins == [
            (m, c, i) for m in cfg.methods for c in range(2) for i in range(len(dataset))
        ]

    def test_mix_other_requires_foreign_label(self):
        dataset = tiny_dataset(per_class=4, classes=1)
        with pytest.raises(ValueError, match="donor"):
            mixed(dataset, "mix_other", seed=0)

    def test_mix_other_deterministic(self):
        dataset = tiny_dataset(per_class=4)
        d1 = mixed(dataset, "mix_other", seed=9)
        d2 = mixed(dataset, "mix_other", seed=9)
        assert all(np.array_equal(s.data, t.data) for s, t in zip(d1, d2))

    def test_mix_same_requires_two_others(self):
        dataset = tiny_dataset(per_class=2)
        with pytest.raises(ValueError, match=">= 2"):
            mixed(dataset, "mix_same", seed=0)

    def test_mix_same_excludes_self_and_keeps_label(self):
        dataset = tiny_dataset(per_class=3)
        for a, d in zip(dataset, mixed(dataset, "mix_same", seed=2)):
            assert d.label == a.label
            # with eps < 0.5 the result cannot equal any single donor
            assert not any(np.array_equal(d.data, s.data) for s in dataset)

    def test_mix_same_excludes_source_by_index(self):
        # A second slot holding the source's object is a donor like any other;
        # only the source's own slot is left out.
        s, t, _ = tiny_dataset(per_class=3, classes=1)
        assert len(mixed([s, s, t], "mix_same", seed=3)) == 3

    def test_mix_same_deterministic(self):
        dataset = tiny_dataset(per_class=3)
        d1 = mixed(dataset, "mix_same", seed=4)
        d2 = mixed(dataset, "mix_same", seed=4)
        assert all(np.array_equal(s.data, t.data) for s, t in zip(d1, d2))


class TestExpandDataset:
    def test_doubling_contract(self):
        # one method, copies=1: 400 per class becomes 800 per class
        dataset = tiny_dataset(per_class=400, classes=2, width=2)
        cfg = AugmentConfig(methods=(AugmentMethod.DROPOUT,), copies_per_method=1, seed=1)
        out = expand_dataset(dataset, cfg)
        for c in range(2):
            assert sum(1 for s in out if s.label == c) == 800

    def test_two_methods_triple(self):
        dataset = tiny_dataset(per_class=400, classes=2, width=2)
        cfg = AugmentConfig(
            methods=(AugmentMethod.DROPOUT, AugmentMethod.MIX_OTHER), copies_per_method=1, seed=1
        )
        out = expand_dataset(dataset, cfg)
        for c in range(2):
            assert sum(1 for s in out if s.label == c) == 1200

    def test_shapes_and_labels_preserved(self):
        dataset = tiny_dataset(per_class=4)
        cfg = AugmentConfig(copies_per_method=2, seed=3)
        out = expand_dataset(dataset, cfg)
        assert len(out) == len(dataset) * (1 + 3 * 2)
        assert all(s.data.shape == dataset[0].data.shape for s in out)

    def test_bitwise_reproducible(self):
        dataset = tiny_dataset(per_class=4)
        cfg = AugmentConfig(seed=11)
        a = expand_dataset(dataset, cfg)
        b = expand_dataset(dataset, cfg)
        assert len(a) == len(b)
        for s, t in zip(a, b):
            assert np.array_equal(s.data, t.data) and s.label == t.label

    def test_unlabelled_sample_rejected(self):
        s = PreprocessedSample(data=np.ones((1, 2, 1)), label=None)
        with pytest.raises(ValueError, match="label"):
            expand_dataset([s], AugmentConfig())


class TestAugmentedRaw:
    def test_counts_and_determinism(self):
        rng = np.random.default_rng(0)
        recs = [random_recording(rng, n_p=16, n_s=4) for _ in range(9)]
        labels = [c for c in range(3) for _ in range(3)]
        cfg = AugmentConfig(seed=5)
        a = list(augmented([r.data for r in recs], labels, cfg))
        b = list(augmented([r.data for r in recs], labels, cfg))
        assert len(a) == len(recs) * 3
        for (oa, ga), (ob, gb) in zip(a, b):
            assert oa == ob and np.array_equal(ga, gb)

    def test_values_stay_in_int8(self):
        rng = np.random.default_rng(1)
        recs = [random_recording(rng, n_p=8, n_s=2) for _ in range(9)]
        labels = [c for c in range(3) for _ in range(3)]
        for _, grid in augmented([r.data for r in recs], labels, AugmentConfig(seed=2)):
            assert grid.dtype == np.int8

    def test_dropout_zeroes_whole_complex_values(self):
        rng = np.random.default_rng(3)
        recs = [random_recording(rng, n_p=64, n_s=8) for _ in range(2)]
        cfg = AugmentConfig(methods=("dropout",), dropout_lambda_max=0.9, seed=1)
        for (_, _, i), grid in augmented([r.data for r in recs], [0, 1], cfg):
            kept = (grid == recs[i].data).all(axis=-1)
            dropped = (grid == 0).all(axis=-1)
            assert dropped.any() and (kept | dropped).all()

    def test_donor_errors_name_recordings(self):
        rng = np.random.default_rng(4)
        grids = [random_recording(rng, n_p=8, n_s=2).data for _ in range(4)]
        with pytest.raises(ValueError, match="no donor recordings"):
            list(augmented(grids, [0] * 4, AugmentConfig(methods=("mix_other",))))
        with pytest.raises(ValueError, match=">= 2 other recordings with label 0"):
            list(augmented(grids, [0, 0, 1, 1], AugmentConfig(methods=("mix_same",))))

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        grids = [random_recording(rng, n_p=8, n_s=2).data, random_recording(rng, n_p=10, n_s=2).data]
        with pytest.raises(ValueError, match="share one shape"):
            list(augmented(grids, [0, 1], AugmentConfig()))


# The earlier two-expander code in augment_reference.py is the oracle: every
# output must match it bit for bit, in both domains.
REFERENCE_CONFIGS = [
    {},
    {"methods": ["mix_same", "dropout"], "copies_per_method": 3, "seed": 2},
    {"methods": ["mix_other", "mix_same"], "mix_epsilon_max": 0.3, "dropout_lambda_max": 0.4, "seed": 9},
    {
        "methods": ["dropout", "mix_same", "mix_other"],
        "copies_per_method": 3,
        "mix_epsilon_max": 0.45,
        "dropout_lambda_max": 0.9,
        "seed": 1,
    },
]


def mixed_dim_recordings(seed: int, labels):
    """Recordings of one data shape whose antenna layouts alternate 2x3 / 3x2."""
    rng = np.random.default_rng(seed)
    recs = []
    for k, _ in enumerate(labels):
        n_t, n_r = (2, 3) if k % 2 else (3, 2)
        recs.append(random_recording(rng, n_t=n_t, n_r=n_r, n_p=12, n_s=4))
    return recs


LABELS = [0, 2, 1, 0, 1, 2, 2, 0, 1, 1, 0, 2]


class TestAgainstReference:
    @pytest.mark.parametrize("fields", REFERENCE_CONFIGS)
    def test_samples_bitwise(self, fields):
        cfg = AugmentConfig(**fields)
        dataset = tiny_dataset(per_class=4, width=6, seed=3)
        new = expand_dataset(dataset, cfg)
        ref = reference.expand_dataset(dataset, cfg)
        assert len(new) == len(ref)
        for s, t in zip(new, ref):
            assert s.label == t.label and s.data.tobytes() == t.data.tobytes()

    @pytest.mark.parametrize("fields", REFERENCE_CONFIGS)
    def test_recordings_bitwise(self, fields):
        cfg = AugmentConfig(**fields)
        recs = mixed_dim_recordings(7, LABELS)
        ref = reference.expand_recordings(list(zip(recs, LABELS)), cfg)[len(recs):]
        new = list(augmented([r.data for r in recs], LABELS, cfg))
        assert len(new) == len(ref)
        for ((_, _, i), grid), (rec, label) in zip(new, ref):
            assert grid.dtype == np.int8 and grid.tobytes() == rec.data.tobytes()
            assert LABELS[i] == label and (recs[i].n_t, recs[i].n_r) == (rec.n_t, rec.n_r)

    @pytest.mark.parametrize("stage", ["post", "pre"])
    @pytest.mark.parametrize("fields", REFERENCE_CONFIGS)
    def test_cli_files_bitwise(self, tmp_path, stage, fields):
        """`augment` writes the reference's data, labels, antenna dims and file
        names, including stem collisions between inputs and generated names."""
        overrides = [f"augment.{k}={json.dumps(v)}" for k, v in fields.items()]
        cfg = load_run_config(None, overrides, None).augment
        suffix = ".csp" if stage == "post" else ".csi"
        recs = mixed_dim_recordings(11, LABELS)
        samples = tiny_dataset(per_class=4, width=6, seed=5)
        entries = []
        for k, label in enumerate(LABELS):
            # Two inputs share a stem, and one takes a generated output's name.
            stem = "aug_dropout_0_00001" if k == 3 else f"rec_{k % 5:03d}"
            path = tmp_path / f"in{k}" / (stem + suffix)
            path.parent.mkdir()
            if stage == "post":
                save_sample(PreprocessedSample(data=samples[k].data, label=label), path)
            else:
                save_recording(recs[k], path)
            entries.append(ManifestEntry(path=str(path), label=label, pair_id=k % 3, trial_id=k))
        manifest = tmp_path / "manifest.csv"
        save_manifest(DatasetManifest(entries=entries), manifest)

        out = tmp_path / "out"
        args = ["augment", str(manifest), "--stage", stage, "--out", str(out)]
        assert main(args + [a for o in overrides for a in ("--set", o)]) == 0

        base = list(load_manifest(manifest))
        if stage == "post":
            inputs = [load_sample(e.path, label=e.label) for e in base]
            ref = [(s.data, s.label, None) for s in reference.expand_dataset(inputs, cfg)]
        else:
            pairs = [(load_recording(e.path), e.label) for e in base]
            ref = [(r.data, label, (r.n_t, r.n_r)) for r, label in reference.expand_recordings(pairs, cfg)]
        names = reference.reference_names(base, len(ref), cfg, suffix)
        written = list(load_manifest(out / "manifest.csv"))
        assert len(written) == len(ref) == len(names)
        assert len({e.path for e in written}) == len(written)
        for entry, (data, label, dims), (name, pair_id, trial_id) in zip(written, ref, names):
            assert os.path.basename(entry.path) == name
            assert (entry.label, entry.pair_id, entry.trial_id) == (label, pair_id, trial_id)
            if stage == "post":
                assert load_sample(entry.path).data.tobytes() == data.tobytes()
            else:
                rec = load_recording(entry.path)
                assert rec.data.tobytes() == data.tobytes() and (rec.n_t, rec.n_r) == dims


EXTREMES = np.array([-128, -127, -1, 0, 1, 126, 127], dtype=np.int8)


def extreme_recordings(seed: int, n: int) -> list:
    """Recordings mostly at the int8 limits, with zeros and +-1 between."""
    rng = np.random.default_rng(seed)
    recs = [random_recording(rng, n_p=12, n_s=4) for _ in range(n)]
    for rec in recs:
        rec.data[...] = EXTREMES[rng.integers(len(EXTREMES), size=rec.data.shape)]
    return recs


class TestRawScratch:
    """Raw mixing computes in two float64 buffers that `augmented` reuses for
    every output, and raw dropout stays in the integers; each result must
    still match the reference's fresh-array float arithmetic bit for bit,
    signed zeros and clipping included."""

    def test_raw_dropout_is_exact_in_integers(self):
        recs = extreme_recordings(3, 4)
        for k, rec in enumerate(recs):
            got = _dropout(rec.data, named_rng(k, "t"), 0.9, lam=0.5)
            keep = named_rng(k, "t").random(rec.data.shape[:-1]) >= 0.5
            want = reference._rec_to_float(rec) * keep[..., None]
            assert (np.signbit(want) & (want == 0)).any()  # the float path makes -0.0
            assert got.dtype == np.int8 and got.shape == rec.data.shape
            assert got.tobytes() == reference._float_to_rec(want, rec).data.tobytes()
            assert not np.shares_memory(got, rec.data)

    @pytest.mark.parametrize("eps", [(0.0, 0.0, 0.0), (0.45, 0.0, 0.0), (0.0, 0.45, 0.45), (0.13, 0.31, 0.07)])
    def test_mix_into_reused_buffers(self, eps):
        recs = extreme_recordings(5, 6)
        out, scratch = np.full(recs[0].data.shape, np.nan), np.full(recs[0].data.shape, -0.0)
        for a, b, c in zip(recs, recs[1:], recs[2:]):
            got = _mix(a.data, b.data, c.data, *eps, out=out, scratch=scratch)
            # The reference mixes 3-D samples; fold the (re, im) axis in.
            ref = [PreprocessedSample(data=reference._rec_to_float(r).reshape(6, 12, 8)) for r in (a, b, c)]
            want = reference.mix_samples(*ref, *eps).data
            assert got is out and got.tobytes() == want.tobytes()
        if eps[1] + eps[2] > eps[0]:
            assert got.max() > 127.5 and got.min() < -128.5  # the clip is exercised

    def test_expansion_at_the_limits_matches_reference(self):
        recs = extreme_recordings(9, 12)
        cfg = AugmentConfig(copies_per_method=2, mix_epsilon_max=0.45, dropout_lambda_max=0.9, seed=4)
        ref = reference.expand_recordings(list(zip(recs, LABELS)), cfg)[len(recs):]
        new = list(augmented([r.data for r in recs], LABELS, cfg))
        assert [g.tobytes() for _, g in new] == [r.data.tobytes() for r, _ in ref]
        assert all(not np.shares_memory(g, h) for (_, g), (_, h) in zip(new, new[1:]))

    def test_float_outputs_are_fresh(self):
        dataset = tiny_dataset(per_class=3, width=5)
        new = [g for _, g in augmented([s.data for s in dataset], [s.label for s in dataset], AugmentConfig())]
        assert len({id(g) for g in new}) == len(new)
        assert not any(np.shares_memory(g, h) for k, g in enumerate(new) for h in new[k + 1:])


def _augment_peak(argv: list) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("stage", ["post", "pre"])
def test_augment_peak_memory_does_not_grow_with_outputs(tmp_path, capsys, stage):
    """Outputs are written as they are made, so tripling `copies_per_method`
    (54 -> 162 new outputs here) adds less than two outputs to the peak."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"synth": {"classes": 3, "samples_per_class": 6, "n_p": 256, "n_s": 30}, "pipeline": {"target_np": 256}}))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "raw")]) == 0
    assert main(["preprocess", str(tmp_path / "raw" / "manifest.csv"), "--config", str(cfg), "--out", str(tmp_path / "prep")]) == 0
    src = tmp_path / ("prep" if stage == "post" else "raw") / "manifest.csv"
    out = next((tmp_path / "prep").glob("*.csp")) if stage == "post" else next((tmp_path / "raw").glob("*.csi"))
    one_output = out.stat().st_size
    argv = ["augment", str(src), "--stage", stage, "--config", str(cfg)]
    _augment_peak(argv + ["--out", str(tmp_path / "warm")])
    peaks = [
        _augment_peak(argv + ["--set", f"augment.copies_per_method={n}", "--out", str(tmp_path / f"c{n}")])
        for n in (1, 3)
    ]
    capsys.readouterr()
    assert len(list((tmp_path / "c3").iterdir())) == 18 * 10 + 1
    assert peaks[1] - peaks[0] < 2 * one_output, (peaks, one_output)


@pytest.mark.parametrize("stage", ["post", "pre"])
def test_augment_peak_memory_does_not_grow_with_inputs(tmp_path, capsys, stage):
    """Inputs are read from their files when an output needs them and are
    not kept, so tripling the input count (18 -> 54 here) adds less than two
    inputs to the peak."""
    peaks = []
    for trials in (6, 18):
        root = tmp_path / f"t{trials}"
        cfg = root / "run.json"
        root.mkdir()
        cfg.write_text(json.dumps({"synth": {"classes": 3, "samples_per_class": trials, "n_p": 256, "n_s": 30}, "pipeline": {"target_np": 256}}))
        assert main(["synth", "--config", str(cfg), "--out", str(root / "raw")]) == 0
        assert main(["preprocess", str(root / "raw" / "manifest.csv"), "--config", str(cfg), "--out", str(root / "prep")]) == 0
        src = root / ("prep" if stage == "post" else "raw")
        argv = ["augment", str(src / "manifest.csv"), "--stage", stage, "--config", str(cfg)]
        _augment_peak(argv + ["--out", str(root / "warm")])
        peaks.append(_augment_peak(argv + ["--out", str(root / "aug")]))
    capsys.readouterr()
    one_input = next(src.glob("*.cs?")).stat().st_size
    assert len(list((tmp_path / "t18" / "aug").iterdir())) == 54 * 4 + 1
    assert peaks[1] - peaks[0] < 2 * one_input, (peaks, one_input)


def test_config_validation():
    with pytest.raises(ValueError):
        AugmentConfig(dropout_lambda_max=0.0)
    with pytest.raises(ValueError):
        AugmentConfig(mix_epsilon_max=0.7)
    cfg = AugmentConfig(methods=("dropout", "mix_same"))
    assert cfg.methods == (AugmentMethod.DROPOUT, AugmentMethod.MIX_SAME)
    with pytest.raises(ValueError, match="methods must name at least one method"):
        AugmentConfig(methods=())
    with pytest.raises(ValueError, match="methods names mix_same twice"):
        AugmentConfig(methods=("mix_same", "dropout", AugmentMethod.MIX_SAME))
