"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy end-to-end
criteria (7-9) share one CLI workspace; the ablation trends (8) share
per-seed synthetic datasets.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from csi_tcn.augment import AugmentConfig, expand_dataset, mix_samples
from csi_tcn.cli import main
from csi_tcn.csi_data import SyntheticSpec, synthesize_recording
from csi_tcn.dsp import (
    FilterSpec,
    PreprocessedSample,
    WaveletSpec,
    apply_filter,
    design_butterworth_lowpass,
    dwt_approx,
    minmax_normalize,
    preprocess,
)
from csi_tcn.gradchecks import MODEL_TOLERANCE, PRIMITIVE_TOLERANCE, run_battery
from csi_tcn.model import ModelConfig, init_model, model_forward, probe_receptive_field, receptive_field
from csi_tcn.tensor import Tensor
from csi_tcn.train import TrainConfig, adamw_step, AdamWState, train


def report(criterion: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] criterion {criterion} ({name}): PASS{suffix}")


# ---------------------------------------------------------------------------
# Shared fixtures for the heavy criteria


CRITERION7_CONFIG = {
    "seed": 11,
    "synth": {
        "classes": 12,
        "samples_per_class": 40,
        "n_p": 256,
        "n_s": 30,
        "freq_min": 0.008,
        "freq_max": 0.045,
        "mod_depth": 0.35,
        "profile_depth": 0.3,
        "noise_amp": 2.0,
        "scale_jitter": 0.1,
        "phase_jitter": 0.3,
    },
    "pipeline": {"target_np": 256},
    "model": {
        "filters": [16, 16, 16],
        "kernel": 7,
        "dropout": 0.5,
        "d_k": 30,
        "n_classes": 12,
        "in_features": 30,
    },
    "train": {"batch_size": 32, "epochs": 12, "base_lr": 0.001, "k_folds": 10},
}


@pytest.fixture(scope="session")
def pipeline_workspace(tmp_path_factory):
    """synth -> preprocess -> train -> eval through the CLI (criterion 7);
    reused by the determinism criterion (9)."""
    root = tmp_path_factory.mktemp("acceptance")
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps(CRITERION7_CONFIG))
    started = time.perf_counter()
    assert main(["synth", "--config", str(cfg_path), "--out", str(root / "raw")]) == 0
    assert (
        main(
            [
                "preprocess",
                str(root / "raw" / "manifest.csv"),
                "--config",
                str(cfg_path),
                "--out",
                str(root / "prep"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "train",
                str(root / "prep" / "manifest.csv"),
                "--config",
                str(cfg_path),
                "--out",
                str(root / "run"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "eval",
                str(root / "prep" / "manifest.csv"),
                "--checkpoint",
                str(root / "run" / "checkpoint.ckpt"),
                "--config",
                str(cfg_path),
                "--out",
                str(root / "eval"),
            ]
        )
        == 0
    )
    elapsed = time.perf_counter() - started
    return {"root": root, "config": cfg_path, "elapsed": elapsed}


def build_trend_dataset(seed: int) -> list[PreprocessedSample]:
    """Frequency-signature-only dataset used by the ablation trends."""
    spec = SyntheticSpec(
        classes=12,
        samples_per_class=40,
        n_p=256,
        n_s=30,
        seed=seed,
        freq_min=0.008,
        freq_max=0.045,
        mod_depth=0.35,
        profile_depth=0.0,
        noise_amp=3.0,
        scale_jitter=0.15,
        phase_jitter=1.0,
    )
    filt, wav = FilterSpec(), WaveletSpec(levels=2)
    return [
        preprocess(synthesize_recording(spec, c, t), filt, wav, label=c)
        for c in range(12)
        for t in range(40)
    ]


@pytest.fixture(scope="session")
def trend_datasets():
    return {seed: build_trend_dataset(seed) for seed in (11, 12, 13)}


# ---------------------------------------------------------------------------
# Criterion 1: end-to-end causality, bitwise, every layer


def test_criterion_1_causality_suite():
    started = time.perf_counter()
    cfg = ModelConfig()  # stock config, NegInf mask
    params = init_model(cfg, np.random.default_rng(0))
    t_len = 64
    x = np.random.default_rng(1).standard_normal((1, t_len, cfg.in_features))
    _, base = model_forward(x, params, cfg, training=False, return_activations=True)
    layers = {
        "attention_pre": (base["attention_pre"].data, 1),
        "block0": (base["block0"].data, 2),
        "block1": (base["block1"].data, 2),
        "block2": (base["block2"].data, 2),
    }
    for t_poke in range(t_len):
        poked = x.copy()
        poked[0, t_poke, :] += 1.0
        _, acts = model_forward(poked, params, cfg, training=False, return_activations=True)
        for name, (reference, axis) in layers.items():
            got = acts[name].data
            take = [slice(None)] * got.ndim
            take[axis] = slice(0, t_poke)
            assert np.array_equal(got[tuple(take)], reference[tuple(take)]), (
                f"{name}: perturbation at t={t_poke} leaked backward"
            )
        # the probe is live: the perturbed step itself must change
        assert np.any(acts["attention_pre"].data[:, t_poke, :] != base["attention_pre"].data[:, t_poke, :])
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(1, "causality suite", f"{t_len} probes over 4 layers, bitwise, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: receptive field = 99 by brute-force probe


def test_criterion_2_receptive_field():
    started = time.perf_counter()
    cfg = ModelConfig()  # k=15, dilations 1/2/4
    assert receptive_field(cfg) == 99
    probed = probe_receptive_field(cfg)
    assert probed == 99
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(2, "receptive field", f"probe counted {probed} steps, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 3: gradient checks


def test_criterion_3_gradient_checks():
    started = time.perf_counter()
    rows = run_battery()
    for row in rows:
        assert row.error < row.tolerance, f"{row.name}: {row.error:.3e} >= {row.tolerance:.0e}"
    primitive_worst = max(r.error for r in rows if r.tolerance == PRIMITIVE_TOLERANCE)
    model_err = next(r.error for r in rows if r.tolerance == MODEL_TOLERANCE)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(
        3,
        "gradient checks",
        f"primitives worst {primitive_worst:.2e} < 1e-6, model {model_err:.2e} < 1e-4, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 4: DSP oracles


def _sine_gain(coeffs, nyquist_fraction: float) -> float:
    n = 8000
    t = np.arange(n)
    omega = math.pi * nyquist_fraction
    x = np.sin(omega * t)
    y = apply_filter(x, coeffs)
    tail = slice(4000, None)
    probe = np.exp(-1j * omega * t[tail])
    return abs(np.mean(y[tail] * probe)) / abs(np.mean(x[tail] * probe))


def test_criterion_4_dsp_oracles():
    started = time.perf_counter()
    # (a) 1500 -> 750 -> 375
    x = np.random.default_rng(0).standard_normal(1500)
    assert dwt_approx(dwt_approx(x)).shape == (375,)
    # (b) constant example
    twice = dwt_approx(dwt_approx(np.array([1.0, 1.0, 1.0, 1.0])))
    assert abs(twice[0] - 2.0) <= 1e-12
    # (c) Butterworth magnitudes by steady-state sinusoid amplitude ratio
    coeffs = design_butterworth_lowpass(FilterSpec(order=5, cutoff=0.1))
    cutoff_db = 20.0 * math.log10(_sine_gain(coeffs, 0.1))
    stop_db = 20.0 * math.log10(_sine_gain(coeffs, 0.5))
    assert abs(cutoff_db - (-3.01)) <= 0.05
    assert stop_db <= -40.0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(4, "dsp oracles", f"cutoff {cutoff_db:.3f} dB, 5x cutoff {stop_db:.1f} dB, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 5: normalization extrema


def test_criterion_5_normalization():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    for _ in range(20):
        pairs = int(rng.integers(2, 7))
        x = rng.uniform(-500.0, 500.0, size=(pairs, int(rng.integers(4, 64)), int(rng.integers(2, 32))))
        x[1] = 7.25  # one degenerate constant slice
        out = minmax_normalize(x, pair_axis=0)
        for p in range(pairs):
            if p == 1:
                assert np.array_equal(out[p], np.zeros_like(out[p]))
            else:
                assert out[p].min() == -1.0 and out[p].max() == 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(5, "normalization extrema", f"20 random recordings, exact endpoints, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 6: augmentation arithmetic


def test_criterion_6_augmentation_arithmetic():
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    a = PreprocessedSample(data=rng.standard_normal((2, 8, 3)), label=1)
    b = PreprocessedSample(data=rng.standard_normal((2, 8, 3)), label=2)
    c = PreprocessedSample(data=rng.standard_normal((2, 8, 3)), label=3)
    identity = mix_samples(a, b, c, 0.0, 0.0, 0.0)
    assert np.array_equal(identity.data, a.data)  # bitwise

    d = mix_samples(
        PreprocessedSample(data=np.array([[[1.0], [0.0]]]), label=0),
        PreprocessedSample(data=np.array([[[0.0], [1.0]]]), label=1),
        PreprocessedSample(data=np.array([[[2.0], [2.0]]]), label=2),
        0.04,
        0.02,
        0.02,
    )
    assert np.allclose(d.data.ravel(), [1.00, 0.06], atol=1e-12)

    dataset = [
        PreprocessedSample(data=rng.standard_normal((1, 4, 2)), label=cl)
        for cl in range(2)
        for _ in range(400)
    ]
    cfg = AugmentConfig(methods=("mix_same",), copies_per_method=1, seed=0)
    out = expand_dataset(dataset, cfg)
    counts = {cl: sum(1 for s in out if s.label == cl) for cl in range(2)}
    assert counts == {0: 800, 1: 800}
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(6, "augmentation arithmetic", f"identity bitwise, D=[1.00,0.06], 400->800, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 7: end-to-end synthetic learning (single fold, reduced model)


def test_criterion_7_synthetic_learning(pipeline_workspace):
    root = pipeline_workspace["root"]
    metrics_lines = (root / "run" / "metrics.csv").read_text().strip().splitlines()[1:]
    val_acc = [float(line.split(",")[2]) for line in metrics_lines if line.split(",")[1] == "val"]
    assert len(val_acc) <= 30  # within-30-epochs budget
    best = max(val_acc)
    assert best >= 0.95, f"validation accuracy peaked at {best:.3f}"
    confusion = (root / "eval" / "confusion.csv").read_text().strip().splitlines()
    assert len(confusion) == 12 and all(len(r.split(",")) == 12 for r in confusion)
    assert pipeline_workspace["elapsed"] < 600.0
    report(
        7,
        "end-to-end synthetic learning",
        f"val accuracy {best:.3f} within {len(val_acc)} epochs, "
        f"pipeline {pipeline_workspace['elapsed']:.0f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 8: directional ablation trends (2 of 3 seeds each)


def _split(dataset, train_per_class, val_from=None):
    per_class = 40
    train_set = [s for i, s in enumerate(dataset) if i % per_class < train_per_class]
    lo = val_from if val_from is not None else train_per_class
    val_set = [s for i, s in enumerate(dataset) if i % per_class >= lo]
    return train_set, val_set


def test_criterion_8_ablation_trends(trend_datasets):
    started = time.perf_counter()
    seeds = (11, 12, 13)

    # (a) one augmentation method on artificially scarce raw data
    gains = []
    for seed in seeds:
        train_set, val_set = _split(trend_datasets[seed], 10)
        cfg = ModelConfig(
            filters=(16, 16, 16), kernel=2, dropout=0.2, n_classes=12,
            in_features=30, d_k=30, attention_placement="none",
        )
        tc = TrainConfig(batch_size=32, epochs=25, base_lr=1e-3, seed=seed)
        _, raw = train(train_set, cfg, tc, val_set)
        augmented = expand_dataset(
            train_set, AugmentConfig(methods=("mix_same",), copies_per_method=2, seed=seed)
        )
        _, aug = train(augmented, cfg, tc, val_set)
        gains.append(aug.val_accuracy[-1] - raw.val_accuracy[-1])
    a_hits = sum(1 for g in gains if g >= 0.02)
    assert a_hits >= 2, f"augmentation gains {gains}"

    # (b) kernel sweep: accuracy at k=15 >= accuracy at k=2
    kernel_rows = []
    for seed in seeds:
        train_set, val_set = _split(trend_datasets[seed], 20)
        accs = {}
        for k in (2, 7, 15):
            cfg = ModelConfig(
                filters=(16, 16, 16), kernel=k, dropout=0.2, n_classes=12,
                in_features=30, d_k=30, attention_placement="none",
            )
            tc = TrainConfig(batch_size=32, epochs=20, base_lr=1e-3, seed=seed)
            _, m = train(train_set, cfg, tc, val_set)
            accs[k] = m.val_accuracy[-1]
        kernel_rows.append(accs)
    b_hits = sum(1 for accs in kernel_rows if accs[15] >= accs[2])
    assert b_hits >= 2, f"kernel sweep rows {kernel_rows}"

    # (c) attention reaches 90% training accuracy no later than no-attention
    def epochs_to_90(history):
        for i, acc in enumerate(history):
            if acc >= 0.9:
                return i + 1
        return len(history) + 1

    speeds = []
    for seed in seeds:
        train_set, val_set = _split(trend_datasets[seed], 20)
        per_placement = {}
        for placement in ("pre_tcn_only", "none"):
            cfg = ModelConfig(
                filters=(16, 16, 16), kernel=7, dropout=0.2, n_classes=12,
                in_features=30, d_k=30, attention_placement=placement,
            )
            tc = TrainConfig(batch_size=32, epochs=25, base_lr=1e-3, seed=seed)
            _, m = train(train_set, cfg, tc, val_set)
            per_placement[placement] = epochs_to_90(m.train_accuracy)
        speeds.append(per_placement)
    c_hits = sum(1 for s in speeds if s["pre_tcn_only"] <= s["none"])
    assert c_hits >= 2, f"epochs-to-90% {speeds}"

    elapsed = time.perf_counter() - started
    assert elapsed < 1800.0
    report(
        8,
        "ablation trends",
        f"(a) {a_hits}/3 gains {[f'{100*g:+.1f}' for g in gains]} pts, "
        f"(b) {b_hits}/3 monotone, (c) {c_hits}/3 attention faster, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 9: bitwise determinism across reruns and thread counts


def test_criterion_9_determinism(pipeline_workspace):
    root = pipeline_workspace["root"]
    cfg_path = pipeline_workspace["config"]
    compare = ("metrics.csv", "summary.json", "checkpoint.ckpt", "confusion.csv")
    reference = {name: (root / "run" / name).read_bytes() for name in compare}
    for threads in ("1", "4"):
        out = root / f"rerun_t{threads}"
        env = dict(os.environ)
        env["OMP_NUM_THREADS"] = threads
        env["OPENBLAS_NUM_THREADS"] = threads
        env["MKL_NUM_THREADS"] = threads
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "csi_tcn",
                "train",
                str(root / "prep" / "manifest.csv"),
                "--config",
                str(cfg_path),
                "--out",
                str(out),
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        for name in compare:
            assert (out / name).read_bytes() == reference[name], (
                f"{name} differs with {threads} BLAS thread(s)"
            )
    report(9, "determinism", "rerun x2 (1 and 4 threads): all byte-identical")


# ---------------------------------------------------------------------------
# Criterion 10: AdamW oracle


def test_criterion_10_adamw_oracle():
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lr, wd = 0.1, 0.1
    grads = [0.3, -0.2, 0.5, -0.1, 0.4]
    theta, m, v = 0.5, 0.0, 0.0
    trace = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        theta = theta * (1.0 - lr * wd) - lr * (
            (m / (1.0 - beta1**t)) / (math.sqrt(v / (1.0 - beta2**t)) + eps)
        )
        trace.append(theta)
    params = {"w": Tensor(np.array([0.5]), requires_grad=True)}
    state = AdamWState.for_params(params)
    worst = 0.0
    for g, expected in zip(grads, trace):
        adamw_step(params, {"w": np.array([g])}, state, lr, wd)
        worst = max(worst, abs(params["w"].data[0] - expected))
    assert worst <= 1e-12

    decayed = {"w": Tensor(np.array([0.73]), requires_grad=True)}
    state2 = AdamWState.for_params(decayed)
    adamw_step(decayed, {"w": np.zeros(1)}, state2, 0.05, 0.2)
    assert decayed["w"].data[0] == 0.73 * (1.0 - 0.05 * 0.2)
    report(10, "adamw oracle", f"5-step trace max abs err {worst:.2e}, decay identity exact")
