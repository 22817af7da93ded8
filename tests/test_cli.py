import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from csi_tcn import cli
from csi_tcn import train as train_mod
from csi_tcn.cli import main
from csi_tcn.config import RunConfig, load_run_config, run_config_to_dict
from csi_tcn.csi_data import DatasetManifest, ManifestEntry, load_manifest, save_manifest
from csi_tcn.dsp import PreprocessedSample, load_sample, save_sample

CONFIG = {
    "seed": 7,
    "synth": {"classes": 3, "samples_per_class": 6, "n_p": 128, "n_s": 12},
    "pipeline": {"target_np": 128},
    "model": {
        "filters": [6, 6],
        "kernel": 3,
        "dropout": 0.2,
        "d_k": 12,
        "n_classes": 3,
        "in_features": 12,
    },
    "train": {"batch_size": 8, "epochs": 2, "k_folds": 3},
}


def tree_digest(root) -> dict:
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            out[rel] = hashlib.sha256(open(path, "rb").read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps(CONFIG))
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
    return root, cfg_path


def test_synth_and_preprocess_outputs(workspace):
    root, _ = workspace
    assert (root / "raw" / "manifest.csv").exists()
    assert len(list((root / "raw").glob("*.csi"))) == 18
    assert len(list((root / "prep").glob("*.csp"))) == 18


def test_preprocess_outputs_are_byte_identical(workspace, tmp_path):
    root, cfg = workspace
    digests = []
    for name in ("p1", "p2"):
        out = tmp_path / name
        assert (
            main(
                [
                    "preprocess",
                    str(root / "raw" / "manifest.csv"),
                    "--config",
                    str(cfg),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        digests.append(tree_digest(out))
    assert digests[0] == digests[1]


def test_preprocess_does_not_mutate_inputs(workspace, tmp_path):
    root, cfg = workspace
    before = tree_digest(root / "raw")
    assert (
        main(
            [
                "preprocess",
                str(root / "raw" / "manifest.csv"),
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / "again"),
            ]
        )
        == 0
    )
    assert tree_digest(root / "raw") == before


def test_train_eval_chain(workspace, tmp_path):
    root, cfg = workspace
    run = tmp_path / "run"
    assert (
        main(
            ["train", str(root / "prep" / "manifest.csv"), "--config", str(cfg), "--out", str(run)]
        )
        == 0
    )
    for name in ("checkpoint.ckpt", "metrics.csv", "confusion.csv", "summary.json", "timings.csv"):
        assert (run / name).exists()
    summary = json.loads((run / "summary.json").read_text())
    assert summary["validation_protocol"].startswith("holdout fold 0")

    out = tmp_path / "eval"
    assert (
        main(
            [
                "eval",
                str(root / "prep" / "manifest.csv"),
                "--checkpoint",
                str(run / "checkpoint.ckpt"),
                "--config",
                str(cfg),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    confusion = (out / "confusion.csv").read_text().strip().splitlines()
    assert len(confusion) == 3 and all(len(r.split(",")) == 3 for r in confusion)
    total = sum(int(v) for row in confusion for v in row.split(","))
    assert total == 18


def test_train_outputs_are_byte_identical(workspace, tmp_path):
    root, cfg = workspace
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert (
            main(
                [
                    "train",
                    str(root / "prep" / "manifest.csv"),
                    "--config",
                    str(cfg),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        d = tree_digest(out)
        d.pop("timings.csv")  # wall clock, excluded from the determinism contract
        digests.append(d)
    assert digests[0] == digests[1]


def test_kfold_train(workspace, tmp_path):
    root, cfg = workspace
    out = tmp_path / "kfold"
    assert (
        main(
            [
                "train",
                str(root / "prep" / "manifest.csv"),
                "--config",
                str(cfg),
                "--kfold",
                "3",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["fold_val_accuracy"]) == 3
    assert all((out / f"fold{i}_metrics.csv").exists() for i in range(3))


def test_kfold_from_files_equals_kfold_evaluate_over_a_list(workspace, tmp_path):
    # The CLI reads each sample from its file when a batch needs it; the
    # model must see the bytes, in the order, of the samples held in memory.
    root, cfg = workspace
    manifest = root / "prep" / "manifest.csv"
    out = tmp_path / "kfold"
    assert main(["train", str(manifest), "--config", str(cfg), "--kfold", "3", "--out", str(out)]) == 0
    run_cfg = load_run_config(str(cfg))
    samples = [load_sample(e.path, label=e.label) for e in load_manifest(manifest)]
    per_fold, mean_accuracy = train_mod.kfold_evaluate(samples, run_cfg.model, run_cfg.train, k=3)
    for fold, metrics in enumerate(per_fold):
        train_mod.write_metrics_csv(metrics, tmp_path / "listed.csv")
        assert (tmp_path / "listed.csv").read_bytes() == (out / f"fold{fold}_metrics.csv").read_bytes()
    assert json.loads((out / "summary.json").read_text())["mean_val_accuracy"] == mean_accuracy


def _copy_prep(root, tmp_path) -> tuple[str, list]:
    """A copy of the workspace's preprocessed samples and their manifest
    under tmp_path, so a test may change the files."""
    entries = load_manifest(root / "prep" / "manifest.csv").entries
    copies = []
    for e in entries:
        path = str(tmp_path / os.path.basename(e.path))
        shutil.copyfile(e.path, path)
        copies.append(dataclasses.replace(e, path=path))
    manifest = str(tmp_path / "manifest.csv")
    save_manifest(DatasetManifest(entries=copies), manifest)
    return manifest, copies


@pytest.mark.parametrize(
    "command",
    [["train"], ["train", "--kfold", "2"], ["eval", "--checkpoint", None]],
    ids=["holdout", "kfold", "eval"],
)
def test_sample_changed_after_the_shape_check_fails_cleanly(workspace, checkpoint, tmp_path, monkeypatch, capsys, command):
    root, cfg = workspace
    manifest, entries = _copy_prep(root, tmp_path)
    victim = entries[-1].path
    before = load_sample(victim)
    narrow = PreprocessedSample(before.data[:, 1:], label=before.label)
    real_load = cli.load_sample
    reads = []

    def load_then_change(path, label=None):
        # Once every sample has been read by the first shape check, shrink
        # the last one on disk.
        reads.append(path)
        if len(reads) == len(entries) + 1:
            save_sample(narrow, victim)
        return real_load(path, label=label)

    monkeypatch.setattr(cli, "load_sample", load_then_change)
    argv = [command[0], manifest, *[checkpoint if a is None else a for a in command[1:]]]
    out = tmp_path / "never"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {victim} changed after its shape check: shape {narrow.data.shape}, was {before.data.shape}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("kfold", [[], ["--kfold", "2"]], ids=["holdout", "kfold"])
def test_train_from_files_peaks_near_one_step_not_near_the_dataset(tmp_path, kfold):
    # Many samples in small batches: the samples total many times one
    # step's whole traced peak, so holding the dataset would show.
    model = {"filters": [6, 6], "kernel": 3, "dropout": 0.1, "d_k": 12, "n_classes": 3, "in_features": 12}
    train_cfg = {"batch_size": 2, "epochs": 1, "seed": 0}
    rng = np.random.default_rng(0)
    entries, samples = [], []
    for i in range(240):
        sample = PreprocessedSample(rng.uniform(-1.0, 1.0, (6, 256, 12)), label=i % 3)
        path = str(tmp_path / f"s{i:03d}.csp")
        save_sample(sample, path)
        entries.append(ManifestEntry(path=path, label=i % 3, pair_id=0, trial_id=i))
        samples.append(sample)
    manifest = str(tmp_path / "manifest.csv")
    save_manifest(DatasetManifest(entries=entries), manifest)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": model, "train": train_cfg}))
    run_cfg = load_run_config(str(cfg))

    def traced_peak(fn, *args) -> int:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    step_peak = traced_peak(train_mod.train, samples[:2], run_cfg.model, run_cfg.train)
    assert sum(s.data.nbytes for s in samples) > 5 * step_peak
    del samples
    argv = ["train", manifest, "--config", str(cfg), *kfold, "--out", str(tmp_path / "run")]

    def run_cli():
        assert main(argv) == 0

    peak = traced_peak(run_cli)
    assert peak < 1.5 * step_peak, (peak, step_peak)


def test_augment_post_and_pre(workspace, tmp_path):
    root, cfg = workspace
    post = tmp_path / "post"
    assert (
        main(
            [
                "augment",
                str(root / "prep" / "manifest.csv"),
                "--config",
                str(cfg),
                "--out",
                str(post),
            ]
        )
        == 0
    )
    assert len(list(post.glob("*.csp"))) == 18 * 4  # three methods, copies=1

    pre = tmp_path / "pre"
    assert (
        main(
            [
                "augment",
                str(root / "raw" / "manifest.csv"),
                "--stage",
                "pre",
                "--config",
                str(cfg),
                "--out",
                str(pre),
            ]
        )
        == 0
    )
    assert len(list(pre.glob("*.csi"))) == 18 * 4


def test_unknown_config_key_names_it(workspace, capsys):
    root, cfg = workspace
    code = main(
        [
            "train",
            str(root / "prep" / "manifest.csv"),
            "--config",
            str(cfg),
            "--set",
            "model.kernels=5",
            "--out",
            str(root / "never"),
        ]
    )
    assert code == 1
    assert "model.kernels" in capsys.readouterr().err
    assert not (root / "never").exists()


@pytest.mark.parametrize(
    "override",
    [
        "model.layers=3",
        "model.dilations=[1,2]",
        "wavelet.family=haar",
        "train.shuffle=false",
        "filter.zero_phase=true",
        "pipeline.normalize_first=false",
        "synth.signatures=null",
        "model.mask_mode=neg_inf",
        "model.residual=true",
        "synth.burst_depth=0.0",
        "synth.chirp_max=0.0",
    ],
)
def test_removed_config_keys_are_unknown(workspace, tmp_path, capsys, override):
    root, cfg = workspace
    out = tmp_path / "never"
    code = main(["train", str(root / "prep" / "manifest.csv"), "--config", str(cfg), "--set", override, "--out", str(out)])
    assert code == 1
    key = override.split("=", 1)[0]
    assert capsys.readouterr().err == f"error: unknown config key: {key}\n"
    assert not out.exists()


SETTABLE_KEYS = ["seed"] + [
    f"{section}.{name}"
    for section, names in {
        "synth": "classes samples_per_class n_t n_r n_p n_s freq_min freq_max mod_depth profile_depth "
        "base_amplitude noise_amp scale_jitter phase_jitter seed",
        "filter": "order cutoff",
        "wavelet": "levels",
        "pipeline": "target_np",
        "augment": "dropout_lambda_max mix_epsilon_max methods copies_per_method seed",
        "model": "filters kernel dropout attention_placement d_k n_classes in_features",
        "train": "batch_size epochs base_lr lr_decay weight_decay seed k_folds",
    }.items()
    for name in names.split()
]


def test_run_config_has_39_settable_keys():
    # A setting added or removed shows up here; each key is set through
    # `--set` to its default and must give back the same config.
    defaults = run_config_to_dict(RunConfig())
    flat = {"seed": defaults["seed"]}
    for section, values in defaults.items():
        if section != "seed":
            flat.update({f"{section}.{k}": v for k, v in values.items()})
    assert list(flat) == SETTABLE_KEYS and len(flat) == 39
    for key, value in flat.items():
        assert run_config_to_dict(load_run_config(overrides=[f"{key}={json.dumps(value)}"])) == defaults


@pytest.mark.parametrize(
    "filters, problem",
    [
        ("[4,0,0]", "must all be >= 1"),
        ("[4,0,4]", "must all be >= 1"),
        # int() would truncate 4.5 to a 4-wide block and read true as width 1
        ("[4.5,4]", "must all be integers"),
        ("[true,4]", "must all be integers"),
        ("5", "must be a list of integers, got 5"),
        ("null", "must be a list of integers, got None"),
    ],
    ids=["[4,0,0]", "[4,0,4]", "[4.5,4]", "[true,4]", "5", "null"],
)
def test_bad_filter_widths_fail_before_output(workspace, tmp_path, capsys, filters, problem):
    root, cfg = workspace
    out = tmp_path / "never"
    code = main(
        ["train", str(root / "prep" / "manifest.csv"), "--config", str(cfg), "--set", f"model.filters={filters}", "--out", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config section 'model': filters ") and problem in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_indivisible_packet_count_fails_before_any_recording_is_read(workspace, tmp_path, monkeypatch, capsys):
    root, cfg = workspace
    monkeypatch.setattr(cli, "load_recording", lambda path: pytest.fail("read a recording"))
    out = tmp_path / "never"
    argv = ["preprocess", str(root / "raw" / "manifest.csv"), "--config", str(cfg), "--set", "pipeline.target_np=250"]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: pipeline.target_np 250 is not divisible by 2**wavelet.levels = 4\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "order, cutoff, problem",
    [
        (2000, 0.99, "the design overflows float64"),
        (2000, 0.1, "the design overflows float64"),
        (12, 0.005, "unstable filter: pole on or outside the unit circle"),
    ],
    ids=["overflow", "non_finite", "unstable"],
)
def test_unusable_filter_fails_by_its_keys_before_any_recording_is_read(
    workspace, tmp_path, monkeypatch, capsys, order, cutoff, problem
):
    root, cfg = workspace
    monkeypatch.setattr(cli, "load_recording", lambda path: pytest.fail("read a recording"))
    out = tmp_path / "never"
    argv = ["preprocess", str(root / "raw" / "manifest.csv"), "--config", str(cfg)]
    overrides = ["--set", f"filter.order={order}", "--set", f"filter.cutoff={cutoff}"]
    assert main([*argv, *overrides, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: filter.order {order} with filter.cutoff {cutoff}: {problem}\n"
    assert not out.exists()


_PREPROCESS_AND_LIST_SCIPY_SIGNAL = """
import sys
from csi_tcn import cli
assert cli.main(sys.argv[1:]) == 0
print(sorted(name for name in sys.modules if name.startswith("scipy.signal")))
"""


def test_preprocess_does_not_import_scipy_signal(workspace, tmp_path):
    # Importing scipy.signal costs every process about 75 MB and 0.8 s; the
    # chain repeats its filter design and loads only its compiled kernel.
    root, cfg = workspace
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = tmp_path / "prep"
    args = ["preprocess", str(root / "raw" / "manifest.csv"), "--config", str(cfg), "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-c", _PREPROCESS_AND_LIST_SCIPY_SIGNAL, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert tree_digest(out) == tree_digest(root / "prep")


def test_too_few_classes_for_labels_fails_cleanly(workspace, tmp_path, capsys):
    root, cfg = workspace
    code = main(
        [
            "train",
            str(root / "prep" / "manifest.csv"),
            "--config",
            str(cfg),
            "--set",
            "model.n_classes=2",
            "--out",
            str(tmp_path / "two"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: label 2 outside the model's classes [0, 2)")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_class_mismatch_writes_no_output_directory(workspace, tmp_path, capsys):
    root, cfg = workspace
    out = tmp_path / "never"
    code = main(
        ["train", str(root / "prep" / "manifest.csv"), "--config", str(cfg), "--set", "model.n_classes=2", "--out", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: label 2 outside the model's classes [0, 2)")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value, message",
    [(2, "x", "invalid literal for int() with base 10: 'x'"), (1, "13", "label 13 outside [0, 11]")],
    ids=["non_integer", "label_out_of_range"],
)
def test_bad_manifest_value_names_its_line(workspace, tmp_path, capsys, field, value, message):
    root, cfg = workspace
    lines = (root / "prep" / "manifest.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines]
    for row in rows:
        row[0] = str(root / "prep" / row[0])
    rows[1][field] = value
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("".join(",".join(row) + "\n" for row in rows))
    out = tmp_path / "never"
    assert main(["train", str(manifest), "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {manifest}:2: {message}\n"
    assert not out.exists()


def test_synth_rejects_more_classes_than_labels_before_writing(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(CONFIG))
    out = tmp_path / "raw13"
    code = main(["synth", "--config", str(cfg), "--set", "synth.classes=13", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "classes must be in [2, 12], got 13" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_synth_rejects_negative_noise_before_writing(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(CONFIG))
    out = tmp_path / "raw"
    code = main(["synth", "--config", str(cfg), "--set", "synth.noise_amp=-5", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: invalid config section 'synth': noise_amp must be >= 0, got -5\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "override, got",
    [
        ("synth.freq_min=0.5", "freq_min 0.5, freq_max 0.04"),
        ("synth.freq_min=-0.1", "freq_min -0.1, freq_max 0.04"),
        ("synth.freq_max=0.7", "freq_min 0.008, freq_max 0.7"),
    ],
    ids=["min_above_max", "min_negative", "max_above_nyquist"],
)
def test_synth_rejects_class_frequencies_it_cannot_represent(tmp_path, capsys, override, got):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(CONFIG))
    out = tmp_path / "raw"
    assert main(["synth", "--config", str(cfg), "--set", override, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: invalid config section 'synth': "
        f"need 0 <= freq_min <= freq_max < 0.5 cycles per packet (Nyquist 0.5), got {got}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "methods, message",
    [
        ("[]", "methods must name at least one method"),
        ('["dropout","dropout"]', "methods names dropout twice; use copies_per_method for more copies"),
    ],
    ids=["empty", "repeated"],
)
def test_augment_rejects_empty_or_repeated_methods(workspace, tmp_path, capsys, methods, message):
    root, cfg = workspace
    out = tmp_path / "aug"
    argv = ["augment", str(root / "raw" / "manifest.csv"), "--stage", "pre", "--config", str(cfg)]
    assert main([*argv, "--set", f"augment.methods={methods}", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: invalid config section 'augment': {message}\n"
    assert not out.exists()


def test_failed_augment_writes_no_output_directory(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(CONFIG))
    raw = tmp_path / "raw"
    synth = ["synth", "--config", str(cfg), "--set", "synth.classes=2", "--set", "synth.samples_per_class=2"]
    assert main(synth + ["--out", str(raw)]) == 0
    capsys.readouterr()
    out = tmp_path / "aug"
    code = main(["augment", str(raw / "manifest.csv"), "--stage", "pre", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: need >= 2 other recordings with label 0")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_failed_preprocess_writes_no_output_directory(workspace, tmp_path, capsys):
    root, cfg = workspace
    out = tmp_path / "prep1500"
    code = main(
        ["preprocess", str(root / "raw" / "manifest.csv"), "--config", str(cfg), "--set", "pipeline.target_np=1500", "--out", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no recording reached the 1500-packet threshold")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_truncated_recording_fails_preprocess_without_output(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(CONFIG))
    raw = tmp_path / "raw"
    synth = ["synth", "--config", str(cfg), "--set", "synth.classes=2", "--set", "synth.samples_per_class=3"]
    assert main(synth + ["--out", str(raw)]) == 0
    fourth = load_manifest(raw / "manifest.csv").entries[3].path
    with open(fourth, "r+b") as fh:
        fh.truncate(100)
    capsys.readouterr()
    out = tmp_path / "prep"
    code = main(["preprocess", str(raw / "manifest.csv"), "--config", str(cfg), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and os.path.basename(fourth) in err
    assert len(err.strip().splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["raw", "run.json"]


def _fail_on_call(monkeypatch, name: str, n: int) -> None:
    """Make `cli.<name>` raise OSError on its n-th call and every later one."""
    real = getattr(cli, name)
    calls = []

    def flaky(*args):
        calls.append(1)
        if len(calls) >= n:
            raise OSError(f"disk full at write {n}")
        real(*args)

    monkeypatch.setattr(cli, name, flaky)


@pytest.fixture(scope="module")
def checkpoint(workspace):
    root, cfg = workspace
    run = root / "run"
    assert main(["train", str(root / "prep" / "manifest.csv"), "--config", str(cfg), "--out", str(run)]) == 0
    return str(run / "checkpoint.ckpt")


# (writer, call to fail at, command with paths under the workspace): a write
# midway through each dataset, and the last write of train, eval and ablate.
WRITE_STEPS = [
    ("save_sample", 5, ["augment", "prep/manifest.csv", "--stage", "post"]),
    ("save_recording", 5, ["augment", "raw/manifest.csv", "--stage", "pre"]),
    ("save_sample", 5, ["preprocess", "raw/manifest.csv"]),
    ("write_summary", 1, ["train", "prep/manifest.csv"]),
    ("write_summary", 1, ["train", "prep/manifest.csv", "--kfold", "2"]),
    ("write_summary", 1, ["eval", "prep/manifest.csv", "--checkpoint", "run/checkpoint.ckpt"]),
    ("write_ablation_table", 1, ["ablate", "prep/manifest.csv", "--sweep", "kernel", "--values", "2"]),
]


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize(
    "writer, n, argv", WRITE_STEPS, ids=["augment_post", "augment_pre", "preprocess", "train", "kfold", "eval", "ablate"]
)
def test_write_failure_leaves_out_as_it_was(
    workspace, checkpoint, tmp_path, monkeypatch, capsys, writer, n, argv, existing
):
    root, cfg = workspace
    out = tmp_path / "out"
    if existing:
        out.mkdir()
        (out / "keep.txt").write_text("kept")
        (out / "manifest.csv").write_text("old\n")
    before = tree_digest(out)
    _fail_on_call(monkeypatch, writer, n)
    argv = [argv[0], *(str(root / a) if "/" in a else a for a in argv[1:])]
    code = main(argv + ["--config", str(cfg), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: disk full at write {n}\n"
    assert out.exists() == existing and tree_digest(out) == before
    assert [p.name for p in tmp_path.iterdir()] == (["out"] if existing else [])


@pytest.mark.parametrize("stage, manifest", [("post", "prep"), ("pre", "raw")])
def test_augment_into_existing_out_adds_and_replaces(workspace, tmp_path, stage, manifest):
    root, cfg = workspace
    argv = ["augment", str(root / manifest / "manifest.csv"), "--stage", stage, "--config", str(cfg)]
    fresh, existing = tmp_path / "fresh", tmp_path / "existing"
    assert main(argv + ["--out", str(fresh)]) == 0
    existing.mkdir()
    (existing / "keep.txt").write_text("kept")
    (existing / "manifest.csv").write_text("old\n")
    clash = next(p.name for p in fresh.iterdir() if p.name.startswith("aug_"))
    (existing / clash).write_bytes(b"stale")
    assert main(argv + ["--out", str(existing)]) == 0
    want = dict(tree_digest(fresh), **{"keep.txt": tree_digest(existing)["keep.txt"]})
    assert tree_digest(existing) == want
    assert (existing / "keep.txt").read_text() == "kept"


def test_holdout_missing_class_fails_before_output(workspace, tmp_path, capsys):
    root, cfg = workspace
    entries = load_manifest(root / "prep" / "manifest.csv").entries
    by_label = {c: [e for e in entries if e.label == c] for c in range(3)}
    manifest = tmp_path / "manifest.csv"
    save_manifest(DatasetManifest(entries=by_label[0][:4] + by_label[1][:4] + by_label[2][:1]), manifest)
    out = tmp_path / "never"
    code = main(["train", str(manifest), "--config", str(cfg), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: class 2 absent from the training split of fold 0\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "counts, k, message",
    [
        ((4, 4, 1), "3", "class 2 absent from the training split of fold 0"),
        ((4, 4, 1), "20", "cannot split 9 samples into 20 folds"),
        ((2, 2, 2), "3", "validation split of fold 2 is empty: 3 folds exceed every class's sample count"),
    ],
    ids=["class_missing_from_training", "more_folds_than_samples", "empty_validation_fold"],
)
def test_kfold_bad_plan_fails_before_output(workspace, tmp_path, capsys, monkeypatch, counts, k, message):
    root, cfg = workspace
    entries = load_manifest(root / "prep" / "manifest.csv").entries
    by_label = {c: [e for e in entries if e.label == c] for c in range(3)}
    manifest = tmp_path / "manifest.csv"
    save_manifest(DatasetManifest(entries=[e for c, n in enumerate(counts) for e in by_label[c][:n]]), manifest)

    def no_training(*args, **kwargs):
        raise AssertionError("trained on a plan that should have been rejected")

    monkeypatch.setattr(train_mod, "train", no_training)
    out = tmp_path / "never"
    code = main(["train", str(manifest), "--config", str(cfg), "--kfold", k, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_every_layer_attention_without_blocks_fails_before_output(workspace, tmp_path, capsys):
    root, cfg = workspace
    out = tmp_path / "never"
    overrides = ["--set", "model.filters=[]", "--set", "model.attention_placement=every_layer"]
    code = main(["train", str(root / "prep" / "manifest.csv"), "--config", str(cfg), *overrides, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "every_layer needs at least one filter block" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_unverifiable_blas_pin_fails_cleanly(workspace, tmp_path, monkeypatch, capsys):
    root, cfg = workspace
    monkeypatch.setattr(train_mod, "threadpoolctl", None)
    monkeypatch.setattr(train_mod, "_openblas_thread_functions", lambda: None)
    out = tmp_path / "run"
    code = main(["train", str(root / "prep" / "manifest.csv"), "--config", str(cfg), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot pin BLAS to one thread")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("kfold", [[], ["--kfold", "2"]], ids=["holdout", "kfold"])
def test_nan_parameter_fails_cleanly(workspace, tmp_path, monkeypatch, capsys, kfold):
    root, cfg = workspace
    real_init = train_mod.init_model

    def init_with_nan(model_cfg, rng):
        params = real_init(model_cfg, rng)
        params.head_w.data[0, 0] = float("nan")
        return params

    monkeypatch.setattr(train_mod, "init_model", init_with_nan)
    out = tmp_path / "run"
    code = main(["train", str(root / "prep" / "manifest.csv"), "--config", str(cfg), *kfold, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite loss at epoch 0, batch 0")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_synth_overflow_writes_no_output_directory(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(CONFIG))
    out = tmp_path / "raw"
    code = main(["synth", "--config", str(cfg), "--set", "synth.base_amplitude=200", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: signature amplitude exceeds signed 8-bit range")
    assert len(err.strip().splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


@pytest.mark.parametrize("command", ["synth", "preprocess", "augment", "train", "kfold", "eval", "ablate"])
def test_failure_removes_the_parents_it_created(workspace, checkpoint, tmp_path, monkeypatch, capsys, command):
    """A failed staged command removes the missing parents of `--out` it
    made, and only those: an existing parent stays, and so does a created one
    that something else has written into by then."""
    root, cfg = workspace
    raw_manifest = str(root / "raw" / "manifest.csv")
    prep_manifest = str(root / "prep" / "manifest.csv")
    if command == "augment":  # every input has label 0: no donor for mix_other
        one_label = tmp_path / "one_label.csv"
        entries = [e for e in load_manifest(raw_manifest) if e.label == 0]
        save_manifest(DatasetManifest(entries=entries), one_label)
    # The first three fail on their input; the others at their last write.
    argv, writer = {
        "synth": (["synth", "--set", "synth.base_amplitude=200"], None),
        "preprocess": (["preprocess", raw_manifest, "--set", "pipeline.target_np=1500"], None),
        "augment": (
            ["augment", str(tmp_path / "one_label.csv"), "--stage", "pre", "--set", 'augment.methods=["mix_other"]'],
            None,
        ),
        "train": (["train", prep_manifest], "write_summary"),
        "kfold": (["train", prep_manifest, "--kfold", "2"], "write_summary"),
        "eval": (["eval", prep_manifest, "--checkpoint", checkpoint], "write_summary"),
        "ablate": (["ablate", prep_manifest, "--sweep", "kernel", "--values", "2"], "write_ablation_table"),
    }[command]
    if writer is not None:
        _fail_on_call(monkeypatch, writer, 1)
    argv += ["--config", str(cfg), "--out", str(tmp_path / "kept" / "deep" / "er" / "out")]
    (tmp_path / "kept").mkdir()
    assert main(argv) == 1
    assert list((tmp_path / "kept").iterdir()) == []

    real_rmtree = cli.shutil.rmtree

    def rmtree_after_a_write(*args, **kwargs):
        (tmp_path / "kept" / "deep" / "note.txt").write_text("x")
        return real_rmtree(*args, **kwargs)

    monkeypatch.setattr(cli.shutil, "rmtree", rmtree_after_a_write)
    assert main(argv) == 1
    left = sorted(str(p.relative_to(tmp_path)) for p in (tmp_path / "kept").rglob("*"))
    assert left == ["kept/deep", "kept/deep/note.txt"]
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)


@pytest.mark.parametrize(
    "override, message",
    [
        ("seed=-1", "seed must be non-negative, got -1"),
        ("train.seed=-3", "train.seed must be non-negative, got -3"),
    ],
    ids=["negative", "section_negative"],
)
def test_negative_seed_is_rejected(tmp_path, capsys, override, message):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(CONFIG))
    out = tmp_path / "raw"
    code = main(["synth", "--config", str(cfg), "--set", override, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_set_overrides_file(workspace, tmp_path):
    root, cfg = workspace
    out = tmp_path / "short"
    assert (
        main(
            [
                "train",
                str(root / "prep" / "manifest.csv"),
                "--config",
                str(cfg),
                "--set",
                "train.epochs=1",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    epochs = {line.split(",")[0] for line in lines[1:]}
    assert epochs == {"0"}


def test_seed_flag_overrides_file(workspace, tmp_path):
    root, cfg = workspace
    a, b = tmp_path / "s7", tmp_path / "s8"
    for out, seed in ((a, "7"), (b, "8")):
        assert (
            main(
                [
                    "train",
                    str(root / "prep" / "manifest.csv"),
                    "--config",
                    str(cfg),
                    "--seed",
                    seed,
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
    assert (a / "metrics.csv").read_bytes() != (b / "metrics.csv").read_bytes()
    assert json.loads((a / "summary.json").read_text())["config"]["seed"] == 7


def test_gradcheck_passes(capsys):
    assert main(["gradcheck"]) == 0
    assert "all" in capsys.readouterr().out


def test_gradcheck_takes_no_options(capsys):
    # the battery is fixed: a seed, config or override would change nothing
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_ablate_table(workspace, tmp_path):
    root, cfg = workspace
    out = tmp_path / "abl"
    assert (
        main(
            [
                "ablate",
                str(root / "prep" / "manifest.csv"),
                "--config",
                str(cfg),
                "--sweep",
                "kernel",
                "--values",
                "2,3",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    lines = (out / "ablation.csv").read_text().strip().splitlines()
    assert lines[0] == "sweep,value,train_accuracy,val_accuracy,train_loss,val_loss"
    assert len(lines) == 3


@pytest.mark.parametrize(
    "sweep, values, message",
    [
        ("kernel", "2,3,x", "kernel sweep value 'x': invalid literal for int() with base 10: 'x'"),
        ("kernel", "2,0", "kernel sweep value '0': kernel must be >= 1"),
        ("dropout", "0.1,1.5", "dropout sweep value '1.5': dropout must be in [0, 1)"),
        (
            "attention",
            "none,pre_tcn",
            "attention sweep value 'pre_tcn': "
            "attention_placement must be one of pre_tcn_only, post_tcn, every_layer, none, got 'pre_tcn'",
        ),
        (
            "augment",
            "none,dropout+mix",
            "augment sweep value 'dropout+mix': "
            "methods must all be names from dropout, mix_other, mix_same, got ['dropout', 'mix']",
        ),
        ("kernel", "2,3,02", "kernel sweep values '2' and '02' are the same point"),
        ("augment", "dropout,none,dropout", "augment sweep values 'dropout' and 'dropout' are the same point"),
        (
            "augment",
            "none,dropout+dropout",
            "augment sweep value 'dropout+dropout': methods names dropout twice; use copies_per_method for more copies",
        ),
    ],
    ids=[
        "kernel_not_int",
        "kernel_zero",
        "dropout_range",
        "attention",
        "augment",
        "kernel_repeat",
        "augment_repeat",
        "augment_method_repeat",
    ],
)
def test_bad_sweep_value_fails_before_any_training(workspace, tmp_path, monkeypatch, capsys, sweep, values, message):
    root, cfg = workspace
    trainings = []
    real_train = train_mod.train
    monkeypatch.setattr(train_mod, "train", lambda *a, **k: trainings.append(1) or real_train(*a, **k))
    out = tmp_path / "abl"
    argv = ["ablate", str(root / "prep" / "manifest.csv"), "--config", str(cfg), "--sweep", sweep, "--values", values]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert trainings == []
    assert not out.exists()


def test_unknown_sweep_is_rejected_before_anything_loads(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "load_manifest", lambda path: pytest.fail("loaded the manifest"))
    out = tmp_path / "abl"
    with pytest.raises(SystemExit) as exc:
        main(["ablate", "manifest.csv", "--sweep", "depth", "--values", "2", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --sweep: invalid choice" in err and "depth" in err
    assert all(kind in err for kind in train_mod.SWEEP_KINDS)
    assert not out.exists()


def test_missing_manifest_fails_cleanly(capsys):
    assert main(["train", "/nonexistent/manifest.csv", "--out", "/tmp/x"]) == 1
    assert "error:" in capsys.readouterr().err
