import hashlib
import json
import os

import pytest

from csi_tcn import cli
from csi_tcn import train as train_mod
from csi_tcn.cli import main
from csi_tcn.csi_data import DatasetManifest, load_manifest, save_manifest

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
    "override", ["model.layers=3", "model.dilations=[1,2]", "wavelet.family=haar", "train.shuffle=false"]
)
def test_removed_config_keys_are_unknown(workspace, tmp_path, capsys, override):
    root, cfg = workspace
    out = tmp_path / "never"
    code = main(["train", str(root / "prep" / "manifest.csv"), "--config", str(cfg), "--set", override, "--out", str(out)])
    assert code == 1
    key = override.split("=", 1)[0]
    assert capsys.readouterr().err == f"error: unknown config key: {key}\n"
    assert not out.exists()


@pytest.mark.parametrize("filters", ["[4,0,0]", "[4,0,4]"])
def test_zero_width_filters_fail_before_output(workspace, tmp_path, capsys, filters):
    root, cfg = workspace
    out = tmp_path / "never"
    code = main(
        ["train", str(root / "prep" / "manifest.csv"), "--config", str(cfg), "--set", f"model.filters={filters}", "--out", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config section 'model': filters ") and "must all be >= 1" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


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
    """Make `cli.<name>` raise OSError on its n-th call."""
    real = getattr(cli, name)
    calls = []

    def flaky(*args):
        calls.append(1)
        if len(calls) == n:
            raise OSError(f"disk full at write {n}")
        real(*args)

    monkeypatch.setattr(cli, name, flaky)


WRITE_STEPS = [
    ("save_sample", ["augment", "prep/manifest.csv", "--stage", "post"]),
    ("save_recording", ["augment", "raw/manifest.csv", "--stage", "pre"]),
    ("save_sample", ["preprocess", "raw/manifest.csv"]),
]


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("writer, argv", WRITE_STEPS)
def test_write_failure_leaves_out_as_it_was(workspace, tmp_path, monkeypatch, capsys, writer, argv, existing):
    root, cfg = workspace
    out = tmp_path / "out"
    if existing:
        out.mkdir()
        (out / "keep.txt").write_text("kept")
        (out / "manifest.csv").write_text("old\n")
    before = tree_digest(out)
    _fail_on_call(monkeypatch, writer, 5)
    code = main([argv[0], str(root / argv[1]), *argv[2:], "--config", str(cfg), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: disk full at write 5\n"
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
    "k, message",
    [
        ("3", "class 2 absent from the training split of fold 0"),
        ("20", "cannot split 9 samples into 20 folds"),
    ],
)
def test_kfold_bad_plan_fails_before_output(workspace, tmp_path, capsys, monkeypatch, k, message):
    root, cfg = workspace
    entries = load_manifest(root / "prep" / "manifest.csv").entries
    by_label = {c: [e for e in entries if e.label == c] for c in range(3)}
    manifest = tmp_path / "manifest.csv"
    save_manifest(DatasetManifest(entries=by_label[0][:4] + by_label[1][:4] + by_label[2][:1]), manifest)

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


@pytest.mark.parametrize(
    "override, message",
    [
        ("seed=1.5", "seed must be an integer, got 1.5"),
        ("seed=true", "seed must be an integer, got True"),
        ("train.seed=2.7", "train.seed must be an integer, got 2.7"),
        ("augment.seed=false", "augment.seed must be an integer, got False"),
        ('synth.seed="x"', "synth.seed must be an integer, got 'x'"),
    ],
    ids=["float", "bool", "section_float", "section_bool", "section_string"],
)
def test_non_integer_seed_is_rejected(tmp_path, capsys, override, message):
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


def test_missing_manifest_fails_cleanly(capsys):
    assert main(["train", "/nonexistent/manifest.csv", "--out", "/tmp/x"]) == 1
    assert "error:" in capsys.readouterr().err
