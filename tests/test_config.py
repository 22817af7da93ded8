"""The config field rule seen from the command line: every settable key, set
to a value of a kind it does not take, is refused by name before any output,
and a checkpoint header is held to the same rule."""

import json
import struct

import numpy as np
import pytest

from csi_tcn.cli import main
from csi_tcn.config import RunConfig, run_config_to_dict
from csi_tcn.model import ModelConfig, init_model, save_checkpoint

# The kind of value each key takes, written out by hand rather than read from
# the annotations the rule reads.
INTEGER = "an integer"
NUMBER = "a number"
PLACEMENT = "one of pre_tcn_only, post_tcn, every_layer, none"
WIDTHS = "integers"  # a list of
METHODS = "names from dropout, mix_other, mix_same"  # a list of

KINDS = {
    "seed": INTEGER,
    **{
        f"synth.{name}": INTEGER
        for name in ("classes", "samples_per_class", "n_t", "n_r", "n_p", "n_s", "seed")
    },
    **{
        f"synth.{name}": NUMBER
        for name in (
            "freq_min",
            "freq_max",
            "mod_depth",
            "profile_depth",
            "base_amplitude",
            "noise_amp",
            "scale_jitter",
            "phase_jitter",
        )
    },
    "filter.order": INTEGER,
    "filter.cutoff": NUMBER,
    "wavelet.levels": INTEGER,
    "pipeline.target_np": INTEGER,
    "augment.dropout_lambda_max": NUMBER,
    "augment.mix_epsilon_max": NUMBER,
    "augment.methods": METHODS,
    "augment.copies_per_method": INTEGER,
    "augment.seed": INTEGER,
    "model.filters": WIDTHS,
    "model.kernel": INTEGER,
    "model.dropout": NUMBER,
    "model.attention_placement": PLACEMENT,
    "model.d_k": INTEGER,
    "model.n_classes": INTEGER,
    "model.in_features": INTEGER,
    "train.batch_size": INTEGER,
    "train.epochs": INTEGER,
    "train.base_lr": NUMBER,
    "train.lr_decay": NUMBER,
    "train.weight_decay": NUMBER,
    "train.seed": INTEGER,
    "train.k_folds": INTEGER,
}

# Wrong values for each kind, and what the refusal says of them.
NOT_A_LIST = [1.5, True, "x", None]
WRONG = {
    INTEGER: [(v, f"must be {INTEGER}") for v in (1.5, True, "x", None, [1, 2])],
    NUMBER: [(v, f"must be {NUMBER}") for v in (True, "x", None, [1, 2])],
    PLACEMENT: [(v, f"must be {PLACEMENT}") for v in (1.5, True, "x", None, [1, 2])],
    WIDTHS: [(v, f"must be a list of {WIDTHS}") for v in NOT_A_LIST]
    + [(v, f"must all be {WIDTHS}") for v in ([1.5], [True], ["x"], [None], [[1, 2]], [4, 4.0])],
    METHODS: [(v, f"must be a list of {METHODS}") for v in NOT_A_LIST]
    + [(v, f"must all be {METHODS}") for v in ([1, 2], ["x"], [None], [True], ["dropout", "mix"])],
}

CASES = [(key, value, must) for key, kind in KINDS.items() for value, must in WRONG[kind]]

SMALL = {
    "synth": {"classes": 2, "samples_per_class": 2, "n_p": 64, "n_s": 4},
    "pipeline": {"target_np": 64},
    "model": {"filters": [3], "kernel": 3, "d_k": 4, "n_classes": 2, "in_features": 4},
    "train": {"batch_size": 2, "epochs": 1, "k_folds": 2},
}


def test_table_covers_every_settable_key():
    defaults = run_config_to_dict(RunConfig())
    keys = ["seed"] + [f"{s}.{k}" for s, values in defaults.items() if s != "seed" for k in values]
    assert sorted(KINDS) == sorted(keys) and len(keys) == 39


def _expected(key: str, value, must: str) -> str:
    # Seeds are checked by their dotted key before they fan out; every other
    # key is checked by its section.
    if key == "seed" or key.endswith(".seed"):
        return f"error: {key} {must}, got {value!r}\n"
    section, name = key.split(".")
    return f"error: invalid config section '{section}': {name} {must}, got {value!r}\n"


@pytest.mark.parametrize("key, value, must", CASES, ids=[f"{k}={json.dumps(v)}" for k, v, _ in CASES])
def test_wrong_kind_is_refused_by_name(tmp_path, capsys, key, value, must):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(SMALL))
    out = tmp_path / "raw"
    code = main(["synth", "--config", str(cfg), "--set", f"{key}={json.dumps(value)}", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [err.rstrip("\n")]
    assert err == _expected(key, value, must)
    assert not out.exists()


@pytest.mark.parametrize("section", [5, "ab", [["kernel", 3]]], ids=["number", "string", "pairs"])
def test_section_that_is_not_an_object_is_refused_by_name(tmp_path, capsys, section):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": section}))
    out = tmp_path / "raw"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: config section 'model' must be an object\n"
    assert not out.exists()


def test_checkpoint_header_is_held_to_the_rule(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(SMALL))
    common = ["--config", str(cfg_path)]
    assert main(["synth", *common, "--out", str(tmp_path / "raw")]) == 0
    assert main(["preprocess", str(tmp_path / "raw" / "manifest.csv"), *common, "--out", str(tmp_path / "prep")]) == 0

    model_cfg = ModelConfig(**SMALL["model"])
    ckpt = tmp_path / "bad.ckpt"
    save_checkpoint(ckpt, init_model(model_cfg, np.random.default_rng(0)), model_cfg)
    blob = ckpt.read_bytes()
    (n,) = struct.unpack("<I", blob[6:10])
    header = json.loads(blob[10 : 10 + n])
    header["kernel"] = 3.0
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    ckpt.write_bytes(blob[:6] + struct.pack("<I", len(new)) + new + blob[10 + n :])

    capsys.readouterr()
    out = tmp_path / "eval"
    argv = ["eval", str(tmp_path / "prep" / "manifest.csv"), "--checkpoint", str(ckpt), "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: kernel must be an integer, got 3.0\n"
    assert not out.exists()
