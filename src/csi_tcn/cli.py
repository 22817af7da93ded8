"""Command-line surface: synth | preprocess | augment | train | eval |
gradcheck | ablate.

Every command is a thin composition of the library modules. All but
`gradcheck`, which runs a fixed battery and takes no options, read one JSON
config (with `--set section.key=value` overrides) and emit deterministic
files: same inputs and seed give byte-identical outputs. Wall-clock timings
go to a separate `timings.csv`, which is the one intentionally
non-reproducible artifact. Every command that writes `--out` writes
through a staging directory (`_staged`), so a failed run leaves `--out` as
it was; `train`, `eval` and `ablate` stage their files only once their work
has returned. `train`, `eval` and `ablate` read each preprocessed sample
from its file when a shape check or a batch asks for it and keep none
(`_SampleFiles`), so they hold one batch of samples, not the dataset.
`augment` checks every input's shape from its file header alone, then reads
each input, sample or raw recording, from its file when an output needs it
and keeps none (`_SampleFiles`, `_Grids`), and writes each output as it is
made, so it holds at most three inputs and one output at a time.
"""

from __future__ import annotations

import argparse
import collections.abc
import contextlib
import dataclasses
import itertools
import os
import shutil
import sys
import tempfile
from typing import Iterator, Optional, Sequence

import numpy as np

from . import __version__
from .augment import augmented
from .config import ConfigError, RunConfig, load_run_config, run_config_to_dict
from .csi_data import (
    CsiFormatError,
    CsiRecording,
    DatasetManifest,
    ManifestEntry,
    generate_synthetic,
    gate_and_trim,
    load_manifest,
    load_recording,
    load_recording_dims,
    save_manifest,
    save_recording,
)
from .dsp import PreprocessedSample, _lowpass, load_sample, load_sample_shape, preprocess, save_sample
from .gradchecks import run_battery
from .model import load_checkpoint, model_config_to_dict, save_checkpoint
from .train import (
    SWEEP_KINDS,
    BlasPinError,
    ablate,
    evaluate,
    holdout_split,
    kfold_evaluate,
    train,
    write_ablation_table,
    write_confusion_csv,
    write_metrics_csv,
    write_summary,
)

__all__ = ["main"]


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", default=None, help="JSON run configuration")
    sp.add_argument("--seed", type=int, default=None, help="global seed (overrides config)")
    sp.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config field, e.g. --set model.kernel=7 (repeatable)",
    )
    sp.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csi-tcn",
        description="WiFi-CSI interaction recognition pipeline",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic raw dataset")
    _add_common(sp)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("preprocess", help="gate/trim and run the DSP chain")
    sp.add_argument("manifest", help="raw dataset manifest")
    _add_common(sp)
    sp.set_defaults(func=cmd_preprocess)

    sp = sub.add_parser("augment", help="expand a dataset with augmentations")
    sp.add_argument("manifest", help="dataset manifest")
    sp.add_argument(
        "--stage",
        choices=("post", "pre"),
        default="post",
        help="post: preprocessed samples (default); pre: raw complex recordings",
    )
    _add_common(sp)
    sp.set_defaults(func=cmd_augment)

    sp = sub.add_parser("train", help="train a model (validates on fold 0)")
    sp.add_argument("manifest", help="preprocessed dataset manifest")
    sp.add_argument(
        "--kfold",
        type=int,
        default=None,
        metavar="K",
        help="run full k-fold cross-validation instead of a single run",
    )
    _add_common(sp)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    sp.add_argument("manifest", help="preprocessed dataset manifest")
    sp.add_argument("--checkpoint", required=True, help="model checkpoint file")
    _add_common(sp)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("gradcheck", help="finite-difference checks of all primitives")
    sp.set_defaults(func=cmd_gradcheck)

    sp = sub.add_parser("ablate", help="sweep one knob and tabulate accuracy/loss")
    sp.add_argument("manifest", help="preprocessed dataset manifest")
    sp.add_argument("--sweep", required=True, choices=SWEEP_KINDS)
    sp.add_argument(
        "--values",
        required=True,
        help="comma-separated sweep points, e.g. 2,7,15 or none,dropout,mix_same",
    )
    _add_common(sp)
    sp.set_defaults(func=cmd_ablate)
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    return load_run_config(args.config, args.overrides, args.seed)


class _SampleFiles(collections.abc.Sequence):
    """The preprocessed samples of manifest entries, or with `raw` their raw
    recordings, read from their files on each access and not kept, so a
    command holds only the ones it is using.

    Each file's grid shape is recorded by `headers`, which reads no payload,
    or else by the file's first read; a later read of another shape (the
    file changed after the shape check) raises ValueError naming the file
    and both shapes."""

    def __init__(self, entries: Sequence[ManifestEntry], raw: bool = False):
        self._entries = entries
        self._raw = raw
        self._shapes = [None] * len(entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, i: int) -> PreprocessedSample | CsiRecording:
        entry = self._entries[i]
        item = load_recording(entry.path) if self._raw else load_sample(entry.path, label=entry.label)
        self._check(i, item.data.shape)
        return item

    def headers(self) -> list[tuple[int, ...]]:
        """Every file's header fields, read and checked against the file's
        size without its payload; each file's grid shape is recorded. Raises
        ValueError naming the first file whose shape differs from the first
        file's."""
        fields = []
        for i, entry in enumerate(self._entries):
            if self._raw:
                dims = load_recording_dims(entry.path)
                n_t, n_r, n_p, n_s = dims
                shape = (n_t * n_r, n_p, n_s, 2)
            else:
                dims = shape = load_sample_shape(entry.path)
            self._check(i, shape)
            if shape != self._shapes[0]:
                raise ValueError(
                    f"inputs must share one shape: {entry.path} has {shape}, "
                    f"{self._entries[0].path} has {self._shapes[0]}"
                )
            fields.append(dims)
        return fields

    def _check(self, i: int, shape: tuple[int, ...]) -> None:
        checked = self._shapes[i]
        if checked is None:
            self._shapes[i] = shape
        elif shape != checked:
            raise ValueError(f"{self._entries[i].path} changed after its shape check: shape {shape}, was {checked}")


class _Grids(collections.abc.Sequence):
    """The data grid of each item of `items`, asked of `items` on each access."""

    def __init__(self, items: Sequence[PreprocessedSample | CsiRecording]):
        self._items = items

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i: int) -> np.ndarray:
        return self._items[i].data


def _unique_stem(path: str, taken: set[str]) -> str:
    stem = os.path.splitext(os.path.basename(path))[0]
    candidate = stem
    i = 1
    while candidate in taken:
        candidate = f"{stem}_{i}"
        i += 1
    taken.add(candidate)
    return candidate


_STAGING_MARK = ".staging-"


@contextlib.contextmanager
def _staged(out: str) -> Iterator[str]:
    """Yield a staging directory for files bound for `out`; the body writes
    each file into it under its final name.

    When the body returns, the files are renamed into `out` (created if
    missing; files of the same name are replaced, others kept), with
    `manifest.csv`, if any, last. When it raises, the staging directory is
    removed and `out` is left as it was, and so are its ancestors: any that
    this call created are removed again while they are empty. The staging
    directory sits in `out`'s parent, so every rename stays on one
    filesystem.
    """
    out = os.path.abspath(out)
    parent = os.path.dirname(out)
    created = []  # missing ancestors of `out`, deepest first
    missing = parent
    while not os.path.isdir(missing):
        created.append(missing)
        missing = os.path.dirname(missing)
    os.makedirs(parent, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=os.path.basename(out) + _STAGING_MARK, dir=parent)
    done = False
    try:
        yield stage
        os.makedirs(out, exist_ok=True)
        for name in sorted(os.listdir(stage), key=lambda n: n == "manifest.csv"):
            os.replace(os.path.join(stage, name), os.path.join(out, name))
        done = True
    finally:
        shutil.rmtree(stage, ignore_errors=True)
        if not done:
            for directory in created:
                try:
                    os.rmdir(directory)  # fails, and stops here, once one is not empty
                except OSError:
                    break


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    with _staged(args.out) as stage:
        manifest = generate_synthetic(cfg.synth, stage)
    print(
        f"wrote {len(manifest.entries)} recordings "
        f"({cfg.synth.classes} classes x {cfg.synth.samples_per_class} trials) to {args.out}"
    )
    return 0


def cmd_preprocess(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    target_np, halvings = cfg.pipeline.target_np, 1 << cfg.wavelet.levels
    if target_np % halvings != 0:
        raise ConfigError(f"pipeline.target_np {target_np} is not divisible by 2**wavelet.levels = {halvings}")
    _lowpass(cfg.filter.order, cfg.filter.cutoff)  # designed, or refused by its keys, before any recording is read
    manifest = load_manifest(args.manifest)
    taken: set[str] = set()
    discarded = 0
    entries = []
    with _staged(args.out) as stage:
        for entry in manifest:
            rec = load_recording(entry.path)
            gated = gate_and_trim(rec, cfg.pipeline.target_np)
            if gated is None:
                discarded += 1
                continue
            sample = preprocess(gated, cfg.filter, cfg.wavelet, label=entry.label)
            path = os.path.join(stage, _unique_stem(entry.path, taken) + ".csp")
            save_sample(sample, path)
            entries.append(dataclasses.replace(entry, path=path))
        if not entries:
            raise ValueError(
                f"no recording reached the {cfg.pipeline.target_np}-packet threshold"
            )
        save_manifest(DatasetManifest(entries=entries), os.path.join(stage, "manifest.csv"))
    print(f"preprocessed {len(entries)} recordings to {args.out} (discarded {discarded})")
    return 0


def cmd_augment(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    base = list(load_manifest(args.manifest))
    labels = [e.label for e in base]
    files = _SampleFiles(base, raw=args.stage == "pre")
    dims = files.headers()
    grids = _Grids(files)
    if args.stage == "post":
        suffix = ".csp"

        def write(i, grid, path):
            save_sample(PreprocessedSample(data=grid, label=labels[i]), path)

    else:
        suffix = ".csi"

        def write(i, grid, path):
            n_t, n_r, n_p, n_s = dims[i]
            save_recording(CsiRecording(n_t=n_t, n_r=n_r, n_p=n_p, n_s=n_s, data=grid), path)

    originals = ((e.path, i, grids[i]) for i, e in enumerate(base))
    expanded = (
        (f"aug_{method.value}_{copy}_{i:05d}", i, grid)
        for (method, copy, i), grid in augmented(grids, labels, cfg.augment)
    )
    taken: set[str] = set()
    entries = []
    with _staged(args.out) as stage:
        # Each input is read when an output needs it, and each output is
        # written as soon as it is made; neither is held.
        for stem, i, grid in itertools.chain(originals, expanded):
            path = os.path.join(stage, _unique_stem(stem, taken) + suffix)
            write(i, grid, path)
            entries.append(dataclasses.replace(base[i], path=path))
        save_manifest(DatasetManifest(entries=entries), os.path.join(stage, "manifest.csv"))
    print(
        f"expanded {len(base)} -> {len(entries)} samples "
        f"({', '.join(m.value for m in cfg.augment.methods)}) to {args.out}"
    )
    return 0


def _write_timings(metrics, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("epoch,seconds\n")
        for epoch, seconds in enumerate(metrics.epoch_seconds):
            fh.write(f"{epoch},{seconds:.6f}\n")


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    manifest = load_manifest(args.manifest)
    n_classes = cfg.model.n_classes
    bad = next((e.label for e in manifest if not 0 <= e.label < n_classes), None)
    if bad is not None:
        raise ValueError(f"label {bad} outside the model's classes [0, {n_classes})")
    samples = _SampleFiles(manifest.entries)

    if args.kfold is not None:
        per_fold, mean_accuracy = kfold_evaluate(samples, cfg.model, cfg.train, k=args.kfold)
        with _staged(args.out) as stage:
            for fold, metrics in enumerate(per_fold):
                write_metrics_csv(metrics, os.path.join(stage, f"fold{fold}_metrics.csv"))
            write_summary(
                {
                    "command": "train",
                    "validation_protocol": f"{args.kfold}-fold cross-validation",
                    "mean_val_accuracy": mean_accuracy,
                    "fold_val_accuracy": [m.final_val_accuracy for m in per_fold],
                    "config": run_config_to_dict(cfg),
                },
                os.path.join(stage, "summary.json"),
            )
        print(f"k-fold mean validation accuracy: {mean_accuracy:.4f}")
        return 0

    train_set, val_set = holdout_split(samples, cfg.train)
    params, metrics = train(train_set, cfg.model, cfg.train, val_set)
    summary = {
        "command": "train",
        "validation_protocol": f"holdout fold 0 of {cfg.train.k_folds}",
        "train_samples": len(train_set),
        "val_samples": len(val_set),
        "final_train_accuracy": metrics.train_accuracy[-1] if metrics.train_accuracy else None,
        "final_val_accuracy": metrics.val_accuracy[-1] if metrics.val_accuracy else None,
        "config": run_config_to_dict(cfg),
    }
    with _staged(args.out) as stage:
        save_checkpoint(os.path.join(stage, "checkpoint.ckpt"), params, cfg.model)
        write_metrics_csv(metrics, os.path.join(stage, "metrics.csv"))
        if metrics.confusion is not None:
            write_confusion_csv(metrics.confusion, os.path.join(stage, "confusion.csv"))
        _write_timings(metrics, os.path.join(stage, "timings.csv"))
        write_summary(summary, os.path.join(stage, "summary.json"))
    if metrics.val_accuracy:
        print(
            f"trained {cfg.train.epochs} epochs on {len(train_set)} samples; "
            f"validation accuracy {metrics.val_accuracy[-1]:.4f}"
        )
    else:
        print(f"trained {cfg.train.epochs} epochs on {len(train_set)} samples")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    samples = _SampleFiles(load_manifest(args.manifest).entries)
    params, model_cfg = load_checkpoint(args.checkpoint)
    accuracy, loss, confusion = evaluate(params, model_cfg, samples, cfg.train.batch_size)
    with _staged(args.out) as stage:
        write_confusion_csv(confusion, os.path.join(stage, "confusion.csv"))
        write_summary(
            {
                "command": "eval",
                "checkpoint": os.path.basename(args.checkpoint),
                "samples": len(samples),
                "accuracy": accuracy,
                "loss": loss,
                "model_config": model_config_to_dict(model_cfg),
            },
            os.path.join(stage, "summary.json"),
        )
    print(f"evaluated {len(samples)} samples: accuracy {accuracy:.4f}, loss {loss:.4f}")
    print(f"confusion matrix ({model_cfg.n_classes}x{model_cfg.n_classes}) written to "
          f"{os.path.join(args.out, 'confusion.csv')}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    rows = run_battery()
    width = max(len(r.name) for r in rows)
    failures = 0
    for r in rows:
        status = "ok" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  max_rel_err {r.error:.3e}  tol {r.tolerance:.0e}  {status}")
        failures += 0 if r.passed else 1
    if failures:
        print(f"{failures} gradient check(s) failed")
        return 1
    print(f"all {len(rows)} gradient checks passed")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    samples = _SampleFiles(load_manifest(args.manifest).entries)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ValueError("--values is empty")
    rows = ablate(samples, cfg.model, cfg.train, args.sweep, values, cfg.augment)
    with _staged(args.out) as stage:
        write_ablation_table(rows, os.path.join(stage, "ablation.csv"))
    for r in rows:
        print(
            f"{r.sweep}={r.value}: train_acc {r.train_accuracy:.4f} "
            f"val_acc {r.val_accuracy:.4f} val_loss {r.val_loss:.4f}"
        )
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CsiFormatError, BlasPinError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
