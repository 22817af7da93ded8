"""The benchmark's three workloads. Each drives csi_tcn only from outside:
through `csi_tcn.cli.main` or the public library functions, looked up as
module attributes at call time so that a tracer's wrappers take effect.

A workload is built from a seed and a size, sets up its inputs in `setup`
(which may run several times and must leave the same state), runs one
closed-loop operation per `iterate` call, and checks the outputs of the
last operation in `check`. Why each workload exists is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

from csi_tcn import cli, csi_data, dsp, model, train


class OperationFailed(RuntimeError):
    """A pipeline operation raised or returned a non-zero exit code."""


@dataclass
class DeskSize:
    classes: int = 12
    samples_per_class: int = 40
    n_p: int = 256
    folds: int = 2
    epochs: int = 4
    # Lowest mean fold accuracy the seed code may show at this size; see
    # README.md for how it was taken.
    accuracy_floor: float = 0.75
    warmup_classes: int = 12
    warmup_trials: int = 3


@dataclass
class StockSize:
    classes: int = 12
    train_trials: int = 2
    eval_trials: int = 1
    n_p: int = 1500
    batch: int = 8


@dataclass
class IngestSize:
    classes: int = 12
    trials: int = 6
    n_p: int = 1600
    target_np: int = 1500


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # Seconds per pipeline stage; the runner points this at a separate
        # dict while an iteration is traced.
        self.stage_seconds: dict[str, list[float]] = {}

    # -- bookkeeping --------------------------------------------------------

    def _op(self, stage: str, fn, *args, **kwargs):
        """Run one pipeline operation, time it under `stage`, and count it."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                out = fn(*args, **kwargs)
        except Exception as exc:  # any failure of the program is a failed operation
            self.failed += 1
            self.errors.append(f"{stage}: {type(exc).__name__}: {exc}")
            raise OperationFailed(stage) from exc
        self.stage_seconds.setdefault(stage, []).append(time.perf_counter() - started)
        return out

    def _cli(self, stage: str, *argv: str) -> None:
        rc = self._op(stage, cli.main, list(argv))
        if rc != 0:
            self.failed += 1
            self.errors.append(f"{stage}: csi-tcn {argv[0]} exited with {rc}")
            raise OperationFailed(stage)

    def expect(self, ok: bool, message: str) -> None:
        """Count one output check; a check that does not hold is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check: {message}")

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    def _write_config(self, cfg: dict) -> str:
        os.makedirs(self.workdir, exist_ok=True)
        path = self.path("run.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        return path

    # -- interface ----------------------------------------------------------

    # Paths under the work directory an iteration writes; `reset` removes
    # them so that every iteration writes into fresh directories, as a user's
    # first run does.
    outputs: tuple[str, ...] = ()

    def reset(self) -> None:
        for name in self.outputs:
            target = self.path(name)
            if os.path.isdir(target):
                shutil.rmtree(target)
            elif os.path.exists(target):
                os.remove(target)
        # Flush what is still dirty so that no write-back of earlier output
        # overlaps the next timed iteration.
        os.sync()

    def setup(self) -> None:
        raise NotImplementedError

    def iterate(self) -> None:
        raise NotImplementedError

    def check(self, first: bool) -> None:
        raise NotImplementedError

    def report(self, wall_median: float) -> dict[str, tuple[float, str]]:
        """The workload's own named end-to-end figures (value, unit)."""
        raise NotImplementedError


def _median(xs):
    return float(np.median(xs)) if xs else float("nan")


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------


class DeskKfold(Workload):
    """synth -> preprocess -> train --kfold K through the CLI at the
    acceptance criterion-7 config: the user's time to an accuracy."""

    name = "desk_kfold"
    outputs = ("desk_raw", "desk_prep", "desk_run")

    def __init__(self, seed: int, workdir: str, size: DeskSize | None = None):
        super().__init__(seed, workdir)
        self.size = size or DeskSize()
        self.accuracies: list[float] = []
        self._summary: bytes | None = None

    def _config(self, classes: int, trials: int) -> dict:
        s = self.size
        return {
            "seed": self.seed,
            "synth": {
                "classes": classes,
                "samples_per_class": trials,
                "n_p": s.n_p,
                "n_s": 30,
                "freq_min": 0.008,
                "freq_max": 0.045,
                "mod_depth": 0.35,
                "profile_depth": 0.3,
                "noise_amp": 2.0,
                "scale_jitter": 0.1,
                "phase_jitter": 0.3,
            },
            "pipeline": {"target_np": s.n_p},
            "model": {
                "filters": [16, 16, 16],
                "kernel": 7,
                "dropout": 0.5,
                "d_k": 30,
                "n_classes": 12,
                "in_features": 30,
            },
            "train": {"batch_size": 32, "epochs": s.epochs, "base_lr": 0.001, "k_folds": 10},
        }

    def _pipeline(self, config: str, tag: str, stage_prefix: str) -> None:
        raw, prep, run = self.path(f"{tag}_raw"), self.path(f"{tag}_prep"), self.path(f"{tag}_run")
        self._cli(f"{stage_prefix}synth", "synth", "--config", config, "--out", raw)
        self._cli(
            f"{stage_prefix}preprocess", "preprocess", os.path.join(raw, "manifest.csv"),
            "--config", config, "--out", prep,
        )
        self._cli(
            f"{stage_prefix}train", "train", os.path.join(prep, "manifest.csv"),
            "--config", config, "--kfold", str(self.size.folds), "--out", run,
        )

    def setup(self) -> None:
        # A small run of the same commands lets lazy initialisation finish
        # before the timed iterations.
        s = self.size
        os.makedirs(self.workdir, exist_ok=True)
        warm = self.path("warmup.json")
        cfg = self._config(s.warmup_classes, s.warmup_trials)
        cfg["train"]["epochs"] = 1
        with open(warm, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        self._pipeline(warm, "warmup", "setup_")
        self.config = self._write_config(self._config(s.classes, s.samples_per_class))

    def iterate(self) -> None:
        self._pipeline(self.config, "desk", "")

    def check(self, first: bool) -> None:
        summary_path = self.path("desk_run", "summary.json")
        blob = _read(summary_path)
        summary = json.loads(blob)
        acc = float(summary["mean_val_accuracy"])
        folds = summary["fold_val_accuracy"]
        self.accuracies.append(acc)
        self.expect(len(folds) == self.size.folds, f"{len(folds)} fold accuracies, expected {self.size.folds}")
        self.expect(
            acc >= self.size.accuracy_floor,
            f"k-fold accuracy {acc:.4f} below the floor {self.size.accuracy_floor}",
        )
        if first:
            self._summary = blob
        else:
            self.expect(blob == self._summary, "summary.json differs between identical iterations")

    def report(self, wall_median: float):
        return {
            "time_to_accuracy_s": (wall_median, "s"),
            "kfold_accuracy": (self.accuracies[-1] if self.accuracies else float("nan"), "ratio"),
        }


# ---------------------------------------------------------------------------


class StockTrain(Workload):
    """A few batches of training at the stock model shape, then a checkpoint
    round trip and evaluation of the reloaded model."""

    name = "stock_train"
    outputs = ("stock.ckpt",)

    def __init__(self, seed: int, workdir: str, size: StockSize | None = None):
        super().__init__(seed, workdir)
        self.size = size or StockSize()
        self.model_cfg = model.ModelConfig()
        self.train_cfg = train.TrainConfig(batch_size=self.size.batch, epochs=1, seed=seed)
        self._first: tuple | None = None

    def setup(self) -> None:
        s = self.size
        spec = csi_data.SyntheticSpec(
            classes=s.classes,
            samples_per_class=s.train_trials + s.eval_trials,
            n_p=s.n_p,
            seed=self.seed,
            scale_jitter=0.1,
            phase_jitter=0.3,
        )
        filt, wav = dsp.FilterSpec(), dsp.WaveletSpec()
        self.train_set, self.eval_set = [], []
        for c in range(s.classes):
            for trial in range(spec.samples_per_class):
                rec = self._op("setup_synth", csi_data.synthesize_recording, spec, c, trial)
                gated = self._op("setup_gate", csi_data.gate_and_trim, rec, s.n_p)
                sample = self._op("setup_preprocess", dsp.preprocess, gated, filt, wav, label=c)
                (self.train_set if trial < s.train_trials else self.eval_set).append(sample)
        os.makedirs(self.workdir, exist_ok=True)
        self.ckpt = self.path("stock.ckpt")

    def iterate(self) -> None:
        params, metrics = self._op("train", train.train, self.train_set, self.model_cfg, self.train_cfg)
        self._op("checkpoint_save", model.save_checkpoint, self.ckpt, params, self.model_cfg)
        loaded, cfg = self._op("checkpoint_load", model.load_checkpoint, self.ckpt, self.model_cfg)
        result = self._op("eval", train.evaluate, loaded, cfg, self.eval_set, self.size.batch)
        self._last = (params, metrics, loaded, result)

    def check(self, first: bool) -> None:
        params, metrics, loaded, (acc, loss, confusion) = self._last
        train_loss = metrics.train_loss[-1] if metrics.train_loss else float("nan")
        self.expect(math.isfinite(train_loss), f"training loss {train_loss} is not finite")
        self.expect(math.isfinite(loss), f"evaluation loss {loss} is not finite")
        self.expect(
            int(confusion.sum()) == len(self.eval_set),
            f"confusion matrix counts {int(confusion.sum())} of {len(self.eval_set)} samples",
        )
        ckpt = _read(self.ckpt)
        if not first:
            first_ckpt, first_result = self._first
            self.expect(ckpt == first_ckpt, "checkpoint bytes differ between identical iterations")
            self.expect(
                (acc, loss) == first_result[:2] and np.array_equal(confusion, first_result[2]),
                "evaluation differs between identical iterations",
            )
            return
        self._first = (ckpt, (acc, loss, confusion))
        batch = np.stack([s.data for s in self.eval_set[: self.size.batch]])
        probs = model.model_forward(batch, loaded, self.model_cfg, training=False).data
        self.expect(
            bool(np.all(np.isfinite(probs))) and bool(np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)),
            "evaluation probability rows do not sum to 1",
        )
        same = all(
            np.array_equal(a.data, b.data)
            for a, b in zip(params.named().values(), loaded.named().values())
        )
        self.expect(same, "reloaded checkpoint parameters differ from the trained ones")
        acc0, loss0, confusion0 = train.evaluate(params, self.model_cfg, self.eval_set, self.size.batch)
        self.expect(
            (acc0, loss0) == (acc, loss) and np.array_equal(confusion0, confusion),
            "reloaded checkpoint does not evaluate identically to the trained model",
        )

    def report(self, wall_median: float):
        n_train, n_eval = len(self.train_set), len(self.eval_set)
        return {
            "train_samples_per_s": (n_train / _median(self.stage_seconds.get("train")), "1/s"),
            "eval_samples_per_s": (n_eval / _median(self.stage_seconds.get("eval")), "1/s"),
        }


# ---------------------------------------------------------------------------


class Ingest(Workload):
    """preprocess (gate/trim, DSP, CSP1 writes) and both augment stages
    through the CLI on raw recordings longer than the gate; no model."""

    name = "ingest"
    outputs = ("prep", "aug_post", "aug_pre")

    def __init__(self, seed: int, workdir: str, size: IngestSize | None = None):
        super().__init__(seed, workdir)
        self.size = size or IngestSize()
        self._manifests: tuple | None = None

    @property
    def n_recordings(self) -> int:
        return self.size.classes * self.size.trials

    def setup(self) -> None:
        s = self.size
        spec = csi_data.SyntheticSpec(
            classes=s.classes, samples_per_class=s.trials, n_p=s.n_p, seed=self.seed,
            scale_jitter=0.1, phase_jitter=0.3,
        )
        self.raw = self.path("raw")
        self._op("setup_synth", csi_data.generate_synthetic, spec, self.raw)
        self.config = self._write_config(
            {"seed": self.seed, "pipeline": {"target_np": s.target_np}, "augment": {"copies_per_method": 1}}
        )

    def iterate(self) -> None:
        raw_manifest = os.path.join(self.raw, "manifest.csv")
        self._cli("preprocess", "preprocess", raw_manifest, "--config", self.config, "--out", self.path("prep"))
        self._cli(
            "augment_post", "augment", self.path("prep", "manifest.csv"), "--stage", "post",
            "--config", self.config, "--out", self.path("aug_post"),
        )
        self._cli(
            "augment_pre", "augment", raw_manifest, "--stage", "pre",
            "--config", self.config, "--out", self.path("aug_pre"),
        )

    def _labels_kept(self, base: list, expanded: list, what: str) -> None:
        """Originals come first in order; each copy `aug_<method>_<copy>_<index>`
        keeps the label of original <index>."""
        n = len(base)
        ok = len(expanded) == 4 * n
        self.expect(ok, f"{what}: {len(expanded)} entries, expected 4 x {n}")
        if not ok:
            return
        labels = [e.label for e in base]
        bad = [e.path for e, label in zip(expanded, labels) if e.label != label]
        for e in expanded[n:]:
            index = int(os.path.splitext(os.path.basename(e.path))[0].rsplit("_", 1)[1])
            if e.label != labels[index]:
                bad.append(e.path)
        self.expect(not bad, f"{what}: {len(bad)} entries changed label, e.g. {bad[:1]}")

    def check(self, first: bool) -> None:
        s = self.size
        manifests = tuple(
            _read(self.path(d, "manifest.csv")) for d in ("prep", "aug_post", "aug_pre")
        )
        if not first:
            self.expect(manifests == self._manifests, "manifests differ between identical iterations")
            return
        self._manifests = manifests
        raw = list(csi_data.load_manifest(os.path.join(self.raw, "manifest.csv")))
        prep = list(csi_data.load_manifest(self.path("prep", "manifest.csv")))
        post = list(csi_data.load_manifest(self.path("aug_post", "manifest.csv")))
        pre = list(csi_data.load_manifest(self.path("aug_pre", "manifest.csv")))
        self.expect(
            [e.label for e in prep] == [e.label for e in raw],
            f"preprocess kept {len(prep)} of {len(raw)} recordings or changed labels",
        )
        expected = (6, s.target_np // 4, 30)
        scratch = self.path("roundtrip.csp")
        bad_shape, bad_trip = [], []
        for e in prep:
            sample = dsp.load_sample(e.path)
            if sample.data.shape != expected or not np.all(np.isfinite(sample.data)):
                bad_shape.append(e.path)
            dsp.save_sample(sample, scratch)
            if _read(scratch) != _read(e.path):
                bad_trip.append(e.path)
        self.expect(not bad_shape, f"{len(bad_shape)} preprocessed tensors are not finite {expected}")
        self.expect(not bad_trip, f"{len(bad_trip)} CSP1 files do not round-trip bit-exactly")
        self._labels_kept(prep, post, "augment --stage post")
        self._labels_kept(raw, pre, "augment --stage pre")
        bad_post = [
            e.path for e in post
            if (d := dsp.load_sample(e.path).data).shape != expected or not np.all(np.isfinite(d))
        ]
        self.expect(not bad_post, f"{len(bad_post)} augmented tensors are not finite {expected}")
        raw_shape = (6, s.n_p, 30, 2)
        bad_pre = [e.path for e in pre if csi_data.load_recording(e.path).data.shape != raw_shape]
        self.expect(not bad_pre, f"{len(bad_pre)} augmented recordings are not {raw_shape}")

    def report(self, wall_median: float):
        n = self.n_recordings
        return {
            "ingest_recordings_per_s": (n / _median(self.stage_seconds.get("preprocess")), "1/s"),
            "augment_samples_per_s": (4 * n / _median(self.stage_seconds.get("augment_post")), "1/s"),
            "augment_raw_recordings_per_s": (4 * n / _median(self.stage_seconds.get("augment_pre")), "1/s"),
        }


WORKLOADS = {w.name: w for w in (DeskKfold, StockTrain, Ingest)}
