"""Training and evaluation: AdamW with decoupled decay, exponential LR decay,
mini-batch loop, stratified k-fold splits (fold 0 is the holdout split of
single runs and ablations), metrics, and ablation sweeps.

Training is bitwise deterministic for fixed (dataset, configs, seed): all
randomness comes from named sub-streams of the seed and batches reduce in a
fixed order. Results are also independent of the core count and of the BLAS
thread count:

- the tensor kernels split batches across one worker thread per usable core
  without changing any sample's float operations (see `tensor`);
- `train` and `evaluate` pin BLAS to one thread for their duration, because
  pools of different sizes may reduce in different orders. The pin uses
  threadpoolctl when it imports and sees numpy's BLAS, and otherwise the
  thread-count functions of the OpenBLAS in `numpy.libs` through ctypes. The
  count is read back after setting it and restored on exit; `BlasPinError`
  is raised when neither route can confirm one thread.
"""

from __future__ import annotations

import collections.abc
import contextlib
import ctypes
import dataclasses
import glob
import json
import os
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .augment import AugmentConfig, expand_dataset
from .dsp import PreprocessedSample
from .fields import check_fields
from .model import ModelConfig, ModelParams, init_model, model_forward
from .seeding import named_rng
from .tensor import Tensor, cross_entropy_mean

try:
    import threadpoolctl
except ImportError:
    threadpoolctl = None


class BlasPinError(RuntimeError):
    """BLAS could not be pinned to one thread, or the pin could not be read back."""


def _openblas_thread_functions() -> Optional[tuple]:
    """(get, set) thread-count functions of the OpenBLAS bundled with numpy,
    or None when there is no such library or it exports neither symbol pair."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def _single_threaded_blas():
    """Pin BLAS to one thread for the block and restore the old count after.

    Uses threadpoolctl when it imports and sees numpy's BLAS; otherwise sets
    the OpenBLAS bundled with numpy through ctypes. Either way the count is
    read back, and BlasPinError is raised when the pin cannot be verified.
    """
    if threadpoolctl is not None:
        controller = threadpoolctl.ThreadpoolController().select(user_api="blas")
        if controller.lib_controllers:
            with controller.limit(limits=1):
                counts = [c.num_threads for c in controller.lib_controllers]
                if counts != [1] * len(counts):
                    raise BlasPinError(f"BLAS thread counts read back as {counts} after pinning to 1")
                yield
            return
    functions = _openblas_thread_functions()
    if functions is None:
        raise BlasPinError(
            "cannot pin BLAS to one thread: threadpoolctl does not import or finds no BLAS, "
            "and numpy ships no OpenBLAS with a thread-count API"
        )
    get, set_ = functions
    before = get()
    set_(1)
    try:
        if get() != 1:
            raise BlasPinError(f"OpenBLAS thread count read back as {get()} after pinning to 1")
        yield
    finally:
        set_(before)


__all__ = [
    "BlasPinError",
    "TrainConfig",
    "AdamWState",
    "Metrics",
    "AblationRow",
    "SWEEP_KINDS",
    "adamw_step",
    "lr_at_epoch",
    "evaluate",
    "train",
    "holdout_split",
    "kfold_evaluate",
    "kfold_splits",
    "ablate",
    "write_metrics_csv",
    "write_confusion_csv",
    "write_summary",
    "write_ablation_table",
]


@dataclass
class TrainConfig:
    batch_size: int = 32
    epochs: int = 200
    base_lr: float = 1e-3
    lr_decay: float = 0.988  # multiplicative, per epoch
    weight_decay: float = 1e-4
    seed: int = 0
    k_folds: int = 10

    def __post_init__(self) -> None:
        check_fields(self)
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.base_lr <= 0.0:
            raise ValueError("base_lr must be positive")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be >= 0")
        if self.k_folds < 2:
            raise ValueError("k_folds must be >= 2")


@dataclass
class AdamWState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: dict[str, Tensor]) -> "AdamWState":
        return cls(
            m={k: np.zeros_like(p.data) for k, p in params.items()},
            v={k: np.zeros_like(p.data) for k, p in params.items()},
        )


def adamw_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamWState,
    lr: float,
    weight_decay: float,
) -> None:
    """Bias-corrected Adam moments plus decoupled decay.

    The decay multiplies the parameter directly (theta *= 1 - lr*wd) before
    the moment update is subtracted, so a zero gradient shrinks the weight by
    exactly that factor.
    """
    state.step += 1
    bc1 = 1.0 - state.beta1**state.step
    bc2 = 1.0 - state.beta2**state.step
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.data.shape} ({name})")
        state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * (g * g)
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        p.data = p.data * (1.0 - lr * weight_decay) - lr * (m_hat / (np.sqrt(v_hat) + state.eps))


def lr_at_epoch(cfg: TrainConfig, epoch: int) -> float:
    return cfg.base_lr * cfg.lr_decay**epoch


@dataclass
class Metrics:
    train_accuracy: list[float] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    confusion: Optional[np.ndarray] = None  # rows: true class, cols: predicted

    @property
    def final_val_accuracy(self) -> float:
        if not self.val_accuracy:
            raise ValueError("no validation history recorded")
        return self.val_accuracy[-1]


def _labels(dataset: Sequence[PreprocessedSample]) -> tuple[np.ndarray, tuple[int, ...]]:
    """The labels and the one sample shape of a non-empty, fully labelled
    dataset whose samples all share that shape, so that any batch of it
    stacks. Asks for each sample once."""
    if not dataset:
        raise ValueError("dataset is empty")
    labels, shapes = [], []
    for s in dataset:
        labels.append(s.label)
        shapes.append(s.data.shape)
    if None in labels:
        raise ValueError("all samples must be labelled")
    odd = next((shape for shape in shapes if shape != shapes[0]), None)
    if odd is not None:
        raise ValueError(f"inconsistent sample shapes: {odd} vs {shapes[0]}")
    return np.array(labels, dtype=np.int64), shapes[0]


class _Subset(collections.abc.Sequence):
    """The items of `dataset` at `idx`, in that order; each is asked of
    `dataset` on every access, so nothing is copied or held."""

    def __init__(self, dataset: Sequence[PreprocessedSample], idx: np.ndarray):
        self._dataset = dataset
        self._idx = idx

    def __len__(self) -> int:
        return len(self._idx)

    def __getitem__(self, i: int) -> PreprocessedSample:
        return self._dataset[self._idx[i]]


def _batch(dataset: Sequence[PreprocessedSample], idx) -> np.ndarray:
    """The samples at `idx`, in that order, stacked into one new array."""
    return np.stack([dataset[i].data for i in idx])


def _eval_arrays(
    params: ModelParams,
    model_cfg: ModelConfig,
    dataset: Sequence[PreprocessedSample],
    labels: np.ndarray,
    batch_size: int,
) -> tuple[float, float, np.ndarray]:
    """(accuracy, mean loss, confusion matrix) of the eval-mode model over
    `dataset` in order, `batch_size` samples at a time.

    The forwards run over `params.detached()`, which shares the parameter
    arrays but requires no grad, so no graph is recorded: each intermediate
    is freed once the next stage has replaced it, and only one batch is held
    at a time. The caller's tensors, their flags and gradients are untouched.
    """
    frozen = params.detached()
    n = len(labels)
    confusion = np.zeros((model_cfg.n_classes, model_cfg.n_classes), dtype=np.int64)
    loss_sum = 0.0
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        probs = model_forward(_batch(dataset, range(start, stop)), frozen, model_cfg, training=False)
        loss = cross_entropy_mean(probs, labels[start:stop])
        loss_sum += float(loss.data) * (stop - start)
        np.add.at(confusion, (labels[start:stop], probs.data.argmax(axis=1)), 1)
    accuracy = float(np.trace(confusion)) / n
    return accuracy, loss_sum / n, confusion


def evaluate(
    params: ModelParams,
    model_cfg: ModelConfig,
    dataset: Sequence[PreprocessedSample],
    batch_size: int = 32,
) -> tuple[float, float, np.ndarray]:
    """(accuracy, mean loss, confusion matrix) of the eval-mode model.

    Batches are stacked from the sample list in order, one at a time, and
    the forwards build no graph (see `_eval_arrays`)."""
    labels, _ = _labels(dataset)
    with _single_threaded_blas():
        return _eval_arrays(params, model_cfg, dataset, labels, batch_size)


def train(
    dataset: Sequence[PreprocessedSample],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    val_dataset: Optional[Sequence[PreprocessedSample]] = None,
) -> tuple[ModelParams, Metrics]:
    """Mini-batch AdamW training; per-epoch history plus a final confusion
    matrix when a validation set is given.

    Per epoch: seeded reshuffle, batches of `batch_size` (last one short),
    batch loss = mean per-sample cross-entropy on the pooled distribution,
    one optimizer step per batch at lr_at_epoch(). Training accuracy is
    measured on the training-mode forward passes (dropout active). A
    non-finite model output (hence loss) or parameter gradient raises
    ValueError naming the epoch and batch, both counted from 0, before the
    optimizer step. Samples of another shape than the first training sample,
    in either split, or a feature width other than `model_cfg.in_features`
    raise ValueError before the first forward.

    Memory: samples are asked of the sequences when a batch needs them and
    are not kept. The shape checks ask for each sample once; then each
    training batch is stacked in the epoch's shuffled order, and each
    validation batch in sequence order by `_eval_arrays`, which records no
    graph. A sequence that reads its samples from files (as the CLI's does)
    is thus read once per sample per use, and training holds one batch and
    its graph at a time, not the dataset.
    """
    labels, shape = _labels(dataset)
    if len(np.unique(labels)) < 2:
        raise ValueError("training requires at least 2 classes")
    val_labels, val_shape = _labels(val_dataset) if val_dataset else (None, shape)
    if val_shape != shape:
        raise ValueError(f"validation sample shape {val_shape} != training sample shape {shape}")
    if shape[-1] != model_cfg.in_features:
        raise ValueError(f"input feature width {shape[-1]} != configured {model_cfg.in_features}")

    params = init_model(model_cfg, named_rng(train_cfg.seed, "init"))
    named = params.named()
    state = AdamWState.for_params(named)
    shuffle_rng = named_rng(train_cfg.seed, "shuffle")
    dropout_rng = named_rng(train_cfg.seed, "dropout")
    metrics = Metrics()

    n = len(labels)
    with _single_threaded_blas():
        for epoch in range(train_cfg.epochs):
            started = time.perf_counter()
            lr = lr_at_epoch(train_cfg, epoch)
            order = shuffle_rng.permutation(n)
            loss_sum = 0.0
            correct = 0
            for batch, start in enumerate(range(0, n, train_cfg.batch_size)):
                idx = order[start : start + train_cfg.batch_size]
                probs = model_forward(
                    _batch(dataset, idx), params, model_cfg, training=True, rng=dropout_rng
                )
                if not np.all(np.isfinite(probs.data)):
                    raise ValueError(
                        f"non-finite loss at epoch {epoch}, batch {batch}: the model output is not finite"
                    )
                loss = cross_entropy_mean(probs, labels[idx])
                for p in named.values():
                    p.grad = None
                loss.backward()
                grads = {k: p.grad for k, p in named.items()}
                for k, g in grads.items():
                    if not np.all(np.isfinite(g)):
                        raise ValueError(f"non-finite gradient of {k} at epoch {epoch}, batch {batch}")
                adamw_step(named, grads, state, lr, train_cfg.weight_decay)
                loss_sum += float(loss.data) * len(idx)
                correct += int((probs.data.argmax(axis=1) == labels[idx]).sum())
            metrics.train_accuracy.append(correct / n)
            metrics.train_loss.append(loss_sum / n)
            if val_labels is not None:
                acc, vloss, confusion = _eval_arrays(
                    params, model_cfg, val_dataset, val_labels, train_cfg.batch_size
                )
                metrics.val_accuracy.append(acc)
                metrics.val_loss.append(vloss)
                metrics.confusion = confusion
            metrics.epoch_seconds.append(time.perf_counter() - started)
        if val_labels is not None and metrics.confusion is None:
            _, _, metrics.confusion = _eval_arrays(
                params, model_cfg, val_dataset, val_labels, train_cfg.batch_size
            )
    return params, metrics


# ---------------------------------------------------------------------------
# K-fold cross-validation


def kfold_splits(labels: Sequence[int], k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(training, validation) indices of every fold of a stratified plan:
    each class is shuffled, then dealt round-robin from fold 0, which keeps
    per-fold class counts within one sample of exact proportionality.

    Every training split is checked before returning, so a class missing
    from one raises before anything is trained or written. A class lands
    whole in one fold only when it has a single sample, and then in fold 0.
    """
    labels = np.asarray(labels)
    n = len(labels)
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > n:
        raise ValueError(f"cannot split {n} samples into {k} folds")
    classes = np.unique(labels)
    fold_of = np.empty(n, dtype=np.int64)
    for c in classes:
        idx = np.flatnonzero(labels == c)
        idx = idx[named_rng(seed, "kfold", int(c)).permutation(len(idx))]
        fold_of[idx] = np.arange(len(idx)) % k
    splits = []
    for fold in range(k):
        train_idx = np.flatnonzero(fold_of != fold)
        missing = np.setdiff1d(classes, labels[train_idx])
        if len(missing):
            raise ValueError(f"class {missing[0]} absent from the training split of fold {fold}")
        splits.append((train_idx, np.flatnonzero(fold_of == fold)))
    return splits


def holdout_split(
    dataset: Sequence[PreprocessedSample], train_cfg: TrainConfig
) -> tuple[Sequence[PreprocessedSample], Sequence[PreprocessedSample]]:
    """(training split, validation split): fold 0 of `kfold_splits` over
    `train_cfg.k_folds` folds, which raises, like `kfold_evaluate`, when a
    training split misses a class. The splits are index views of `dataset`
    that copy no sample: each item is asked of `dataset` when it is used."""
    labels, _ = _labels(dataset)
    train_idx, val_idx = kfold_splits(labels, train_cfg.k_folds, train_cfg.seed)[0]
    return _Subset(dataset, train_idx), _Subset(dataset, val_idx)


def kfold_evaluate(
    dataset: Sequence[PreprocessedSample],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    k: int = 10,
) -> tuple[list[Metrics], float]:
    """Train k models, each validated on its held-out fold; returns per-fold
    metrics and the arithmetic mean of the final validation accuracies.
    Every fold is split and checked before the first one trains: each
    training split holds every class and no validation split is empty.
    Each fold trains on index views of `dataset`, which copy no sample, so
    samples are asked of `dataset` batch by batch (see `train`)."""
    labels, _ = _labels(dataset)
    splits = kfold_splits(labels, k, train_cfg.seed)
    for fold, (_, val_idx) in enumerate(splits):
        if not len(val_idx):
            raise ValueError(
                f"validation split of fold {fold} is empty: {k} folds exceed every class's sample count"
            )
    per_fold: list[Metrics] = []
    for train_idx, val_idx in splits:
        _, metrics = train(_Subset(dataset, train_idx), model_cfg, train_cfg, _Subset(dataset, val_idx))
        per_fold.append(metrics)
    mean_accuracy = float(np.mean([m.final_val_accuracy for m in per_fold]))
    return per_fold, mean_accuracy


# ---------------------------------------------------------------------------
# Ablation sweeps


@dataclass
class AblationRow:
    sweep: str
    value: str
    train_accuracy: float
    val_accuracy: float
    train_loss: float
    val_loss: float


SWEEP_KINDS = ("kernel", "dropout", "attention", "augment")


def _sweep_point(
    sweep: str,
    value,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    augment_cfg: Optional[AugmentConfig],
) -> tuple[ModelConfig, Optional[AugmentConfig]]:
    """The model config of one sweep point, and its augmentation (None for
    none); a value that does not parse or check is refused by name."""
    try:
        if sweep == "kernel":
            return dataclasses.replace(model_cfg, kernel=int(value)), None
        if sweep == "dropout":
            return dataclasses.replace(model_cfg, dropout=float(value)), None
        if sweep == "attention":
            return dataclasses.replace(model_cfg, attention_placement=value), None
        if str(value) == "none":
            return model_cfg, None
        base = augment_cfg or AugmentConfig(seed=train_cfg.seed)
        return model_cfg, dataclasses.replace(base, methods=str(value).split("+"))
    except ValueError as exc:
        raise ValueError(f"{sweep} sweep value {value!r}: {exc}") from exc


def ablate(
    dataset: Sequence[PreprocessedSample],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    sweep: str,
    values: Sequence,
    augment_cfg: Optional[AugmentConfig] = None,
) -> list[AblationRow]:
    """Train/validate once per sweep point with everything else fixed.

    Validation is fold 0 of the stratified k-fold plan; an `augment` sweep
    expands only the training split. Values for `augment` are "none" or
    "+"-joined method names (e.g. "dropout+mix_same"). Every value is parsed
    and checked before the first point trains, and two values that parse to
    the same point are refused by name.
    """
    if sweep not in SWEEP_KINDS:
        raise ValueError(f"unknown sweep {sweep!r}, expected one of {SWEEP_KINDS}")
    points = []
    for value in values:
        point = _sweep_point(sweep, value, model_cfg, train_cfg, augment_cfg)
        for seen, seen_point in points:
            if seen_point == point:
                raise ValueError(f"{sweep} sweep values {seen!r} and {value!r} are the same point")
        points.append((value, point))
    base_train, val_set = holdout_split(dataset, train_cfg)

    rows = []
    for value, (mc, aug) in points:
        train_set = base_train if aug is None else expand_dataset(base_train, aug)
        _, metrics = train(train_set, mc, train_cfg, val_set)
        rows.append(
            AblationRow(
                sweep=sweep,
                value=str(value),
                train_accuracy=metrics.train_accuracy[-1] if metrics.train_accuracy else 0.0,
                val_accuracy=metrics.final_val_accuracy,
                train_loss=metrics.train_loss[-1] if metrics.train_loss else 0.0,
                val_loss=metrics.val_loss[-1],
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Deterministic file emission (floats via repr: shortest exact round-trip)


def write_metrics_csv(metrics: Metrics, path: str | os.PathLike) -> None:
    lines = ["epoch,split,accuracy,loss\n"]
    for epoch, (acc, loss) in enumerate(zip(metrics.train_accuracy, metrics.train_loss)):
        lines.append(f"{epoch},train,{acc!r},{loss!r}\n")
        if epoch < len(metrics.val_accuracy):
            lines.append(f"{epoch},val,{metrics.val_accuracy[epoch]!r},{metrics.val_loss[epoch]!r}\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)


def write_confusion_csv(confusion: np.ndarray, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in confusion:
            fh.write(",".join(str(int(v)) for v in row) + "\n")


def write_summary(payload: dict, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_ablation_table(rows: Sequence[AblationRow], path: str | os.PathLike) -> None:
    lines = ["sweep,value,train_accuracy,val_accuracy,train_loss,val_loss\n"]
    for r in rows:
        lines.append(
            f"{r.sweep},{r.value},{r.train_accuracy!r},{r.val_accuracy!r},"
            f"{r.train_loss!r},{r.val_loss!r}\n"
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)
