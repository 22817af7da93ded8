import contextlib
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest

import csi_tcn
from csi_tcn import tensor as T
from csi_tcn import train as train_mod
from csi_tcn.dsp import PreprocessedSample
from csi_tcn.model import ModelConfig, init_model, model_forward, receptive_field
from csi_tcn.seeding import named_rng
from csi_tcn.tensor import Tensor, cross_entropy_mean
from csi_tcn.train import (
    AdamWState,
    TrainConfig,
    adamw_step,
    ablate,
    evaluate,
    holdout_split,
    kfold_evaluate,
    kfold_splits,
    lr_at_epoch,
    train,
)

from conftest import build_dataset


def tiny_model(**overrides) -> ModelConfig:
    base = dict(
        filters=(6, 6),
        kernel=3,
        dropout=0.1,
        d_k=12,
        n_classes=3,
        in_features=12,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestAdamW:
    def _single(self, value=0.5):
        p = {"w": Tensor(np.array([value]), requires_grad=True)}
        return p, AdamWState.for_params(p)

    def test_zero_gradient_decay_identity_is_exact(self):
        params, state = self._single(0.73)
        theta = params["w"].data.copy()
        lr, wd = 0.05, 0.2
        adamw_step(params, {"w": np.zeros(1)}, state, lr, wd)
        assert params["w"].data[0] == theta[0] * (1.0 - lr * wd)

    def test_five_step_hand_trace(self):
        # independent scalar trace of the documented update rule
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        lr, wd = 0.1, 0.1
        grads = [0.3, -0.2, 0.5, -0.1, 0.4]
        theta, m, v = 0.5, 0.0, 0.0
        trace = []
        for t, g in enumerate(grads, start=1):
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * (g * g)
            m_hat = m / (1.0 - beta1**t)
            v_hat = v / (1.0 - beta2**t)
            theta = theta * (1.0 - lr * wd) - lr * (m_hat / (math.sqrt(v_hat) + eps))
            trace.append(theta)

        params, state = self._single(0.5)
        for t, g in enumerate(grads):
            adamw_step(params, {"w": np.array([g])}, state, lr, wd)
            assert params["w"].data[0] == pytest.approx(trace[t], abs=1e-12)

    def test_zero_weight_decay_reduces_to_adam(self):
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        lr = 0.01
        grads = [1.0, -2.0, 0.5, 0.25, -0.75]
        theta, m, v = -1.2, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * (g * g)
            theta = theta - lr * (m / (1.0 - beta1**t)) / (
                math.sqrt(v / (1.0 - beta2**t)) + eps
            )
        params, state = self._single(-1.2)
        for g in grads:
            adamw_step(params, {"w": np.array([g])}, state, lr, 0.0)
        assert params["w"].data[0] == pytest.approx(theta, abs=1e-12)

    def test_quadratic_descent(self):
        params, state = self._single(5.0)
        for _ in range(2000):
            g = 2.0 * params["w"].data
            adamw_step(params, {"w": g}, state, lr=0.05, weight_decay=0.0)
        assert abs(params["w"].data[0]) < 1e-3

    def test_identical_parameters_update_identically(self):
        params = {
            "a": Tensor(np.array([1.5, -2.0]), requires_grad=True),
            "b": Tensor(np.array([1.5, -2.0]), requires_grad=True),
        }
        state = AdamWState.for_params(params)
        g = np.array([0.3, -0.7])
        adamw_step(params, {"a": g, "b": g}, state, 0.01, 0.05)
        assert np.array_equal(params["a"].data, params["b"].data)

    def test_shape_mismatch_rejected(self):
        params, state = self._single()
        with pytest.raises(ValueError, match="shape"):
            adamw_step(params, {"w": np.zeros(3)}, state, 0.01, 0.0)


class TestLearningRate:
    def test_epoch_zero(self):
        assert lr_at_epoch(TrainConfig(base_lr=3e-3), 0) == 3e-3

    def test_epoch_one(self):
        assert lr_at_epoch(TrainConfig(base_lr=1.0), 1) == 0.988

    def test_epoch_ten(self):
        value = lr_at_epoch(TrainConfig(base_lr=1.0), 10)
        assert value == pytest.approx(0.8862, rel=1e-4)

    def test_strictly_decreasing(self):
        cfg = TrainConfig(base_lr=1e-3, lr_decay=0.988)
        rates = [lr_at_epoch(cfg, e) for e in range(50)]
        assert all(a > b for a, b in zip(rates, rates[1:]))


def _reference_folds(labels, k, seed):
    """The stratified deal written out: each class shuffled, then dealt to
    folds 0, 1, ... in turn."""
    buckets = [[] for _ in range(k)]
    for c in sorted(set(labels)):
        idx = np.array([i for i, label in enumerate(labels) if label == c])
        for j, i in enumerate(idx[named_rng(seed, "kfold", c).permutation(len(idx))]):
            buckets[j % k].append(int(i))
    return [sorted(b) for b in buckets]


class TestKFold:
    def test_balanced_four_sample_split(self):
        labels = np.array([0, 0, 1, 1])
        folds = [val for _, val in kfold_splits(labels, 2, 0)]
        assert sorted(len(f) for f in folds) == [2, 2]
        for fold in folds:
            assert sorted(labels[fold]) == [0, 1]

    def test_partition(self):
        labels = [i % 3 for i in range(25)]
        splits = kfold_splits(labels, 4, 1)
        joined = np.sort(np.concatenate([val for _, val in splits]))
        assert np.array_equal(joined, np.arange(25))
        for train_idx, val_idx in splits:
            assert np.array_equal(np.sort(np.concatenate([train_idx, val_idx])), np.arange(25))

    def test_stratification_within_one(self):
        labels = np.array([i % 4 for i in range(43)])
        folds = [val for _, val in kfold_splits(labels, 5, 2)]
        for c in range(4):
            counts = [int(np.sum(labels[f] == c)) for f in folds]
            assert max(counts) - min(counts) <= 1

    def test_too_many_folds_rejected(self):
        with pytest.raises(ValueError, match="^cannot split 3 samples into 4 folds$"):
            kfold_splits([0, 1, 0], 4, 0)

    def test_all_classes_in_every_training_split_when_count_at_least_k(self):
        labels = np.array([c for c in range(3) for _ in range(5)])
        for train_idx, _ in kfold_splits(labels, 5, 3):
            assert set(labels[train_idx]) == {0, 1, 2}

    def test_only_fold_0_can_miss_a_class_and_only_a_single_sample_one(self):
        # Every label sequence over 3 classes of 2..6 samples, for every k:
        # the folds are the reference deal's, and a training split misses a
        # class exactly when the class has one sample, which fold 0 holds.
        for n in range(2, 7):
            for labels in itertools.product(range(3), repeat=n):
                singles = sorted(c for c in set(labels) if labels.count(c) == 1)
                for k in range(2, n + 1):
                    ref = _reference_folds(labels, k, seed=k)
                    misses = [
                        (j, c)
                        for j, fold in enumerate(ref)
                        for c in sorted(set(labels))
                        if all(i in fold for i in range(n) if labels[i] == c)
                    ]
                    assert misses == [(0, c) for c in singles]
                    if singles:
                        message = f"^class {singles[0]} absent from the training split of fold 0$"
                        with pytest.raises(ValueError, match=message):
                            kfold_splits(labels, k, seed=k)
                    else:
                        assert [val.tolist() for _, val in kfold_splits(labels, k, seed=k)] == ref

    def test_holdout_split_is_fold_0(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            k, n_classes = int(rng.integers(2, 7)), int(rng.integers(2, 5))
            labels = rng.integers(n_classes, size=int(rng.integers(k, 40)))
            seed = int(rng.integers(1000))
            dataset = [PreprocessedSample(data=np.full((1, 2, 1), float(i)), label=int(c)) for i, c in enumerate(labels)]
            try:
                train_idx, val_idx = kfold_splits(labels, k, seed)[0]
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    holdout_split(dataset, TrainConfig(k_folds=k, seed=seed))
                continue
            train_set, val_set = holdout_split(dataset, TrainConfig(k_folds=k, seed=seed))
            assert [int(s.data[0, 0, 0]) for s in train_set] == train_idx.tolist()
            assert [int(s.data[0, 0, 0]) for s in val_set] == val_idx.tolist()

    def test_class_absent_from_training_split(self, small_dataset):
        # add one orphan class: with k=2 its single sample leaves one split
        lonely = build_dataset(classes=4, samples_per_class=1, n_p=128, seed=9)[-1]
        with pytest.raises(ValueError, match="absent"):
            kfold_evaluate(
                small_dataset + [lonely],
                tiny_model(n_classes=4),
                TrainConfig(batch_size=4, epochs=1, seed=0),
                k=2,
            )

    def test_holdout_split_rejects_a_class_missing_from_training(self):
        # kfold_splits deals each class round-robin from fold 0, so the lone
        # class-2 sample is all of its class and lands in validation.
        labels = [0, 0, 0, 0, 1, 1, 1, 1, 2]
        dataset = [PreprocessedSample(data=np.full((1, 2, 1), float(k)), label=c) for k, c in enumerate(labels)]
        with pytest.raises(ValueError, match="^class 2 absent from the training split of fold 0$"):
            holdout_split(dataset, TrainConfig(k_folds=3))
        train_set, val_set = holdout_split(dataset[:-1], TrainConfig(k_folds=3))
        assert sorted(s.label for s in train_set) == [0, 0, 1, 1]
        assert sorted(s.label for s in val_set) == [0, 0, 1, 1]

    @pytest.mark.parametrize("split", ["holdout", "kfold"])
    def test_empty_or_unlabelled_dataset_rejected(self, split):
        def run(dataset):
            if split == "holdout":
                holdout_split(dataset, TrainConfig(k_folds=2))
            else:
                kfold_evaluate(dataset, tiny_model(), TrainConfig(epochs=0), k=2)

        with pytest.raises(ValueError, match="^dataset is empty$"):
            run([])
        dataset = [PreprocessedSample(data=np.zeros((1, 2, 1)), label=c) for c in (0, 1, 0, 1)]
        dataset[2] = PreprocessedSample(data=np.zeros((1, 2, 1)), label=None)
        with pytest.raises(ValueError, match="^all samples must be labelled$"):
            run(dataset)


class TestTraining:
    def test_epochs_zero_keeps_initialization(self, small_dataset):
        cfg = tiny_model()
        tc = TrainConfig(batch_size=4, epochs=0, seed=3)
        params, metrics = train(small_dataset, cfg, tc)
        reference = init_model(cfg, named_rng(3, "init"))
        for name, p in params.named().items():
            assert np.array_equal(p.data, reference.named()[name].data)
        assert metrics.train_accuracy == [] and metrics.train_loss == []

    def test_determinism_same_seed(self, small_dataset):
        cfg = tiny_model()
        tc = TrainConfig(batch_size=4, epochs=3, seed=5)
        train_set, val_set = small_dataset[:12], small_dataset[12:]
        p1, m1 = train(train_set, cfg, tc, val_set)
        p2, m2 = train(train_set, cfg, tc, val_set)
        assert m1.train_loss == m2.train_loss
        assert m1.val_accuracy == m2.val_accuracy
        for name, p in p1.named().items():
            assert p.data.tobytes() == p2.named()[name].data.tobytes()

    def test_two_class_separable_reaches_full_accuracy(self):
        dataset = build_dataset(
            classes=2, samples_per_class=8, n_p=128, n_s=12, seed=4,
            freq_min=0.01, freq_max=0.06, profile_depth=0.4,
        )
        cfg = tiny_model(n_classes=2, dropout=0.0)
        tc = TrainConfig(batch_size=8, epochs=50, base_lr=3e-3, seed=1)
        _, metrics = train(dataset, cfg, tc)
        assert max(metrics.train_accuracy) == 1.0
        reached = next(i for i, a in enumerate(metrics.train_accuracy) if a == 1.0)
        assert reached < 50

    def test_nan_parameter_raises_with_epoch_and_batch_before_the_step(self, small_dataset, monkeypatch):
        steps = []
        real_step = train_mod.adamw_step

        def step_then_poison(params, grads, state, lr, weight_decay):
            real_step(params, grads, state, lr, weight_decay)
            steps.append(state.step)
            if state.step == 4:
                params["head.b"].data[0] = np.nan

        monkeypatch.setattr(train_mod, "adamw_step", step_then_poison)
        # 18 samples in batches of 4 make 5 batches an epoch; the NaN set
        # after step 4 (batch 3) reaches the output of batch 4
        with pytest.raises(ValueError, match=r"non-finite loss at epoch 0, batch 4"):
            train(small_dataset, tiny_model(), TrainConfig(batch_size=4, epochs=2, seed=0))
        assert steps == [1, 2, 3, 4]

    def test_nan_gradient_raises_with_epoch_and_batch_before_the_step(self, small_dataset, monkeypatch):
        real_loss = train_mod.cross_entropy_mean
        calls = []

        def loss_with_nan_gradient(probs, labels):
            loss = real_loss(probs, labels)
            calls.append(None)
            if len(calls) == 7:  # epoch 1, batch 1
                inner = loss._backward

                def backward_fn(g):
                    inner(g)
                    probs.grad = np.full_like(probs.grad, np.nan)

                loss._backward = backward_fn
            return loss

        monkeypatch.setattr(train_mod, "cross_entropy_mean", loss_with_nan_gradient)
        steps = []
        real_step = train_mod.adamw_step
        monkeypatch.setattr(train_mod, "adamw_step", lambda *a: (steps.append(None), real_step(*a)))
        with pytest.raises(ValueError, match=r"non-finite gradient of \S+ at epoch 1, batch 1"):
            train(small_dataset, tiny_model(), TrainConfig(batch_size=4, epochs=2, seed=0))
        assert len(steps) == 6

    @pytest.mark.parametrize("where", ["train", "validation", "evaluate"])
    def test_inconsistent_shapes_rejected_before_any_forward(self, small_dataset, monkeypatch, where):
        monkeypatch.setattr(train_mod, "model_forward", lambda *a, **k: pytest.fail("ran a forward"))
        train_set, val_set = list(small_dataset[:12]), list(small_dataset[12:])
        odd = train_set if where == "train" else val_set
        good = odd[-1]
        odd[-1] = PreprocessedSample(good.data[:, 1:], label=good.label)
        message = f"inconsistent sample shapes: {odd[-1].data.shape} vs {good.data.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            if where == "evaluate":
                evaluate(init_model(tiny_model(), np.random.default_rng(0)), tiny_model(), val_set)
            else:
                train(train_set, tiny_model(), TrainConfig(batch_size=4, epochs=1), val_set)

    @pytest.mark.parametrize("where", ["validation_width", "validation_steps", "both_width"])
    def test_split_mismatch_rejected_before_any_forward(self, monkeypatch, where):
        message = {
            "validation_width": "validation sample shape (2, 16, 13) != training sample shape (2, 16, 12)",
            "validation_steps": "validation sample shape (2, 15, 12) != training sample shape (2, 16, 12)",
            "both_width": "input feature width 13 != configured 12",
        }[where]
        forwards = []
        forward = train_mod.model_forward
        monkeypatch.setattr(train_mod, "model_forward", lambda *a, **k: forwards.append(1) or forward(*a, **k))
        rng = np.random.default_rng(0)

        def samples(n, steps, width):
            return [PreprocessedSample(rng.standard_normal((2, steps, width)), label=i % 3) for i in range(n)]

        train_set = samples(24, 16, 13 if where == "both_width" else 12)
        val_set = samples(6, 15 if where == "validation_steps" else 16, 12 if where == "validation_steps" else 13)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train(train_set, tiny_model(), TrainConfig(batch_size=2, epochs=1), val_set)
        assert forwards == []
        train(train_set[:6], tiny_model(in_features=train_set[0].data.shape[-1]), TrainConfig(batch_size=2, epochs=1))
        assert len(forwards) == 3

    def test_single_class_rejected(self):
        dataset = build_dataset(classes=2, samples_per_class=3, n_p=64, seed=0)
        only_zero = [s for s in dataset if s.label == 0]
        with pytest.raises(ValueError, match="2 classes"):
            train(only_zero, tiny_model(), TrainConfig(epochs=1))

    def test_confusion_matrix_invariants(self, small_dataset):
        cfg = tiny_model()
        tc = TrainConfig(batch_size=4, epochs=2, seed=8)
        train_set, val_set = small_dataset[:12], small_dataset[12:]
        _, metrics = train(train_set, cfg, tc, val_set)
        confusion = metrics.confusion
        labels = np.array([s.label for s in val_set])
        for c in range(cfg.n_classes):
            assert confusion[c].sum() == int(np.sum(labels == c))
        assert confusion.sum() == len(val_set)
        assert metrics.val_accuracy[-1] == np.trace(confusion) / len(val_set)

    def test_evaluate_matches_train_validation(self, small_dataset):
        cfg = tiny_model()
        tc = TrainConfig(batch_size=4, epochs=2, seed=8)
        train_set, val_set = small_dataset[:12], small_dataset[12:]
        params, metrics = train(train_set, cfg, tc, val_set)
        accuracy, loss, confusion = evaluate(params, cfg, val_set, batch_size=4)
        assert accuracy == metrics.val_accuracy[-1]
        assert loss == pytest.approx(metrics.val_loss[-1], abs=1e-15)
        assert np.array_equal(confusion, metrics.confusion)


class TestTrainingStep:
    """One step over all 18 samples: tiny_model's first block maps the 12
    input features to 6 channels, so it carries a residual projection."""

    def test_records_every_tensor_op(self, small_dataset, monkeypatch):
        # pre_tcn_only attention, dropout > 0, and samples longer than the
        # receptive-field window, so the input is cut to the window
        cfg = tiny_model(attention_placement="pre_tcn_only", dropout=0.1)
        assert small_dataset[0].data.shape[1] > receptive_field(cfg)
        recorded = []
        real_backward = T.backward

        def walk_then_backward(root):
            ops, stack, seen = set(), [root], set()
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    ops.add(node.op)
                    stack.extend(node._parents)
            recorded.append(ops - {"leaf"})
            real_backward(root)

        monkeypatch.setattr(T, "backward", walk_then_backward)
        train(small_dataset, cfg, TrainConfig(batch_size=len(small_dataset), epochs=1, seed=0))
        renamed = {"mean_over_axis": "mean", "dropout_layer": "dropout"}
        ops = {renamed.get(name, name) for name in T.__all__ if name not in ("Tensor", "backward", "grad_check")}
        assert len(recorded) == 1
        assert recorded[0] == ops

    @pytest.mark.parametrize("placement", ["pre_tcn_only", "post_tcn", "every_layer", "none"])
    def test_every_parameter_gets_a_finite_gradient_of_its_shape(self, small_dataset, placement):
        cfg = tiny_model(attention_placement=placement)
        params, _ = train(small_dataset, cfg, TrainConfig(batch_size=len(small_dataset), epochs=1, seed=0))
        assert any(name.endswith(".proj") for name in params.named())
        for name, p in params.named().items():
            assert isinstance(p.grad, np.ndarray) and p.grad.shape == p.shape, name
            assert np.all(np.isfinite(p.grad)), name


def _record_eval_forwards(monkeypatch, caller):
    """Wrap `train.model_forward` so every eval-mode forward checks, before
    and after it runs, that its parameters wrap the arrays of the caller's
    parameters without requiring grad, and that the caller's parameters
    still require grad and hold the same `.grad` objects. `caller()` gives
    the caller's named parameters and the `.grad` each held beforehand.
    Returns the list the eval-mode outputs are appended to."""
    real_forward = train_mod.model_forward
    outputs = []

    def check(params):
        named, grads = caller()
        for name, t in params.named().items():
            assert t is not named[name] and t.data is named[name].data and not t.requires_grad
        for name, p in named.items():
            assert p.requires_grad and p.grad is grads[name]

    def forward(x, params, cfg, training=False, rng=None):
        if not training:
            check(params)
        out = real_forward(x, params, cfg, training=training, rng=rng)
        if not training:
            check(params)
            outputs.append(out)
        return out

    monkeypatch.setattr(train_mod, "model_forward", forward)
    return outputs


class TestGraphFreeEvaluation:
    def test_evaluate_builds_no_graph_and_leaves_the_parameters(self, small_dataset, monkeypatch):
        cfg = tiny_model()
        params = init_model(cfg, np.random.default_rng(0))
        named = params.named()
        for p in named.values():
            p.grad = np.full(p.shape, 0.5)
        grads = {name: p.grad for name, p in named.items()}
        outputs = _record_eval_forwards(monkeypatch, lambda: (named, grads))
        evaluate(params, cfg, small_dataset, batch_size=4)
        assert len(outputs) == 5  # 18 samples in batches of 4
        for out in outputs:
            assert not out.requires_grad and out._parents == () and out._backward is None
        for name, p in named.items():
            assert p.requires_grad and p.grad is grads[name] and np.all(p.grad == 0.5)

    def test_train_validation_builds_no_graph_and_leaves_the_parameters(self, small_dataset, monkeypatch):
        stepped = {}
        real_step = train_mod.adamw_step

        def step(params, grads, state, lr, weight_decay):
            real_step(params, grads, state, lr, weight_decay)
            stepped["named"] = params
            stepped["grads"] = {name: p.grad for name, p in params.items()}

        monkeypatch.setattr(train_mod, "adamw_step", step)
        outputs = _record_eval_forwards(monkeypatch, lambda: (stepped["named"], stepped["grads"]))
        train_set, val_set = small_dataset[:12], small_dataset[12:]
        train(train_set, tiny_model(), TrainConfig(batch_size=4, epochs=2, seed=8), val_set)
        assert len(outputs) == 4  # 6 validation samples in batches of 4, twice
        for out in outputs:
            assert not out.requires_grad and out._parents == () and out._backward is None
        assert all(g is not None for g in stepped["grads"].values())

    @pytest.mark.parametrize("placement", ["pre_tcn_only", "post_tcn", "every_layer", "none"])
    def test_evaluate_is_bitwise_the_graph_building_forward(self, small_dataset, monkeypatch, placement):
        cfg = tiny_model(attention_placement=placement)
        params = init_model(cfg, np.random.default_rng(1))
        seen = []
        real_forward = train_mod.model_forward
        monkeypatch.setattr(train_mod, "model_forward", lambda *a, **k: seen.append(real_forward(*a, **k)) or seen[-1])
        accuracy, loss, confusion = evaluate(params, cfg, small_dataset, batch_size=4)

        # The same batches forward over the grad-requiring parameters.
        labels = np.array([s.label for s in small_dataset])
        n = len(labels)
        want_confusion = np.zeros((cfg.n_classes, cfg.n_classes), dtype=np.int64)
        loss_sum = 0.0
        for j, start in enumerate(range(0, n, 4)):
            batch = np.stack([s.data for s in small_dataset[start : start + 4]])
            probs = model_forward(batch, params, cfg, training=False)
            assert probs.requires_grad
            assert seen[j].data.tobytes() == probs.data.tobytes()
            batch_labels = labels[start : start + 4]
            loss_sum += float(cross_entropy_mean(probs, batch_labels).data) * len(batch_labels)
            np.add.at(want_confusion, (batch_labels, probs.data.argmax(axis=1)), 1)
        assert len(seen) == j + 1
        assert np.array_equal(confusion, want_confusion)
        assert accuracy == float(np.trace(want_confusion)) / n
        assert loss == loss_sum / n


class TestTrainMemory:
    @staticmethod
    def _traced_peak(*args) -> int:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train(*args)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_train_with_validation_peaks_near_one_step_not_near_a_split(self):
        # Many samples in small batches: each split is many times one step's
        # whole traced peak, so a copy of either split would show.
        cfg = tiny_model()
        rng = np.random.default_rng(0)

        def samples(n):
            return [PreprocessedSample(rng.uniform(-1.0, 1.0, (6, 256, 12)), label=i % 3) for i in range(n)]

        train_set, val_set = samples(240), samples(160)
        tc = TrainConfig(batch_size=2, epochs=1, seed=0)
        step_peak = self._traced_peak(train_set[:2], cfg, tc)
        assert sum(s.data.nbytes for s in val_set) > 5 * step_peak
        peak = self._traced_peak(train_set, cfg, tc, val_set)
        assert peak < 1.5 * step_peak, (peak, step_peak)


class TestKFoldEvaluate:
    def test_every_forward_reads_one_batch_and_every_sample_once_per_epoch(self, small_dataset, monkeypatch):
        seen = {True: [], False: []}
        real_forward = train_mod.model_forward

        def recording_forward(x, params, cfg, training=False, rng=None):
            seen[training].append(len(x))
            return real_forward(x, params, cfg, training=training, rng=rng)

        monkeypatch.setattr(train_mod, "model_forward", recording_forward)
        kfold_evaluate(small_dataset, tiny_model(), TrainConfig(batch_size=4, epochs=1, seed=2), k=3)
        # No forward ever sees more than one batch; each fold trains on its
        # training split and validates its own fold, so across the 3 folds
        # every sample is trained on twice and validated once.
        assert max(seen[True] + seen[False]) == 4
        assert sum(seen[True]) == 2 * len(small_dataset)
        assert sum(seen[False]) == len(small_dataset)

    def test_mean_is_arithmetic_mean(self, small_dataset):
        cfg = tiny_model()
        tc = TrainConfig(batch_size=4, epochs=1, seed=2)
        per_fold, mean_accuracy = kfold_evaluate(small_dataset, cfg, tc, k=3)
        assert len(per_fold) == 3
        assert mean_accuracy == pytest.approx(
            np.mean([m.final_val_accuracy for m in per_fold]), abs=1e-15
        )


class TestAblate:
    def test_single_point_is_single_run(self, small_dataset):
        cfg = tiny_model()
        tc = TrainConfig(batch_size=4, epochs=1, seed=0, k_folds=3)
        rows = ablate(small_dataset, cfg, tc, "dropout", [0.2])
        assert len(rows) == 1
        assert rows[0].sweep == "dropout" and rows[0].value == "0.2"

    def test_kernel_sweep_row_count(self, small_dataset):
        cfg = tiny_model()
        tc = TrainConfig(batch_size=4, epochs=1, seed=0, k_folds=3)
        rows = ablate(small_dataset, cfg, tc, "kernel", [2, 3, 7, 15])
        assert [r.value for r in rows] == ["2", "3", "7", "15"]

    def test_augment_sweep_expands_training_only(self, small_dataset):
        cfg = tiny_model()
        tc = TrainConfig(batch_size=4, epochs=1, seed=0, k_folds=3)
        rows = ablate(small_dataset, cfg, tc, "augment", ["none", "dropout+mix_same"])
        assert len(rows) == 2

    @pytest.mark.parametrize(
        "sweep, values, message",
        [
            ("dropout", [0.2, "0.20"], "dropout sweep values 0.2 and '0.20' are the same point"),
            ("attention", ["none", "post_tcn", "none"], "attention sweep values 'none' and 'none' are the same point"),
        ],
    )
    def test_repeated_point_refused_before_training(self, small_dataset, monkeypatch, sweep, values, message):
        monkeypatch.setattr(train_mod, "train", lambda *a, **k: pytest.fail("trained a sweep point"))
        tc = TrainConfig(batch_size=4, epochs=1, seed=0, k_folds=3)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ablate(small_dataset, tiny_model(), tc, sweep, values)

    def test_unknown_sweep_rejected(self, small_dataset):
        with pytest.raises(ValueError, match="sweep"):
            ablate(small_dataset, tiny_model(), TrainConfig(), "widths", [1])


_STOCK_STEP = """
import hashlib
import numpy as np
from csi_tcn.dsp import PreprocessedSample
from csi_tcn.model import ModelConfig
from csi_tcn.train import TrainConfig, train

cfg = ModelConfig()
rng = np.random.default_rng(3)
data = [PreprocessedSample(rng.uniform(-1.0, 1.0, (6, 375, cfg.in_features)), label=c) for c in (0, 1)]
params, _ = train(data, cfg, TrainConfig(batch_size=2, epochs=1))
digest = hashlib.sha256()
for name, p in sorted(params.named().items()):
    digest.update(name.encode())
    digest.update(p.data.tobytes())
print(digest.hexdigest())
"""


class TestBlasPin:
    def test_pin_reads_one_inside_and_restores_after(self):
        functions = train_mod._openblas_thread_functions()
        if functions is None:
            pytest.skip("numpy ships no OpenBLAS with a thread-count API here")
        get, set_ = functions
        original = get()
        set_(2)
        try:
            with train_mod._single_threaded_blas():
                assert get() == 1
            assert get() == 2
        finally:
            set_(original)

    def test_pin_that_does_not_read_back_is_an_error(self, monkeypatch):
        calls = []
        monkeypatch.setattr(train_mod, "threadpoolctl", None)
        monkeypatch.setattr(train_mod, "_openblas_thread_functions", lambda: (lambda: 4, calls.append))
        with pytest.raises(train_mod.BlasPinError, match="read back as 4"):
            with train_mod._single_threaded_blas():
                pass
        assert calls == [1, 4]

    @staticmethod
    def _fake_threadpoolctl(monkeypatch, counts, read_back=1):
        """Install a threadpoolctl whose BLAS controller holds libraries with
        `counts` threads and whose `limit` sets each to `read_back`."""
        libs = [types.SimpleNamespace(num_threads=n) for n in counts]

        class Controller:
            lib_controllers = libs

            def select(self, user_api):
                assert user_api == "blas"
                return self

            @contextlib.contextmanager
            def limit(self, limits):
                assert limits == 1
                before = [lib.num_threads for lib in libs]
                for lib in libs:
                    lib.num_threads = read_back
                try:
                    yield
                finally:
                    for lib, n in zip(libs, before):
                        lib.num_threads = n

        monkeypatch.setattr(train_mod, "threadpoolctl", types.SimpleNamespace(ThreadpoolController=Controller))
        return libs

    def test_threadpoolctl_pin_reads_one_inside_and_restores_after(self, monkeypatch):
        libs = self._fake_threadpoolctl(monkeypatch, [4, 2])
        monkeypatch.setattr(train_mod, "_openblas_thread_functions", lambda: pytest.fail("took the ctypes route"))
        with train_mod._single_threaded_blas():
            assert [lib.num_threads for lib in libs] == [1, 1]
        assert [lib.num_threads for lib in libs] == [4, 2]

    def test_threadpoolctl_pin_that_does_not_read_back_is_an_error(self, monkeypatch):
        libs = self._fake_threadpoolctl(monkeypatch, [4, 2], read_back=3)
        with pytest.raises(train_mod.BlasPinError, match=r"^BLAS thread counts read back as \[3, 3\] after pinning to 1$"):
            with train_mod._single_threaded_blas():
                pytest.fail("ran the block under an unverified pin")
        assert [lib.num_threads for lib in libs] == [4, 2]

    def test_threadpoolctl_without_blas_falls_through_to_ctypes(self, monkeypatch):
        self._fake_threadpoolctl(monkeypatch, [])
        threads = [3]
        calls = []

        def set_(n):
            calls.append(n)
            threads[0] = n

        monkeypatch.setattr(train_mod, "_openblas_thread_functions", lambda: (lambda: threads[0], set_))
        with train_mod._single_threaded_blas():
            assert threads == [1]
        assert calls == [1, 3] and threads == [3]

    def test_stock_step_independent_of_blas_threads(self):
        # One stock-shape step (T=375, 50 filters, kernel 15) on 2 samples,
        # in fresh interpreters whose OpenBLAS pools start at 1 and 2 threads.
        src = os.path.dirname(os.path.dirname(os.path.abspath(csi_tcn.__file__)))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            proc = subprocess.run(
                [sys.executable, "-c", _STOCK_STEP], env=env, capture_output=True, text=True, timeout=300
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1], "parameters depend on the BLAS thread count"
