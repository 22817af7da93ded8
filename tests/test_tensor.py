import math
import subprocess
import sys
import threading
import time
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_reference
from attention_reference import lower_triangular_mask, reference_attention
from csi_tcn import tensor as T
from csi_tcn.gradchecks import _weighted_sum
from csi_tcn.tensor import Tensor, grad_check


def naive_causal_conv(x, w, bias, dilation):
    """Direct-loop oracle for the convolution primitive."""
    c_out, c_in, k = w.shape
    t_len = x.shape[-1]
    pad = (k - 1) * dilation
    xp = np.concatenate([np.zeros((c_in, pad)), x], axis=-1)
    y = np.zeros((c_out, t_len))
    for o in range(c_out):
        for t in range(t_len):
            acc = 0.0 if bias is None else bias[o]
            for c in range(c_in):
                for kk in range(k):
                    acc += w[o, c, kk] * xp[c, t + kk * dilation]
            y[o, t] = acc
    return y


class TestCausalConv:
    def test_simple_example(self):
        y = T.causal_conv1d(Tensor([[[1.0, 2.0, 3.0]]]), Tensor([[[1.0, 1.0]]]), Tensor([0.0]), 1)
        assert np.array_equal(y.data, [[[1.0, 3.0, 5.0]]])

    def test_identity_kernel(self):
        x = np.random.default_rng(0).standard_normal((3, 10))
        w = np.zeros((3, 3, 5))
        for c in range(3):
            w[c, c, 4] = 1.0  # current-sample tap
        y = T.causal_conv1d(Tensor(x[None]), Tensor(w), Tensor(np.zeros(3)), 1)
        assert np.array_equal(y.data[0], x)

    def test_left_pad_of_four(self):
        # kernel 5, dilation 1: the first outputs only see the few real samples
        x = np.ones((1, 8))
        w = np.ones((1, 1, 5))
        y = T.causal_conv1d(Tensor(x[None]), Tensor(w), Tensor(np.zeros(1)), 1).data[0, 0]
        assert np.array_equal(y, [1, 2, 3, 4, 5, 5, 5, 5])

    @pytest.mark.parametrize("dilation", [1, 2, 3])
    @pytest.mark.parametrize("kernel", [1, 2, 5])
    def test_matches_naive_oracle(self, kernel, dilation):
        rng = np.random.default_rng(kernel * 10 + dilation)
        x = rng.standard_normal((3, 12))
        w = rng.standard_normal((4, 3, kernel))
        b = rng.standard_normal(4)
        y = T.causal_conv1d(Tensor(x[None]), Tensor(w), Tensor(b), dilation)
        assert np.allclose(y.data[0], naive_causal_conv(x, w, b, dilation), atol=1e-12)

    @pytest.mark.parametrize("dilation", [1, 2, 4])
    def test_length_preserved_and_causal(self, dilation):
        rng = np.random.default_rng(dilation)
        x = rng.standard_normal((2, 20))
        w = rng.standard_normal((2, 2, 5))
        b = rng.standard_normal(2)
        base = T.causal_conv1d(Tensor(x[None]), Tensor(w), Tensor(b), dilation).data[0]
        assert base.shape == (2, 20)
        for t_perturb in (5, 12, 19):
            poked = x.copy()
            poked[:, t_perturb] += 3.0
            out = T.causal_conv1d(Tensor(poked[None]), Tensor(w), Tensor(b), dilation).data[0]
            # positions strictly before the perturbation are bitwise unchanged
            assert np.array_equal(out[:, :t_perturb], base[:, :t_perturb])
            assert np.any(out[:, t_perturb] != base[:, t_perturb])

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 3, 9))
        w = rng.standard_normal((2, 3, 3))
        b = rng.standard_normal(2)
        batched = T.causal_conv1d(Tensor(x), Tensor(w), Tensor(b), 2).data
        for n in range(4):
            single = T.causal_conv1d(Tensor(x[n : n + 1]), Tensor(w), Tensor(b), 2).data[0]
            assert np.allclose(batched[n], single, atol=1e-12)

    def test_shape_errors(self):
        x, b = Tensor(np.ones((1, 2, 5))), Tensor(np.zeros(1))
        with pytest.raises(ValueError, match="channels"):
            T.causal_conv1d(x, Tensor(np.ones((1, 3, 2))), b, 1)
        with pytest.raises(ValueError, match="dilation"):
            T.causal_conv1d(x, Tensor(np.ones((1, 2, 2))), b, 0)
        with pytest.raises(ValueError, match="steps"):
            T.causal_conv1d(x, Tensor(np.ones((1, 2, 2))), b, 1, steps=6)

    @pytest.mark.parametrize(
        "t_len, k, dilation, steps",
        [
            (20, 3, 2, 1),  # the last output alone, no pad read
            (20, 3, 2, 7),
            (9, 3, 2, 7),  # the kept outputs reach 2 steps into the pad
            (12, 5, 4, 12),  # every output, as without `steps`
            (6, 1, 1, 3),  # k = 1
            (5, 4, 3, 2),  # the reach (9) exceeds T
        ],
    )
    def test_steps_are_the_last_columns_of_the_full_output(self, t_len, k, dilation, steps):
        rng = np.random.default_rng(t_len * 100 + k * 10 + steps)
        arrays = [rng.standard_normal((3, 2, t_len)), rng.standard_normal((4, 2, k)), rng.standard_normal(4)]
        coeffs = rng.standard_normal((3, 4, steps))
        padded = np.concatenate([np.zeros((3, 4, t_len - steps)), coeffs], axis=-1)
        results = []
        for kept, c in ((steps, coeffs), (None, padded)):
            x, w, b = (Tensor(a.copy(), requires_grad=True) for a in arrays)
            out = T.causal_conv1d(x, w, b, dilation, steps=kept)
            _weighted_sum(out, c).backward()
            results.append((out.data[..., -steps:], x.grad, w.grad, b.grad))
        for ours, full, name in zip(*results, ("output", "x.grad", "w.grad", "b.grad")):
            assert ours.shape == full.shape, name
            assert np.max(np.abs(ours - full)) <= 1e-13 * max(np.max(np.abs(full)), 1.0), name

    def test_weight_gradient_keeps_one_tap_of_sample_products(self):
        # Stock 50 -> 50 block, k = 15, batch 48, windowed to 85 outputs. The
        # parent kept every tap's per-sample products: 13.7 MiB at once.
        rng = np.random.default_rng(15)
        n, c, k, steps = 48, 50, 15, 85
        x = Tensor(rng.standard_normal((n, c, steps + k - 1)), requires_grad=True)
        w = Tensor(rng.standard_normal((c, c, k)), requires_grad=True)
        b = Tensor(np.zeros(c), requires_grad=True)
        out = T.causal_conv1d(x, w, b, 1, steps=steps)
        g = rng.standard_normal(out.shape)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out._backward(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        one_tap = n * c * c * 8
        assert peak <= x.data.nbytes + 2 * one_tap, f"backward peaks at {peak / one_tap:.1f} taps of products"


class TestLinear:
    def test_identity(self):
        x = np.random.default_rng(0).standard_normal((4, 3))
        y = T.linear(Tensor(x), Tensor(np.eye(3)), Tensor(np.zeros(3)))
        assert np.array_equal(y.data, x)

    def test_zero_weight_broadcasts_bias(self):
        b = np.array([1.0, -2.0])
        y = T.linear(Tensor(np.ones((5, 3))), Tensor(np.zeros((2, 3))), Tensor(b))
        assert np.array_equal(y.data, np.tile(b, (5, 1)))

    def test_matches_scalar_loops(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3))
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(4)
        y = T.linear(Tensor(x), Tensor(w), Tensor(b)).data
        for i in range(2):
            for o in range(4):
                expected = b[o] + sum(x[i, j] * w[o, j] for j in range(3))
                assert abs(y[i, o] - expected) < 1e-12


class TestSoftmax:
    def test_uniform_pair(self):
        y = T.softmax_rows(Tensor([0.0, 0.0]))
        assert np.allclose(y.data, [0.5, 0.5], atol=1e-15)

    def test_neg_inf_gets_zero(self):
        y = T.softmax_rows(Tensor([1.7, -np.inf]))
        assert np.array_equal(y.data, [1.0, 0.0])

    def test_all_neg_inf_rejected(self):
        with pytest.raises(ValueError, match="-inf"):
            T.softmax_rows(Tensor([[0.0, 1.0], [-np.inf, -np.inf]]))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one(self, row):
        y = T.softmax_rows(Tensor([row]))
        assert abs(y.data.sum() - 1.0) <= 1e-12
        assert np.all(y.data >= 0.0)


class TestMask:
    """The test-local reference mask (the composed chain's masking step)."""

    def test_one_by_one_unchanged(self):
        y = lower_triangular_mask(Tensor([[3.5]]))
        assert np.array_equal(y.data, [[3.5]])

    def test_neg_inf_mode(self):
        y = lower_triangular_mask(Tensor([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(y.data, [[1.0, -np.inf], [3.0, 4.0]])

    def test_offset_block(self):
        # two query rows at the last two of three steps
        y = lower_triangular_mask(Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        assert np.array_equal(y.data, [[1.0, 2.0, -np.inf], [4.0, 5.0, 6.0]])

    def test_more_rows_than_columns_rejected(self):
        with pytest.raises(ValueError):
            lower_triangular_mask(Tensor(np.ones((3, 2))))


def attention_weights(scores):
    """Weights of `causal_attention` on given W x T scores: q = scores, k = I
    and v = I make q k^T = scores and the output equal to the weights."""
    eye = Tensor(np.eye(np.shape(scores)[-1])[None])
    return T.causal_attention(Tensor(np.asarray(scores)[None]), eye, eye, 1.0).data[0]


def softmax(row):
    e = np.exp(np.asarray(row) - np.max(row))
    return e / e.sum()


# Input kinds for the attention bitwise tests. Post-TCN attention reads
# ReLU features, about half of them exact zeros, so zeros get their own kind.
ATTENTION_INPUTS = ["normal", "signed_zeros"]


def attention_arrays(rng, shapes, inputs):
    """Standard normal q, k and v. With "signed_zeros" about half of the
    entries become +0.0 or -0.0 and the first query row is all -0.0, so
    scores tie exactly and zero products carry both signs."""
    arrays = [rng.standard_normal(shape) for shape in shapes]
    if inputs == "signed_zeros":
        for a in arrays:
            zero = rng.random(a.shape) < 0.5
            a[zero] = np.copysign(0.0, a[zero])
        arrays[0][..., :1, :] = -0.0
    return arrays


class TestCausalAttention:
    def test_one_step_returns_value(self):
        v = np.array([[[0.5, -2.0, 3.0]]])
        out = T.causal_attention(Tensor([[[1.3]]]), Tensor([[[-0.7]]]), Tensor(v), 0.5)
        assert np.array_equal(out.data, v)

    def test_neg_inf_weights(self):
        w = attention_weights([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(w[0], [1.0, 0.0])
        assert np.allclose(w[1], softmax([3.0, 4.0]), rtol=0.0, atol=1e-15)

    def test_more_query_rows_than_keys_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            T.causal_attention(Tensor(np.ones((1, 4, 3))), Tensor(np.ones((1, 3, 3))), Tensor(np.ones((1, 3, 4))), 1.0)

    def test_keys_and_values_must_share_their_steps(self):
        with pytest.raises(ValueError, match="steps"):
            T.causal_attention(Tensor(np.ones((1, 2, 3))), Tensor(np.ones((1, 3, 3))), Tensor(np.ones((1, 4, 4))), 1.0)

    @pytest.mark.parametrize("inputs", ATTENTION_INPUTS)
    def test_square_call_bitwise_equal_to_parent(self, inputs):
        # W = T is the parent's square causal attention, bit for bit
        rng = np.random.default_rng(31)
        arrays = attention_arrays(rng, [(3, 9, 4), (3, 9, 4), (3, 9, 5)], inputs)
        ours = _forward_backward(lambda q, k, v: T.causal_attention(q, k, v, 0.7), arrays, [True] * 3, seed=3)
        theirs = _forward_backward(
            lambda q, k, v: kernel_reference.causal_attention(q, k, v, 0.7), arrays, [True] * 3, seed=3
        )
        _assert_same_bits(ours, theirs)

    @pytest.mark.parametrize("rows, t_len", [(1, 1), (1, 6), (3, 6), (6, 6)])
    def test_query_row_sees_exactly_keys_up_to_its_step(self, rows, t_len):
        rng = np.random.default_rng(rows * 10 + t_len)
        reach = t_len - rows  # row i attends keys 0..reach + i
        visible = np.arange(t_len)[None, :] <= reach + np.arange(rows)[:, None]
        w = attention_weights(rng.standard_normal((rows, t_len)))
        assert np.array_equal(w > 0.0, visible)
        q, k, v = (rng.standard_normal((1, rows if i == 0 else t_len, 3)) for i in range(3))
        base = T.causal_attention(Tensor(q), Tensor(k), Tensor(v), 0.5).data[0]
        for j in range(t_len):
            k2, v2 = k.copy(), v.copy()
            k2[0, j] += 1.0
            v2[0, j] += 1.0
            out = T.causal_attention(Tensor(q), Tensor(k2), Tensor(v2), 0.5).data[0]
            changed = np.any(out != base, axis=-1)
            assert np.array_equal(changed, visible[:, j]), f"key step {j}"

    @pytest.mark.parametrize("inputs", ATTENTION_INPUTS)
    @pytest.mark.parametrize(
        "qk_shape, v_shape",
        [((3, 7, 4), (3, 7, 5)), ((1, 6, 2), (1, 6, 3)), ((1, 1, 3), (1, 1, 2)), ((2, 1, 4), (2, 1, 4))],
    )
    def test_bitwise_equal_to_composed_chain(self, inputs, qk_shape, v_shape):
        rng = np.random.default_rng(len(qk_shape) * 100 + qk_shape[-2])
        arrays = attention_arrays(rng, [qk_shape, qk_shape, v_shape], inputs)
        coeffs = rng.standard_normal(v_shape)
        results = []
        for attend in (T.causal_attention, reference_attention):
            q, k, v = (Tensor(a.copy(), requires_grad=True) for a in arrays)
            out = attend(q, k, v, 1.0 / math.sqrt(qk_shape[-1]))
            _weighted_sum(out, coeffs).backward()
            results.append((out.data, q.grad, k.grad, v.grad))
        for fused, composed, name in zip(*results, ("output", "q.grad", "k.grad", "v.grad")):
            assert np.array_equal(fused, composed), name

    @pytest.mark.parametrize("inputs", ATTENTION_INPUTS)
    @pytest.mark.parametrize(
        "q_shape, k_shape, v_shape",
        [((3, 2, 4), (3, 7, 4), (3, 7, 5)), ((1, 1, 3), (1, 6, 3), (1, 6, 2)), ((2, 4, 2), (2, 5, 2), (2, 5, 3))],
    )
    def test_offset_bitwise_equal_to_composed_chain(self, inputs, q_shape, k_shape, v_shape):
        rng = np.random.default_rng(q_shape[-2] * 10 + k_shape[-2])
        arrays = attention_arrays(rng, [q_shape, k_shape, v_shape], inputs)
        coeffs = rng.standard_normal(q_shape[:-1] + v_shape[-1:])
        results = []
        for attend in (T.causal_attention, reference_attention):
            q, k, v = (Tensor(a.copy(), requires_grad=True) for a in arrays)
            out = attend(q, k, v, 0.45)
            _weighted_sum(out, coeffs).backward()
            results.append((out.data, q.grad, k.grad, v.grad))
        for fused, composed, name in zip(*results, ("output", "q.grad", "k.grad", "v.grad")):
            assert fused.shape == composed.shape and np.array_equal(fused, composed), name


def _ones(*shape):
    return Tensor(np.ones(shape))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: T.causal_conv1d(_ones(2, 5), _ones(3, 2, 2), _ones(3)), r"\(N, C_in, T\), got \(2, 5\)"),
        (lambda: T.causal_conv1d(_ones(1, 2, 5), _ones(3, 2, 2), None), r"bias must have shape \(3,\), got None"),
        (
            lambda: T.causal_attention(_ones(4, 3), _ones(4, 3), _ones(4, 2), 1.0),
            r"one N; got q \(4, 3\), k \(4, 3\), v \(4, 2\)",
        ),
        (
            lambda: T.causal_attention(_ones(1, 4, 3), _ones(2, 4, 3), _ones(2, 4, 2), 1.0),
            r"one N; got q \(1, 4, 3\), k \(2, 4, 3\), v \(2, 4, 2\)",
        ),
    ],
    ids=["conv_2d_input", "conv_without_bias", "attention_2d", "attention_mismatched_batch"],
)
def test_kernels_refuse_every_other_form_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_add_refuses_operands_of_two_shapes():
    # the bias-style broadcast the gradient battery used to check
    with pytest.raises(ValueError, match=r"one shape; got \(3, 4\) and \(4,\)"):
        T.add(_ones(3, 4), _ones(4))


def _forward_backward(op, arrays, needs_grad, seed):
    """Output and every gradient of sum(op(*tensors) * c) for fixed random c."""
    tensors = [None if a is None else Tensor(a.copy(), requires_grad=f) for a, f in zip(arrays, needs_grad)]
    out = op(*tensors)
    if out.requires_grad:
        _weighted_sum(out, np.random.default_rng(seed).standard_normal(out.shape)).backward()
    return [out.data] + [None if t is None else t.grad for t in tensors]


def _assert_same_on_workers(monkeypatch, workers, op, arrays, needs_grad, seed=0):
    monkeypatch.setattr(T, "_WORKERS", 1)
    inline = _forward_backward(op, arrays, needs_grad, seed)
    monkeypatch.setattr(T, "_WORKERS", workers)
    pooled = _forward_backward(op, arrays, needs_grad, seed)
    for i, (a, b) in enumerate(zip(inline, pooled)):
        assert (a is None) == (b is None), i
        assert a is None or np.array_equal(a, b), f"result {i} differs on {workers} workers"


class TestFanOut:
    def test_slices_cover_batch_on_pool_threads(self, monkeypatch):
        monkeypatch.setattr(T, "_WORKERS", 3)
        calls = []
        T._fan_out(lambda b0, b1: calls.append((b0, b1, threading.current_thread().name)), 7)
        assert sorted(c[:2] for c in calls) == [(0, 2), (2, 4), (4, 7)]
        assert all(name.startswith("csi-tcn-kernel") for _, _, name in calls)

    def test_single_worker_or_sample_runs_inline(self, monkeypatch):
        for workers, n in ((1, 5), (4, 1)):
            monkeypatch.setattr(T, "_WORKERS", workers)
            calls = []
            T._fan_out(lambda b0, b1: calls.append((b0, b1, threading.current_thread())), n)
            assert calls == [(0, n, threading.current_thread())]

    def test_error_raised_in_caller_after_every_slice_ran(self, monkeypatch):
        monkeypatch.setattr(T, "_WORKERS", 3)
        done = []

        def fn(b0, b1):
            if b0 == 0:
                raise KeyError("first slice")
            time.sleep(0.05)
            done.append(b0)

        with pytest.raises(KeyError, match="first slice"):
            T._fan_out(fn, 3)
        assert sorted(done) == [1, 2]

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize(
        "x_shape, dilation, x_grad",
        [
            ((1, 2, 9), 2, True),  # N = 1
            ((1, 2, 9), 1, True),  # N = 1, dilation 1: a receptive-field probe
            ((3, 2, 9), 1, True),
            ((5, 3, 11), 2, True),
            ((4, 2, 13), 4, True),
            ((4, 5, 9), 2, True),  # more channels in than out
            ((5, 2, 9), 1, False),
        ],
    )
    def test_conv_bitwise_equal_to_one_worker(self, monkeypatch, workers, x_shape, dilation, x_grad):
        rng = np.random.default_rng(x_shape[0] * 10 + dilation)
        c_in = x_shape[-2]
        arrays = [rng.standard_normal(x_shape), rng.standard_normal((3, c_in, 3)), rng.standard_normal(3)]
        op = lambda x, w, b: T.causal_conv1d(x, w, b, dilation)  # noqa: E731
        _assert_same_on_workers(monkeypatch, workers, op, arrays, [x_grad, True, True])

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("steps", [1, 4, 9])
    def test_conv_steps_bitwise_equal_to_one_worker(self, monkeypatch, workers, steps):
        rng = np.random.default_rng(steps)
        arrays = [rng.standard_normal((5, 3, 11)), rng.standard_normal((4, 3, 3)), rng.standard_normal(4)]
        op = lambda x, w, b: T.causal_conv1d(x, w, b, 2, steps)  # noqa: E731
        _assert_same_on_workers(monkeypatch, workers, op, arrays, [True, True, True])

    def test_conv_without_any_gradient(self, monkeypatch):
        rng = np.random.default_rng(4)
        arrays = [rng.standard_normal((5, 2, 9)), rng.standard_normal((3, 2, 3)), rng.standard_normal(3)]
        op = lambda x, w, b: T.causal_conv1d(x, w, b, 2)  # noqa: E731
        _assert_same_on_workers(monkeypatch, 2, op, arrays, [False, False, False])

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("inputs", ATTENTION_INPUTS)
    @pytest.mark.parametrize(
        "q_shape, k_shape, v_shape",
        [
            ((3, 7, 4), (3, 7, 4), (3, 7, 5)),
            ((5, 6, 3), (5, 6, 3), (5, 6, 3)),
            ((3, 1, 4), (3, 1, 4), (3, 1, 2)),  # T = 1
            ((1, 6, 2), (1, 6, 2), (1, 6, 3)),  # N = 1
            ((5, 2, 3), (5, 6, 3), (5, 6, 4)),  # query rows at the last 2 of 6 steps
            ((4, 1, 3), (4, 5, 3), (4, 5, 2)),  # one query row, at the last of 5 steps
        ],
    )
    def test_attention_bitwise_equal_to_one_worker(self, monkeypatch, workers, inputs, q_shape, k_shape, v_shape):
        rng = np.random.default_rng(q_shape[-2] * 7 + len(q_shape))
        arrays = attention_arrays(rng, [q_shape, k_shape, v_shape], inputs)
        op = lambda q, k, v: T.causal_attention(q, k, v, 0.6)  # noqa: E731
        _assert_same_on_workers(monkeypatch, workers, op, arrays, [True, True, True])
        _assert_same_on_workers(monkeypatch, workers, op, arrays, [False, True, False])

    def test_attention_all_neg_inf_row_raises_in_caller(self, monkeypatch):
        monkeypatch.setattr(T, "_WORKERS", 2)
        q = np.ones((3, 4, 2))
        q[2, 0, :] = -np.inf  # sample 2 lies in the second worker's slice
        with pytest.raises(ValueError, match="entirely -inf"):
            T.causal_attention(Tensor(q), Tensor(np.ones((3, 4, 2))), Tensor(np.ones((3, 4, 2))), 1.0)

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        rng = np.random.default_rng(8)
        conv = [rng.standard_normal((9, 4, 40)), rng.standard_normal((4, 4, 5)), rng.standard_normal(4)]
        attn = [rng.standard_normal((9, 40, 6)) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                _assert_same_on_workers(
                    monkeypatch, 8, lambda x, w, b: T.causal_conv1d(x, w, b, 4), conv, [True, True, True]
                )
                _assert_same_on_workers(
                    monkeypatch, 8, lambda q, k, v: T.causal_attention(q, k, v, 0.4), attn, [True, True, True]
                )
        finally:
            sys.setswitchinterval(interval)


def _assert_same_bits(ours, theirs):
    for i, (a, b) in enumerate(zip(ours, theirs)):
        assert (a is None) == (b is None), i
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), f"result {i} differs from the parent kernel"


# One sample per chunk, the default budget, one chunk per slice.
CHUNK_BUDGETS = [1, T._CHUNK_BYTES, 1 << 30]


class TestOverChunks:
    # 192 KiB of buffers per sample, so the default budget takes chunks of 2.
    SHAPES = [(128, 128), (64, 128)]

    @pytest.mark.parametrize("budget", CHUNK_BUDGETS)
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 7])
    def test_chunks_cover_samples_with_buffers_made_first(self, monkeypatch, budget, workers, n):
        monkeypatch.setattr(T, "_CHUNK_BYTES", budget)
        monkeypatch.setattr(T, "_WORKERS", workers)
        events = []

        class RecordingNumpy:
            """numpy as `tensor` sees it, with every `zeros` call recorded."""

            def __getattr__(self, name):
                return getattr(np, name)

            def zeros(self, *args, **kwargs):
                events.append(("alloc", threading.current_thread()))
                return np.zeros(*args, **kwargs)

        def body(c0, c1, *buffers):
            events.append(("run", (c0, c1)))
            assert len(buffers) == len(self.SHAPES)
            for buf, shape in zip(buffers, self.SHAPES):
                assert buf.shape == (c1 - c0,) + shape

        monkeypatch.setattr(T, "np", RecordingNumpy())
        T._over_chunks(n, self.SHAPES, body)

        kinds = [kind for kind, _ in events]
        first_run = kinds.index("run")
        assert set(kinds[:first_run]) == {"alloc"} and "alloc" not in kinds[first_run:]
        assert first_run == len(T._slices(n)) * len(self.SHAPES)
        assert all(thread is threading.current_thread() for _, thread in events[:first_run])
        chunks = sorted(c for kind, c in events if kind == "run")
        visited = [i for c0, c1 in chunks for i in range(c0, c1)]
        assert visited == list(range(n))
        if budget == CHUNK_BUDGETS[1]:  # the default
            assert max(c1 - c0 for c0, c1 in chunks) == min(2, n)

    def test_buffers_start_zeroed_and_persist_within_a_slice(self, monkeypatch):
        monkeypatch.setattr(T, "_CHUNK_BYTES", 1)
        monkeypatch.setattr(T, "_WORKERS", 2)
        seen = {}

        def body(c0, c1, buf):
            seen[c0] = buf.copy()
            buf += 1.0

        T._over_chunks(6, [(3,)], body)
        # Slices 0:3 and 3:6, one sample per chunk: the k-th chunk of a slice
        # finds the k increments its predecessors made.
        for c0, arr in seen.items():
            assert np.array_equal(arr, np.full((1, 3), float(c0 % 3)))


class TestChunkedKernels:
    """The chunked kernels against the parent whole-slice kernels, bit for bit."""

    @pytest.mark.parametrize("budget", CHUNK_BUDGETS)
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "x_shape, w_shape, dilation, x_grad",
        [
            ((1, 2, 9), (3, 2, 3), 2, True),  # N = 1
            ((1, 2, 9), (3, 2, 3), 1, True),  # N = 1, dilation 1: a receptive-field probe
            ((3, 2, 9), (3, 2, 3), 1, True),
            ((5, 3, 11), (4, 3, 3), 2, True),
            ((5, 2, 13), (3, 2, 3), 4, True),
            ((3, 2, 5), (2, 2, 3), 4, True),  # the pad (8) is longer than T
            ((4, 3, 7), (3, 3, 1), 1, True),  # k = 1, no pad
            ((3, 4, 1), (5, 4, 3), 2, True),  # T = 1
            ((3, 1, 9), (1, 1, 4), 1, True),  # one channel in and out
            ((4, 5, 9), (2, 5, 3), 2, True),  # more channels in than out
            ((5, 2, 9), (3, 2, 3), 1, False),  # x without grad
            ((5, 50, 250), (50, 50, 3), 2, True),  # default budget: chunks of 2
        ],
    )
    def test_conv_bitwise_equal_to_parent(self, monkeypatch, budget, workers, x_shape, w_shape, dilation, x_grad):
        monkeypatch.setattr(T, "_CHUNK_BYTES", budget)
        monkeypatch.setattr(T, "_WORKERS", workers)
        rng = np.random.default_rng(x_shape[0] * 10 + dilation)
        arrays = [rng.standard_normal(x_shape), rng.standard_normal(w_shape), rng.standard_normal(w_shape[0])]
        needs = [x_grad, True, True]
        ours = _forward_backward(lambda x, w, b: T.causal_conv1d(x, w, b, dilation), arrays, needs, seed=1)
        theirs = _forward_backward(
            lambda x, w, b: kernel_reference.causal_conv1d(x, w, b, dilation), arrays, needs, seed=1
        )
        _assert_same_bits(ours, theirs)

    @pytest.mark.parametrize("budget", CHUNK_BUDGETS)
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("inputs", ATTENTION_INPUTS)
    @pytest.mark.parametrize(
        "q_shape, k_shape, v_shape",
        [
            ((5, 7, 4), (5, 7, 4), (5, 7, 5)),
            ((3, 1, 4), (3, 1, 4), (3, 1, 2)),  # T = 1
            ((1, 6, 2), (1, 6, 2), (1, 6, 3)),  # N = 1
            ((4, 9, 1), (4, 9, 1), (4, 9, 6)),  # d_k = 1
            ((5, 100, 4), (5, 100, 4), (5, 100, 3)),  # default budget: backward chunks of 2
        ],
    )
    def test_attention_bitwise_equal_to_parent(self, monkeypatch, budget, workers, inputs, q_shape, k_shape, v_shape):
        monkeypatch.setattr(T, "_CHUNK_BYTES", budget)
        monkeypatch.setattr(T, "_WORKERS", workers)
        rng = np.random.default_rng(q_shape[-2] * 7 + len(q_shape))
        arrays = attention_arrays(rng, [q_shape, k_shape, v_shape], inputs)
        for needs in ([True, True, True], [False, True, False], [True, False, False]):
            ours = _forward_backward(lambda q, k, v: T.causal_attention(q, k, v, 0.6), arrays, needs, seed=2)
            theirs = _forward_backward(
                lambda q, k, v: kernel_reference.causal_attention(q, k, v, 0.6), arrays, needs, seed=2
            )
            _assert_same_bits(ours, theirs)

    def test_all_neg_inf_row_in_a_later_chunk_of_the_second_slice(self, monkeypatch):
        monkeypatch.setattr(T, "_CHUNK_BYTES", 1)
        monkeypatch.setattr(T, "_WORKERS", 2)
        q = np.ones((6, 4, 2))
        q[5, 1, :] = -np.inf  # slices are 0:3 and 3:6; sample 5 is the third chunk of the second
        with pytest.raises(ValueError, match="entirely -inf"):
            T.causal_attention(Tensor(q), Tensor(np.ones((6, 4, 2))), Tensor(np.ones((6, 4, 2))), 1.0)

    def test_conv_forward_retains_only_its_output(self):
        # The parent kept a padded copy of the input for backward: 2.15 units.
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((8, 50, 375)), requires_grad=True)
        w = Tensor(rng.standard_normal((50, 50, 15)), requires_grad=True)
        b = Tensor(rng.standard_normal(50), requires_grad=True)
        unit = 8 * 50 * 375 * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = T.causal_conv1d(x, w, b, 4)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained <= 1.1 * unit, f"forward retains {retained / unit:.2f} output-sized units"
        _weighted_sum(out, np.ones(out.shape)).backward()
        assert x.grad.shape == x.shape


class TestElementwiseAndDropout:
    def test_relu(self):
        assert T.relu(Tensor([-1.0])).data[0] == 0.0
        assert T.relu(Tensor([2.5])).data[0] == 2.5

    def test_dropout_eval_is_identity(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 3)))
        assert T.dropout_layer(x, 0.5, training=False) is x

    def test_dropout_zero_rate_is_identity(self):
        x = Tensor(np.ones((2, 2)))
        assert T.dropout_layer(x, 0.0, training=True, rng=np.random.default_rng(0)) is x

    def test_dropout_concentration_and_scaling(self):
        x = Tensor(np.ones(1_000_000))
        y = T.dropout_layer(x, 0.5, training=True, rng=np.random.default_rng(7))
        zero_frac = np.mean(y.data == 0.0)
        assert abs(zero_frac - 0.5) <= 0.002
        assert np.all((y.data == 0.0) | (y.data == 2.0))  # inverted scaling 1/(1-p)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_dropout_bitwise_equal_to_parent_formula(self, p):
        # negative inputs and gradients make -0.0 where a sample is dropped
        rng = np.random.default_rng(9)
        x_data = rng.standard_normal((4, 6, 5))
        coeffs = rng.standard_normal((4, 6, 5))
        results = []
        for dropout in (T.dropout_layer, kernel_reference.dropout_layer):
            x = Tensor(x_data.copy(), requires_grad=True)
            y = dropout(x, p, training=True, rng=np.random.default_rng(3))
            _weighted_sum(y, coeffs).backward()
            results.append((y.data, x.grad))
        assert np.any(np.signbit(results[0][0]) & (results[0][0] == 0.0))
        _assert_same_bits(*results)

    @pytest.mark.parametrize("budget", [1, T._CHUNK_BYTES])
    @pytest.mark.parametrize("steps", [0, 1, 4, 9])
    def test_dropout_keeps_the_last_columns_of_the_full_draw(self, monkeypatch, budget, steps):
        monkeypatch.setattr(T, "_CHUNK_BYTES", budget)
        x = np.random.default_rng(5).standard_normal((3, 4, 9))
        full = T.dropout_layer(Tensor(x), 0.4, training=True, rng=np.random.default_rng(6))
        rng = np.random.default_rng(6)
        part = T.dropout_layer(Tensor(x[..., 9 - steps :]), 0.4, training=True, rng=rng, t_full=9)
        assert part.data.tobytes() == full.data[..., 9 - steps :].tobytes()
        # the stream moved on by the whole draw, as the full pass's did
        assert rng.random() == np.random.default_rng(6).random(3 * 4 * 9 + 1)[-1]

    def test_dropout_draw_shorter_than_the_input_rejected(self):
        with pytest.raises(ValueError, match="t_full"):
            T.dropout_layer(Tensor(np.ones((2, 5))), 0.5, training=True, rng=np.random.default_rng(0), t_full=4)

    def test_dropout_rate_validation(self):
        with pytest.raises(ValueError):
            T.dropout_layer(Tensor([1.0]), 1.0, training=True, rng=np.random.default_rng(0))


class TestCrossEntropy:
    def test_uniform_twelve(self):
        probs = Tensor(np.full((1, 12), 1.0 / 12.0))
        assert T.cross_entropy_mean(probs, np.array([5])).item() == pytest.approx(math.log(12.0), abs=1e-12)

    def test_certain_prediction(self):
        probs = np.zeros((1, 12))
        probs[0, 3] = 1.0
        assert T.cross_entropy_mean(Tensor(probs), np.array([3])).item() == 0.0

    def test_half_probability(self):
        probs = np.full((1, 12), 0.5 / 11.0)
        probs[0, 0] = 0.5
        assert T.cross_entropy_mean(Tensor(probs), np.array([0])).item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_not_a_distribution_rejected(self):
        with pytest.raises(ValueError, match="distribution"):
            T.cross_entropy_mean(Tensor(np.full((1, 4), 0.4)), np.array([0]))

    def test_clamp_keeps_loss_finite(self):
        probs = np.zeros((1, 3))
        probs[0, 1] = 1.0
        loss = T.cross_entropy_mean(Tensor(probs), np.array([0]))
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(-math.log(1e-12), rel=1e-9)

    def test_batched_mean(self):
        probs = Tensor(np.array([[0.5, 0.5], [0.25, 0.75]]))
        loss = T.cross_entropy_mean(probs, np.array([0, 1]))
        expected = (-math.log(0.5) - math.log(0.75)) / 2.0
        assert loss.item() == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            T.cross_entropy_mean(Tensor(np.full((2, 3), bad)), np.array([0, 1]))
        with pytest.raises(ValueError, match="non-finite"):
            T.cross_entropy_mean(Tensor([[bad, 0.5, 0.5]]), np.array([0]))

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_outside_classes_rejected(self, label):
        probs = Tensor(np.full((2, 3), 1.0 / 3.0))
        with pytest.raises(ValueError, match=rf"label {label} outside .*\[0, 3\)"):
            T.cross_entropy_mean(probs, np.array([0, label]))
        with pytest.raises(ValueError, match=rf"label {label} outside"):
            T.cross_entropy_mean(Tensor(np.full((1, 3), 1.0 / 3.0)), np.array([label]))


class TestBackward:
    def test_square_gradient(self):
        x = Tensor([3.0], requires_grad=True)
        y = _weighted_sum(T.mul(x, x), np.ones(1))
        y.backward()
        assert np.allclose(x.grad, [6.0], atol=1e-12)

    def test_gradient_of_weighted_sum_is_its_coefficients(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        c = rng.standard_normal((3, 4))
        _weighted_sum(x, c).backward()
        assert np.array_equal(x.grad, c)

    def test_non_scalar_root_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            T.mul(x, Tensor(2.0)).backward()

    def test_fan_out_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = _weighted_sum(T.add(T.mul(x, x), x), np.ones(1))  # x^2 + x
        y.backward()
        assert np.allclose(x.grad, [5.0], atol=1e-12)

    @pytest.mark.parametrize("op, expected", [(T.add, lambda x, c: 2.0 * c), (T.mul, lambda x, c: 2.0 * x * c)])
    def test_fan_out_into_one_op(self, op, expected):
        # both operands are x: the first contribution is stored uncopied and
        # the second must be added without disturbing the output's gradient
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        c = rng.standard_normal((3, 4))
        y = op(x, x)
        _weighted_sum(y, c).backward()
        assert np.array_equal(x.grad, expected(x.data, c))
        assert np.array_equal(y.grad, c)

    def test_view_chain_gradients_stay_separate(self):
        # reshape and transpose hand on views of the gradient they received;
        # a second path into x and into the reshaped tensor must not write
        # through those views
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        c1 = rng.standard_normal((4, 3))
        c2 = rng.standard_normal((3, 4))
        c3 = rng.standard_normal((2, 6))
        r = T.reshape(x, (3, 4))
        t = T.transpose(r, (1, 0))
        loss = T.add(T.add(_weighted_sum(t, c1), _weighted_sum(r, c2)), _weighted_sum(x, c3))
        loss.backward()
        assert np.array_equal(t.grad, c1)
        assert np.array_equal(r.grad, c1.T + c2)
        assert np.array_equal(x.grad, (c1.T + c2).reshape(2, 6) + c3)

    def test_second_backward_through_a_consumed_graph_raises(self):
        x = Tensor([2.0, -1.0], requires_grad=True)
        loss = _weighted_sum(T.mul(x, x), np.ones(2))
        loss.backward()
        first = x.grad
        with pytest.raises(ValueError, match="already consumed by backward"):
            loss.backward()
        assert x.grad is first
        assert np.array_equal(x.grad, [4.0, -2.0])

    def test_backward_into_a_consumed_subgraph_raises(self):
        x = Tensor([3.0], requires_grad=True)
        y = T.mul(x, x)
        _weighted_sum(y, np.ones(1)).backward()
        with pytest.raises(ValueError, match="already consumed by backward"):
            _weighted_sum(T.add(y, x), np.ones(1)).backward()
        assert np.array_equal(x.grad, [6.0])

    def test_scalar_leaf_root(self):
        x = Tensor(3.0, requires_grad=True)
        x.backward()
        x.backward()
        assert x.grad == 1.0

    def test_graph_is_released_as_it_is_consumed(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        h = T.mul(x, Tensor(np.full((2, 3), 2.0)))
        loss = _weighted_sum(T.relu(h), np.ones((2, 3)))
        seen = []
        inner = h._backward

        def probe(g):
            # when h runs, the reduction above it has already let go of relu
            seen.append(loss._parents)
            inner(g)

        h._backward = probe
        loss.backward()
        assert seen == [()]
        assert h._backward is None and h._parents == ()
        assert loss._backward is None and loss._parents == ()
        assert np.array_equal(h.grad, np.ones((2, 3)))
        assert np.array_equal(x.grad, np.full((2, 3), 2.0))

    def test_grad_check_linear_is_tight(self):
        w = Tensor(np.random.default_rng(1).standard_normal((2, 3)), requires_grad=True)
        coeff = np.random.default_rng(2).standard_normal((4, 2))
        x = np.random.default_rng(3).standard_normal((4, 3))
        err = grad_check(lambda ww: _weighted_sum(T.linear(Tensor(x), ww), coeff), w)
        assert err < 1e-9

    def test_grad_check_softmax_cross_entropy(self):
        z = Tensor(np.random.default_rng(4).standard_normal((1, 6)), requires_grad=True)
        err = grad_check(lambda zz: T.cross_entropy_mean(T.softmax_rows(zz), np.array([2])), z)
        assert err < 1e-6


class TestHeapThresholds:
    class _Mallopt:
        def __init__(self):
            self.calls = []

        def __call__(self, param, value):
            self.calls.append((param, value))
            return 1

    def test_sets_mmap_and_trim_thresholds(self, monkeypatch):
        mallopt = self._Mallopt()
        monkeypatch.setattr(T.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        T._hold_heap_thresholds()
        assert mallopt.calls == [(-3, 32 * 2**20), (-1, 64 * 2**20)]

    def test_starts_no_subprocess(self, monkeypatch):
        # ctypes.util.find_library starts a child process, whose peak RSS
        # would count towards any RUSAGE_CHILDREN reading of this one
        def refuse(*args, **kwargs):
            raise AssertionError("subprocess started")

        monkeypatch.setattr(subprocess, "Popen", refuse)
        T._hold_heap_thresholds()

    def test_no_op_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(T.ctypes, "CDLL", lambda name: object())
        T._hold_heap_thresholds()
