import dataclasses
import gc
import json
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from attention_reference import reference_attention_forward
from model_reference import full_length_forward
from csi_tcn import model as model_mod
from csi_tcn import tensor as T
from csi_tcn.gradchecks import _weighted_sum
from csi_tcn.model import (
    AttentionParams,
    AttentionPlacement,
    ModelConfig,
    TcnBlockParams,
    attention_forward,
    init_model,
    load_checkpoint,
    model_config_from_dict,
    model_config_to_dict,
    model_forward,
    parameter_count,
    probe_receptive_field,
    receptive_field,
    save_checkpoint,
    tcn_block_forward,
)
from csi_tcn.tensor import Tensor


def small_config(**overrides) -> ModelConfig:
    base = dict(
        filters=(8, 8, 8),
        kernel=3,
        dropout=0.0,
        d_k=4,
        n_classes=5,
        in_features=4,
    )
    base.update(overrides)
    return ModelConfig(**base)


def attention_params(rng, width, d_k, zero_qk=False):
    w_q = rng.standard_normal((d_k, width))
    w_k = rng.standard_normal((d_k, width))
    if zero_qk:
        w_q = np.zeros_like(w_q)
        w_k = np.zeros_like(w_k)
    return AttentionParams(
        w_q=Tensor(w_q, requires_grad=True),
        w_k=Tensor(w_k, requires_grad=True),
        w_v=Tensor(rng.standard_normal((width, width)), requires_grad=True),
    )


class TestAttention:
    def test_single_step_degenerate(self):
        rng = np.random.default_rng(0)
        p = attention_params(rng, width=4, d_k=3)
        h = rng.standard_normal((1, 4))
        out = attention_forward(Tensor(h[None]), p)
        expected = h * (h @ p.w_v.data.T)
        assert np.allclose(out.data[0], expected, atol=1e-12)

    def test_zero_query_key_gives_running_mean(self):
        # all scores collapse to 0; the causal mask then makes row t a uniform
        # average of value rows 0..t.
        rng = np.random.default_rng(1)
        p = attention_params(rng, width=5, d_k=4, zero_qk=True)
        h = rng.standard_normal((7, 5))
        out = attention_forward(Tensor(h[None]), p)
        v = h @ p.w_v.data.T
        expected = h * np.stack([v[: t + 1].mean(axis=0) for t in range(7)])
        assert np.allclose(out.data[0], expected, atol=1e-12)

    def test_forward_causality_is_bitwise(self):
        rng = np.random.default_rng(2)
        p = attention_params(rng, width=4, d_k=4)
        h = rng.standard_normal((1, 6, 4))
        base = attention_forward(Tensor(h), p).data
        poked = h.copy()
        poked[:, 4:, :] += 1.5
        out = attention_forward(Tensor(poked), p).data
        assert np.array_equal(out[:, :4], base[:, :4])

    def test_gradient_causality(self):
        rng = np.random.default_rng(3)
        p = attention_params(rng, width=4, d_k=4)
        h = Tensor(rng.standard_normal((1, 5, 4)), requires_grad=True)
        out = attention_forward(h, p)
        t_probe = 2
        _weighted_sum(T.index(out, (0, t_probe)), np.ones(4)).backward()
        assert np.array_equal(h.grad[0, t_probe + 1 :], np.zeros((2, 4)))
        assert np.any(h.grad[0, : t_probe + 1] != 0.0)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(5)
        p = attention_params(rng, width=3, d_k=2)
        h = rng.standard_normal((4, 6, 3))
        batched = attention_forward(Tensor(h), p).data
        for n in range(4):
            single = attention_forward(Tensor(h[n : n + 1]), p).data[0]
            assert np.allclose(batched[n], single, atol=1e-12)

    def test_value_shape_must_match_input(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="square"):
            AttentionParams(
                w_q=Tensor(rng.standard_normal((2, 4))),
                w_k=Tensor(rng.standard_normal((2, 4))),
                w_v=Tensor(rng.standard_normal((3, 4))),
            )


class TestFusedAttention:
    """`tensor.causal_attention` against the composed chain it replaced."""

    @pytest.mark.parametrize("t_len", [1, 20])
    @pytest.mark.parametrize("training", [True, False])  # dropout on and off
    @pytest.mark.parametrize("placement", list(AttentionPlacement))
    def test_model_bitwise_equal_to_composed_chain(self, monkeypatch, placement, training, t_len):
        cfg = small_config(attention_placement=placement, dropout=0.3, d_k=3)
        x_data = np.random.default_rng(10).standard_normal((2, 3, t_len, cfg.in_features))
        labels = np.array([1, 4])
        runs = []
        for attend in (model_mod.attention_forward, reference_attention_forward):
            monkeypatch.setattr(model_mod, "attention_forward", attend)
            params = init_model(cfg, np.random.default_rng(11))
            x = Tensor(x_data.copy(), requires_grad=True)
            probs = model_forward(x, params, cfg, training=training, rng=np.random.default_rng(12))
            T.cross_entropy_mean(probs, labels).backward()
            grads = {name: p.grad for name, p in params.named().items()}
            runs.append((probs.data, x.grad, grads))
        (fused_p, fused_x, fused_g), (ref_p, ref_x, ref_g) = runs
        assert np.array_equal(fused_p, ref_p)
        assert np.array_equal(fused_x, ref_x)
        assert fused_g.keys() == ref_g.keys()
        for name in fused_g:
            assert np.array_equal(fused_g[name], ref_g[name]), name

    def test_memory_bounded_by_two_and_five_score_tensors(self):
        # One unit is one (N, T, T) float64 tensor. The composed chain keeps
        # about 4.6 units after forward and peaks near 10 with backward.
        n, t_len, feats = 8, 256, 30
        unit = n * t_len * t_len * 8
        rng = np.random.default_rng(13)
        p = attention_params(rng, width=feats, d_k=feats)
        h = Tensor(rng.standard_normal((n, t_len, feats)), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = attention_forward(h, p)
            retained = tracemalloc.get_traced_memory()[0] - before
            _weighted_sum(out, np.ones(out.shape)).backward()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert retained <= 2 * unit, f"forward retains {retained / unit:.2f} units"
        assert peak <= 5 * unit, f"forward + backward peaks at {peak / unit:.2f} units"
        assert h.grad is not None


class TestAttentionMemory:
    def test_no_weights_kept_between_forward_and_backward(self, monkeypatch):
        # One unit is one (N, T, T) float64 tensor. Keeping the weights for
        # backward, the parent read 1.61 units retained and 4.33 at peak.
        monkeypatch.setattr(T, "_WORKERS", 2)
        n, t_len, feats = 8, 256, 30
        unit = n * t_len * t_len * 8
        rng = np.random.default_rng(13)
        p = attention_params(rng, width=feats, d_k=feats)
        h = Tensor(rng.standard_normal((n, t_len, feats)), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = attention_forward(h, p)
            retained = tracemalloc.get_traced_memory()[0] - before
            _weighted_sum(out, np.ones(out.shape)).backward()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert retained < unit, f"forward retains {retained / unit:.2f} units"
        assert peak < 3 * unit, f"forward + backward peaks at {peak / unit:.2f} units"
        assert h.grad is not None


class TestStepMemory:
    """The autodiff graph of one training step is freed as backward walks it."""

    def test_stock_step_frees_the_graph(self):
        # Stock shape, batch 8. Keeping the graph until backward returned, the
        # parent peaked at 1.80x the forward's retained memory and still held
        # 195.8 MB once backward had returned.
        cfg = ModelConfig()
        rng = np.random.default_rng(21)
        params = init_model(cfg, rng)
        x = rng.standard_normal((8, 6, 375, cfg.in_features))
        labels = np.arange(8) % cfg.n_classes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            probs = model_forward(x, params, cfg, training=True, rng=np.random.default_rng(22))
            loss = T.cross_entropy_mean(probs, labels)
            retained = tracemalloc.get_traced_memory()[0] - before
            loss.backward()
            held, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * retained, f"forward + backward peaks at {peak / retained:.2f}x the forward"
        assert held < 2 * 2**20, f"{held / 2**20:.1f} MB still held after backward"
        assert probs.grad is not None and loss.grad is not None
        assert all(p.grad is not None for p in params.named().values())

    def test_intermediates_die_without_the_cycle_collector(self):
        cfg = ModelConfig(filters=(4, 4), kernel=3, d_k=4, n_classes=3, in_features=5)
        rng = np.random.default_rng(23)
        params = init_model(cfg, rng)
        x = rng.standard_normal((2, 2, 16, 5))
        gc.disable()
        try:
            probs, acts = model_forward(
                x, params, cfg, training=True, rng=np.random.default_rng(24), return_activations=True
            )
            refs = {name: weakref.ref(t) for name, t in acts.items() if t is not probs}
            del acts
            loss = T.cross_entropy_mean(probs, np.array([0, 2]))
            assert all(r() is not None for r in refs.values())
            loss.backward()
            alive = sorted(name for name, r in refs.items() if r() is not None)
        finally:
            gc.enable()
        assert alive == []


class TestTcnBlock:
    def _block(self, c_out, c_in, k, zero=False, proj=False, rng=None):
        rng = rng or np.random.default_rng(0)
        w = np.zeros((c_out, c_in, k)) if zero else rng.standard_normal((c_out, c_in, k))
        return TcnBlockParams(
            w=Tensor(w, requires_grad=True),
            b=Tensor(np.zeros(c_out), requires_grad=True),
            proj=Tensor(rng.standard_normal((c_out, c_in)), requires_grad=True) if proj else None,
        )

    def test_zero_weights_identity_residual(self):
        x = Tensor(np.random.default_rng(2).standard_normal((1, 3, 10)))
        y = tcn_block_forward(x, self._block(3, 3, 5, zero=True), 1)
        assert np.array_equal(y.data, x.data)

    @pytest.mark.parametrize("dilation", [1, 2, 4])
    def test_length_preserved_k15(self, dilation):
        rng = np.random.default_rng(dilation)
        x = Tensor(rng.standard_normal((1, 4, 37)))
        y = tcn_block_forward(x, self._block(6, 4, 15, proj=True, rng=rng), dilation)
        assert y.data.shape == (1, 6, 37)

    def test_channel_change_needs_projection(self):
        x = Tensor(np.ones((1, 3, 8)))
        with pytest.raises(ValueError, match="projection"):
            tcn_block_forward(x, self._block(5, 3, 3), 1)


class TestModelForward:
    def test_output_shape_and_distribution(self):
        cfg = ModelConfig()  # stock config: (6, T, 30) in, 12 classes out
        params = init_model(cfg, np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((6, 128, 30))
        out = model_forward(x, params, cfg)
        assert out.data.shape == (12,)
        assert abs(out.data.sum() - 1.0) <= 1e-9
        assert np.all(out.data >= 0.0)

    def test_identical_pairs_equal_single_pair(self):
        cfg = small_config()
        params = init_model(cfg, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        one = rng.standard_normal((1, 32, 4))
        six = np.repeat(one, 6, axis=0)
        out_six = model_forward(six, params, cfg).data
        out_one = model_forward(one, params, cfg).data
        assert np.allclose(out_six, out_one, atol=1e-12)

    def test_pair_permutation_symmetry(self):
        cfg = small_config()
        params = init_model(cfg, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 32, 4))
        base = model_forward(x, params, cfg).data
        permuted = model_forward(x[[3, 0, 5, 1, 4, 2]], params, cfg).data
        assert np.allclose(base, permuted, atol=1e-12)

    def test_eval_mode_deterministic_with_dropout_config(self):
        cfg = small_config(dropout=0.5)
        params = init_model(cfg, np.random.default_rng(6))
        x = np.random.default_rng(7).standard_normal((2, 32, 4))
        a = model_forward(x, params, cfg, training=False).data
        b = model_forward(x, params, cfg, training=False).data
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "placement", ["pre_tcn_only", "post_tcn", "every_layer", "none"]
    )
    def test_all_placements_run(self, placement):
        cfg = small_config(attention_placement=placement)
        params = init_model(cfg, np.random.default_rng(8))
        x = np.random.default_rng(9).standard_normal((3, 2, 24, 4))
        out = model_forward(x, params, cfg)
        assert out.data.shape == (3, 5)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-9)

    def test_activations_exposed(self):
        cfg = small_config()
        params = init_model(cfg, np.random.default_rng(10))
        x = np.random.default_rng(11).standard_normal((2, 16, 4))
        _, acts = model_forward(x, params, cfg, return_activations=True)
        assert {"attention_pre", "block0", "block1", "block2", "output"} <= set(acts)


class TestReceptiveWindow:
    """The windowed pass against the full-length oracle in model_reference."""

    # kernel 3, blocks dilated 1, 2, 4: W = 15; 4 -> 6 channels needs a projection
    @staticmethod
    def config(placement):
        return small_config(filters=(6, 5, 5), attention_placement=placement, dropout=0.3, d_k=3)

    @pytest.mark.parametrize("t_len", [9, 15, 40])  # below, at and above W
    @pytest.mark.parametrize("training", [True, False])  # dropout on and off
    @pytest.mark.parametrize("placement", list(AttentionPlacement))
    def test_matches_full_length_oracle(self, placement, training, t_len):
        cfg = self.config(placement)
        assert receptive_field(cfg) == 15
        x_data = np.random.default_rng(40).standard_normal((2, 3, t_len, cfg.in_features))
        labels = np.array([2, 0])
        runs = []
        for forward in (model_forward, full_length_forward):
            params = init_model(cfg, np.random.default_rng(41))
            x = Tensor(x_data.copy(), requires_grad=True)
            probs = forward(x, params, cfg, training, np.random.default_rng(42))
            T.cross_entropy_mean(probs, labels).backward()
            grads = {name: p.grad for name, p in params.named().items()}
            runs.append((probs.data, x.grad, grads))
        (ours_p, ours_x, ours_g), (full_p, full_x, full_g) = runs

        def close(a, b):
            return a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

        assert close(ours_p, full_p)
        assert close(ours_x, full_x)
        assert ours_g.keys() == full_g.keys()
        for name in full_g:
            assert close(ours_g[name], full_g[name]), name

    def test_dropout_masks_match_the_full_pass(self, monkeypatch):
        # with every weight positive and the residual projection zero, nothing
        # else can zero a unit, so the head's features are zero exactly where
        # the full pass dropped them
        cfg = dataclasses.replace(self.config(AttentionPlacement.NONE), dropout=0.5, filters=(6,))
        params = init_model(cfg, np.random.default_rng(43))
        for p in params.named().values():
            p.data = np.abs(p.data) + 0.01
        params.blocks[0].proj.data = np.zeros_like(params.blocks[0].proj.data)
        x = np.random.default_rng(44).uniform(0.5, 1.0, (4, 3, 30, cfg.in_features))
        _, acts = model_forward(x, params, cfg, True, np.random.default_rng(45), return_activations=True)
        full = acts["features"].data
        dropped = []
        real = T.dropout_layer

        def recording(y, *args):
            dropped.append(real(y, *args))
            return dropped[-1]

        monkeypatch.setattr(T, "dropout_layer", recording)
        model_forward(x, params, cfg, True, np.random.default_rng(45))
        assert len(dropped) == 1 and dropped[0].shape == (12, 6, 1)
        assert np.array_equal(dropped[0].data[:, :, 0] == 0.0, full == 0.0)
        assert np.any(full == 0.0) and np.any(full != 0.0)

    @pytest.mark.parametrize(
        "placement, expected",
        [
            ("pre_tcn_only", (375, {"attention_pre": 99, "block0": 85, "block1": 57, "block2": 1})),
            ("none", (99, {"block0": 85, "block1": 57, "block2": 1})),
            ("post_tcn", (375, {"block0": 375, "block1": 375, "block2": 375, "attention_post": 1})),
            (
                "every_layer",
                (
                    375,
                    {
                        "attention_layer0": 375,
                        "block0": 375,
                        "attention_layer1": 375,
                        "block1": 375,
                        "attention_layer2": 57,
                        "block2": 1,
                    },
                ),
            ),
        ],
    )
    def test_stock_stage_steps(self, placement, expected):
        assert model_mod._stage_steps(ModelConfig(attention_placement=placement), 375) == expected

    def test_short_input_caps_every_stage_at_its_length(self):
        first, steps = model_mod._stage_steps(ModelConfig(), 50)
        assert first == 50 and steps == {"attention_pre": 50, "block0": 50, "block1": 50, "block2": 1}

    def test_stock_attention_builds_window_by_length_scores(self, monkeypatch):
        shapes = []
        real = T.causal_attention

        def recording(q, k, v, *args):
            shapes.append((q.shape, k.shape))
            return real(q, k, v, *args)

        monkeypatch.setattr(T, "causal_attention", recording)
        cfg = ModelConfig()
        params = init_model(cfg, np.random.default_rng(46))
        model_forward(np.random.default_rng(47).standard_normal((6, 375, 30)), params, cfg)
        assert shapes == [((6, 99, 30), (6, 375, 30))]

    def test_activations_are_full_length(self):
        for placement in AttentionPlacement:
            cfg = small_config(attention_placement=placement)
            params = init_model(cfg, np.random.default_rng(48))
            x = np.random.default_rng(49).standard_normal((2, 3, 40, cfg.in_features))
            _, acts = model_forward(x, params, cfg, return_activations=True)
            for name, t in acts.items():
                if name.startswith("attention"):
                    assert t.shape[-2] == 40, name
                elif name.startswith("block"):
                    assert t.shape[-1] == 40, name


class TestReceptiveField:
    def test_stock_config_formula(self):
        assert receptive_field(ModelConfig()) == 99

    def test_tiny_formula(self):
        cfg = ModelConfig(filters=(4,), kernel=2, in_features=3)
        assert receptive_field(cfg) == 2

    def test_probe_matches_formula_small(self):
        cfg = ModelConfig(filters=(4,), kernel=2, in_features=3)
        assert probe_receptive_field(cfg, t_len=10) == 2

    def test_probe_fig5_cone(self):
        # kernel 2 with dilations 1, 2, 4 reaches exactly 8 trailing steps
        cfg = ModelConfig(filters=(3, 3, 3), kernel=2, in_features=2)
        assert receptive_field(cfg) == 8
        assert probe_receptive_field(cfg, t_len=20) == 8

    def test_probe_with_residuals_and_projection(self):
        cfg = ModelConfig(filters=(5, 7), kernel=3, in_features=3)
        assert probe_receptive_field(cfg, t_len=16) == receptive_field(cfg) == 7


class TestParameterCount:
    def test_stock_config_arithmetic(self):
        # attention 2*30*30+900; block1 50*30*15+50 (+1500 projection);
        # blocks 2-3 50*50*15+50; head 12*50+12
        assert parameter_count(ModelConfig()) == 102_462

    def test_head_only_degenerate(self):
        cfg = ModelConfig(
            filters=(), attention_placement="none",
            n_classes=12, in_features=30,
        )
        assert parameter_count(cfg) == 12 * 30 + 12

    def test_doubling_filters(self):
        base = ModelConfig()
        doubled = ModelConfig(filters=(100, 100, 100), d_k=30)
        delta = (
            (100 * 30 * 15 + 100 + 100 * 30)
            - (50 * 30 * 15 + 50 + 50 * 30)
            + 2 * ((100 * 100 * 15 + 100) - (50 * 50 * 15 + 50))
            + (12 * 100 - 12 * 50)
        )
        assert parameter_count(doubled) == parameter_count(base) + delta

    @pytest.mark.parametrize(
        "placement", ["pre_tcn_only", "post_tcn", "every_layer", "none"]
    )
    def test_matches_actual_sizes(self, placement):
        cfg = small_config(attention_placement=placement)
        params = init_model(cfg, np.random.default_rng(0))
        actual = sum(p.size for p in params.named().values())
        assert actual == parameter_count(cfg)


STOCK_BLOCKS = [("block0", None, 30, 1), ("block1", None, 50, 2), ("block2", None, 50, 4)]


class TestStages:
    @pytest.mark.parametrize(
        "placement, expected",
        [
            ("pre_tcn_only", [("attention_pre", "pre", 30, 0), *STOCK_BLOCKS]),
            ("post_tcn", [*STOCK_BLOCKS, ("attention_post", "post", 50, 0)]),
            (
                "every_layer",
                [
                    ("attention_layer0", "layer0", 30, 0),
                    STOCK_BLOCKS[0],
                    ("attention_layer1", "layer1", 50, 0),
                    STOCK_BLOCKS[1],
                    ("attention_layer2", "layer2", 50, 0),
                    STOCK_BLOCKS[2],
                ],
            ),
            ("none", STOCK_BLOCKS),
        ],
    )
    def test_stock_stages(self, placement, expected):
        stages = model_mod._stages(ModelConfig(attention_placement=placement))
        assert [tuple(s) for s in stages] == expected

    def test_every_layer_follows_changing_widths(self):
        cfg = ModelConfig(filters=(6, 8), in_features=5, attention_placement="every_layer")
        assert [tuple(s) for s in model_mod._stages(cfg)] == [
            ("attention_layer0", "layer0", 5, 0),
            ("block0", None, 5, 1),
            ("attention_layer1", "layer1", 6, 0),
            ("block1", None, 6, 2),
        ]

    @pytest.mark.parametrize("placement", [p.value for p in AttentionPlacement])
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"filters": (6, 8), "in_features": 5, "d_k": 3, "kernel": 4}, {"filters": (30, 30)}],
    )
    def test_steps_init_and_count_follow_the_stages(self, placement, overrides):
        cfg = ModelConfig(attention_placement=placement, **overrides)
        stages = model_mod._stages(cfg)
        _, steps = model_mod._stage_steps(cfg, 40)
        assert list(steps) == [s.name for s in reversed(stages)]

        params = init_model(cfg, np.random.default_rng(0))
        sites = [s for s in stages if s.key is not None]
        blocks = [s for s in stages if s.key is None]
        assert list(params.attention) == [s.key for s in sites]
        assert [params.attention[s.key].w_q.shape[1] for s in sites] == [s.width for s in sites]
        assert [b.w.shape[1] for b in params.blocks] == [s.width for s in blocks]
        assert parameter_count(cfg) == self.count_from_stages(cfg)

    def test_stock_count_from_stages(self):
        assert self.count_from_stages(ModelConfig()) == parameter_count(ModelConfig()) == 102_462

    @staticmethod
    def count_from_stages(cfg):
        stages = model_mod._stages(cfg)
        total = sum(2 * cfg.d_k * s.width + s.width**2 for s in stages if s.key is not None)
        for s, c_out in zip([s for s in stages if s.key is None], cfg.filters):
            total += c_out * s.width * cfg.kernel + c_out
            total += c_out * s.width if c_out != s.width else 0
        head_in = cfg.filters[-1] if cfg.filters else cfg.in_features
        return total + cfg.n_classes * head_in + cfg.n_classes


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = small_config()
        params = init_model(cfg, np.random.default_rng(1))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        loaded, loaded_cfg = load_checkpoint(path, expected=cfg)
        assert loaded_cfg == cfg
        for name, p in params.named().items():
            assert np.array_equal(loaded.named()[name].data, p.data)

    def test_config_mismatch_rejected(self, tmp_path):
        cfg = small_config()
        params = init_model(cfg, np.random.default_rng(2))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        other = dataclasses.replace(cfg, kernel=5)
        with pytest.raises(ValueError, match="config"):
            load_checkpoint(path, expected=other)

    def test_forward_identical_after_reload(self, tmp_path):
        cfg = small_config()
        params = init_model(cfg, np.random.default_rng(3))
        x = np.random.default_rng(4).standard_normal((2, 20, 4))
        before = model_forward(x, params, cfg).data
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        loaded, _ = load_checkpoint(path)
        after = model_forward(x, loaded, cfg).data
        assert np.array_equal(before, after)


def _write_legacy_checkpoint(path, params, header: dict) -> None:
    """TCK1 version 1 byte for byte, with `header` as the config echo."""
    named = params.named()
    cfg_blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"TCK1" + struct.pack("<H", 1) + struct.pack("<I", len(cfg_blob)) + cfg_blob)
        fh.write(struct.pack("<I", len(named)))
        for name, p in named.items():
            blob = name.encode("utf-8")
            fh.write(struct.pack("<H", len(blob)) + blob + struct.pack("<B", p.ndim))
            fh.write(struct.pack(f"<{p.ndim}I", *p.shape))
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def _legacy_header(cfg: ModelConfig, **changes) -> dict:
    """The config echo of version 1 checkpoints, which also carried `layers`
    and `dilations` (derived from `filters`), `mask_mode` and `residual`."""
    depth = len(cfg.filters)
    header = dict(
        model_config_to_dict(cfg),
        layers=depth,
        dilations=[2**m for m in range(depth)],
        mask_mode="neg_inf",
        residual=True,
    )
    header.update(changes)
    return header


class TestLegacyCheckpointHeader:
    def test_loads_bitwise_and_evaluates_identically(self, tmp_path):
        cfg = small_config(attention_placement="every_layer")
        params = init_model(cfg, np.random.default_rng(5))
        path = tmp_path / "legacy.ckpt"
        _write_legacy_checkpoint(path, params, _legacy_header(cfg))
        loaded, loaded_cfg = load_checkpoint(path, expected=cfg)
        assert loaded_cfg == cfg
        for name, p in params.named().items():
            assert loaded.named()[name].data.tobytes() == p.data.tobytes()
        x = np.random.default_rng(6).standard_normal((3, 2, 20, 4))
        assert model_forward(x, loaded, cfg).data.tobytes() == model_forward(x, params, cfg).data.tobytes()

    def test_resaved_without_the_derived_keys(self, tmp_path):
        cfg = small_config()
        params = init_model(cfg, np.random.default_rng(5))
        legacy, resaved, expected = (tmp_path / n for n in ("legacy.ckpt", "resaved.ckpt", "expected.ckpt"))
        _write_legacy_checkpoint(legacy, params, _legacy_header(cfg))
        save_checkpoint(resaved, *load_checkpoint(legacy))
        _write_legacy_checkpoint(expected, params, model_config_to_dict(cfg))
        assert resaved.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("layers", 2),
            ("layers", 4),
            ("dilations", [1, 2, 3]),
            ("dilations", [1, 2]),
            ("mask_mode", "zero_literal"),
            ("residual", False),
        ],
    )
    def test_disagreeing_key_rejected_by_name(self, tmp_path, key, value):
        cfg = small_config()
        path = tmp_path / "bad.ckpt"
        _write_legacy_checkpoint(path, init_model(cfg, np.random.default_rng(5)), _legacy_header(cfg, **{key: value}))
        with pytest.raises(ValueError, match=rf"model config key {key} is"):
            load_checkpoint(path)
        with pytest.raises(ValueError, match=rf"model config key {key} is"):
            model_config_from_dict(_legacy_header(cfg, **{key: value}))


def test_config_validation():
    with pytest.raises(ValueError, match="dropout"):
        ModelConfig(dropout=1.0)
    cfg = ModelConfig(attention_placement="post_tcn")
    assert cfg.attention_placement is AttentionPlacement.POST_TCN


@pytest.mark.parametrize("filters", [(4, 0, 0), (4, 0, 4), (0,), (-1, 8)])
def test_config_rejects_widths_below_one(filters):
    with pytest.raises(ValueError, match=r"filters .* must all be >= 1"):
        ModelConfig(filters=filters)


def test_config_rejects_every_layer_attention_without_blocks():
    # With no blocks, every_layer would make a site `layer0` that no forward
    # pass calls: parameters that only weight decay would ever touch.
    with pytest.raises(ValueError, match="every_layer needs at least one filter block"):
        ModelConfig(filters=(), attention_placement="every_layer")
    assert ModelConfig(filters=(), attention_placement="post_tcn").filters == ()
