"""Full-length model pass kept as the reference oracle for the receptive-field
window of `model.model_forward`.

Every stage runs on all T steps and the head then reads the last one, as the
model did before it computed only what the head reads. Dropout draws each
block's mask at the full (N, C, T) shape from the same rng, so the windowed
pass must match this one up to float rounding: outputs and every parameter
gradient.
"""

import numpy as np

from csi_tcn import model as model_mod
from csi_tcn import tensor as T
from csi_tcn.model import AttentionPlacement, _dilations
from csi_tcn.tensor import Tensor


def full_length_forward(x, params, cfg, training=False, rng=None):
    if not isinstance(x, Tensor):
        x = Tensor(np.asarray(x, dtype=np.float64))
    batch, pairs, t_len, feats = x.shape
    h = T.reshape(x, (batch * pairs, t_len, feats))
    if cfg.attention_placement is AttentionPlacement.PRE_TCN_ONLY:
        h = model_mod.attention_forward(h, params.attention["pre"])
    z = T.transpose(h, (0, 2, 1))
    for m, (block, dilation) in enumerate(zip(params.blocks, _dilations(cfg))):
        if cfg.attention_placement is AttentionPlacement.EVERY_LAYER:
            ht = model_mod.attention_forward(T.transpose(z, (0, 2, 1)), params.attention[f"layer{m}"])
            z = T.transpose(ht, (0, 2, 1))
        z = model_mod.tcn_block_forward(z, block, dilation, cfg.dropout, training, rng)
    if cfg.attention_placement is AttentionPlacement.POST_TCN:
        ht = model_mod.attention_forward(T.transpose(z, (0, 2, 1)), params.attention["post"])
        z = T.transpose(ht, (0, 2, 1))
    logits = T.linear(T.index(z, (slice(None), slice(None), -1)), params.head_w, params.head_b)
    pair_probs = T.softmax_rows(logits)
    return T.mean_over_axis(T.reshape(pair_probs, (batch, pairs, cfg.n_classes)), axis=1)
