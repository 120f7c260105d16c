"""Progressive fusion of reference tokens with the modifier.

The modifier is decomposed into K step indicators: K queries FC_i(q)
attend over its word features in one pass.  One transformer block is
instantiated K times: four generator heads map all K indicators at once
to the scale/shift pairs of the block's two normalization sites, while
the block's attention and feed-forward weights are the same at every
step.  Applying the block K times from the raw reference tokens, step i
reading instance i, yields the fused query feature.

The graph builders work on a whole batch, with tokens as (n, L, d).
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .layers import (
    adaptive_norm_node,
    attention_core,
    ffn,
    init_ffn,
    init_layer_norm,
    init_linear,
    init_mha,
    layer_norm,
    linear,
    mha,
)
from .tensor import Tensor

PREFIX = "fusion"
BLOCK = PREFIX + "/block"
COSINE_EPS = 1e-12


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def init_fusion(rng, params: dict, d: int, k_steps: int) -> None:
    for i in range(k_steps):
        init_linear(rng, params, f"{PREFIX}/seq/fc{i}", d, d)
    init_mha(rng, params, f"{PREFIX}/seq/attn", d)
    for head in ("mu1", "sg1", "mu2", "sg2"):
        init_linear(rng, params, f"{PREFIX}/gen/{head}", d, d)
    # the sigma biases start at 1, so each step starts near a plain
    # normalization; at 0 the generated scale would be ~0 with random sign
    # and the first step would erase the reference tokens
    for head in ("sg1", "sg2"):
        params[f"{PREFIX}/gen/{head}/b"] = Tensor(np.ones(d, dtype=np.float32))
    init_linear(rng, params, BLOCK + "/qkv", d, 3 * d)
    init_linear(rng, params, BLOCK + "/attn_o", d, d)
    init_ffn(rng, params, BLOCK + "/ffn", d, 2 * d)
    # learned-affine site norms, used only by the plain-LN variant
    init_layer_norm(rng, params, BLOCK + "/ln1", d)
    init_layer_norm(rng, params, BLOCK + "/ln2", d)


# ---------------------------------------------------------------------------
# graph builders (batched)
# ---------------------------------------------------------------------------


def fusion_sequence_batch_node(p, q, words, key_mask, k_steps: int, n_heads: int):
    """K indicators per example: attended word summaries driven by FC_i(q).

    q: n x d; words: (n, T, d) padded word features with their (n, 1, T)
    additive key mask, so each example's queries attend over its own words.
    The K queries are stacked as (n, K, d) and attend in one pass, so each
    word is projected to a key and a value once.  Returns (n, K, d).
    """
    n, d = q.shape
    queries = ag.concat(
        [ag.reshape(linear(p, f"{PREFIX}/seq/fc{i}", q), (n, 1, d)) for i in range(k_steps)],
        axis=1,
    )
    return mha(p, f"{PREFIX}/seq/attn", queries, words, words, n_heads, key_mask)


def instantiate_block_batch_node(p, s):
    """Four affine heads map indicators (n, K, d) to per-example, per-step
    (mu, sigma), each (n, K, d)."""
    return {
        "mu1": linear(p, f"{PREFIX}/gen/mu1", s),
        "sg1": linear(p, f"{PREFIX}/gen/sg1", s),
        "mu2": linear(p, f"{PREFIX}/gen/mu2", s),
        "sg2": linear(p, f"{PREFIX}/gen/sg2", s),
    }


def fusion_step_batch_node(p, f_prev, inst, n_heads: int, step: int, plain_ln: bool = False):
    """Application ``step`` of the block over each example's reference tokens.

    f_prev: (n, L, d); inst: generator outputs, each (n, K, d), of which
    row ``step`` is read as (n, 1, d) and broadcast over an example's
    tokens (ignored when plain_ln selects the learned layer-norm affine
    instead).  Attention stays within each example.  Returns (n, L, d).
    """
    d = f_prev.shape[-1]

    def site_norm(x, which: str):
        if plain_ln:
            return layer_norm(p, f"{BLOCK}/ln{which}", x)
        mu = inst["mu" + which][:, step : step + 1]
        sg = inst["sg" + which][:, step : step + 1]
        return adaptive_norm_node(x, mu, sg)

    f1 = site_norm(f_prev, "1")
    qkv = linear(p, BLOCK + "/qkv", f1)
    q, k, v = qkv[..., :d], qkv[..., d : 2 * d], qkv[..., 2 * d :]
    att = linear(p, BLOCK + "/attn_o", attention_core(q, k, v, n_heads))
    f2 = att + f1
    f3 = site_norm(f2, "2")
    return ffn(p, BLOCK + "/ffn", f3) + f3


def l2_normalize_rows_node(x):
    """Rows scaled to unit length; all-zero rows map to all-zero rows."""
    sq = ag.sum_(x * x, axis=1, keepdims=True)
    return x / ag.sqrt(sq + COSINE_EPS**2)


def batch_classification_loss_node(score_matrix, gamma: float):
    """-mean_i log softmax_row(gamma * scores)_ii over an n x n matrix."""
    n = score_matrix.shape[0]
    probs = ag.softmax(score_matrix * float(gamma), axis=1)
    diag = probs[np.arange(n), np.arange(n)]
    return -ag.mean(ag.log(diag))


def total_loss_node(l_m, l_c, alpha: float):
    if alpha < 0:
        raise ValueError(f"loss weight must be non-negative, got {alpha}")
    if l_c is None or alpha == 0.0:
        return l_m
    return l_m + float(alpha) * l_c
