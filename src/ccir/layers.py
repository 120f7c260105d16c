"""Graph-building neural layers shared across the model.

Each layer comes as a pair: ``init_*`` writes freshly initialized Tensors
into a plain dict keyed by parameter path, and the forward function builds
graph nodes from a matching dict of leaf nodes.  The forward functions are
thin wrappers over the fused primitives of ``autograd`` (one node per
linear map, norm, multi-head attention, SiLU and GRU step).  Weights
start at uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) and biases at zero.
"""

from __future__ import annotations

import math

import numpy as np

from . import autograd as ag
from .tensor import Tensor


def uniform_init(rng: np.random.Generator, fan_in: int, shape) -> Tensor:
    scale = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-scale, scale, size=shape).astype(np.float32))


# -- linear -----------------------------------------------------------------


def init_linear(rng, params: dict, prefix: str, fan_in: int, fan_out: int) -> None:
    params[prefix + "/w"] = uniform_init(rng, fan_in, (fan_in, fan_out))
    params[prefix + "/b"] = Tensor.zeros((fan_out,))


def linear(p, prefix: str, x):
    return ag.linear(x, p[prefix + "/w"], p[prefix + "/b"])


# -- layer norm -------------------------------------------------------------

NORM_EPS = 1e-5


def adaptive_norm_node(x, mu, sigma):
    """Per-token standardization over the last axis, then externally
    supplied scale and shift."""
    return ag.adaptive_norm(x, mu, sigma, NORM_EPS)


def init_layer_norm(rng, params: dict, prefix: str, d: int) -> None:
    params[prefix + "/g"] = Tensor(np.ones(d, dtype=np.float32))
    params[prefix + "/b"] = Tensor.zeros((d,))


def layer_norm(p, prefix: str, x):
    """Standardization with a learned scale and shift."""
    return adaptive_norm_node(x, p[prefix + "/b"], p[prefix + "/g"])


# -- multi-head attention ---------------------------------------------------


def attention_core(q, k, v, n_heads: int, key_mask=None):
    """Scaled dot-product attention over the tokens of each leading index.

    q: (..., Lq, d), k and v: (..., Lk, d), already projected; one fused
    ``attention`` node splits the heads, attends and merges them.
    ``key_mask`` (a constant array broadcastable to (..., Lq, Lk), 0 for a
    live key and -1e9 for a padded one) is added to the logits before the
    softmax.  The benchmark's tracer times attention through this name.
    """
    return ag.attention(q, k, v, n_heads, key_mask)


def init_mha(rng, params: dict, prefix: str, d: int) -> None:
    for name in ("q", "k", "v", "o"):
        init_linear(rng, params, f"{prefix}/{name}", d, d)


def mha(p, prefix: str, q_in, k_in, v_in, n_heads: int, key_mask=None):
    q = linear(p, prefix + "/q", q_in)
    k = linear(p, prefix + "/k", k_in)
    v = linear(p, prefix + "/v", v_in)
    return linear(p, prefix + "/o", attention_core(q, k, v, n_heads, key_mask))


# -- feed-forward -----------------------------------------------------------


def init_ffn(rng, params: dict, prefix: str, d: int, hidden: int) -> None:
    init_linear(rng, params, prefix + "/in", d, hidden)
    init_linear(rng, params, prefix + "/out", hidden, d)


def ffn(p, prefix: str, x):
    return linear(p, prefix + "/out", ag.silu(linear(p, prefix + "/in", x)))


# -- pre-norm transformer layer ---------------------------------------------


def init_transformer_layer(rng, params: dict, prefix: str, d: int) -> None:
    init_layer_norm(rng, params, prefix + "/ln1", d)
    init_mha(rng, params, prefix + "/attn", d)
    init_layer_norm(rng, params, prefix + "/ln2", d)
    init_ffn(rng, params, prefix + "/ffn", d, 2 * d)


def transformer_layer(p, prefix: str, x, n_heads: int):
    """Self-attention over the L tokens of each leading index of x:
    (..., L, d).  The image encoder runs it over (n, L, d) images; the
    joint encoder over (n, L, 2, d) cell pairs."""
    h = layer_norm(p, prefix + "/ln1", x)
    x = x + mha(p, prefix + "/attn", h, h, h, n_heads)
    h2 = layer_norm(p, prefix + "/ln2", x)
    return x + ffn(p, prefix + "/ffn", h2)


# -- GRU cell ---------------------------------------------------------------


def init_gru(rng, params: dict, prefix: str, in_dim: int, hidden: int) -> None:
    for gate in ("r", "z", "n"):
        params[f"{prefix}/{gate}/w"] = uniform_init(rng, in_dim, (in_dim, hidden))
        params[f"{prefix}/{gate}/u"] = uniform_init(rng, hidden, (hidden, hidden))
        params[f"{prefix}/{gate}/b"] = Tensor.zeros((hidden,))


def gru_step(p, prefix: str, x, h, live):
    """One gated recurrent update; x: N x in_dim, h: N x hidden.  Rows
    where ``live`` (N,) is false keep their state."""
    w, u, b = (tuple(p[f"{prefix}/{gate}/{kind}"] for gate in ("r", "z", "n")) for kind in "wub")
    return ag.gru_cell(x, h, w, u, b, live)
