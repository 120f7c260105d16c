"""Layer-level oracles: closed-form numpy references for each building block."""

import numpy as np
import pytest

from ccir import autograd as ag
from ccir.alignment import attention_pool_batch_node
from ccir.layers import (
    attention_core,
    ffn,
    gru_step,
    init_ffn,
    init_gru,
    init_layer_norm,
    init_linear,
    init_mha,
    init_transformer_layer,
    layer_norm,
    linear,
    mha,
    transformer_layer,
    uniform_init,
)


def as_nodes(params):
    return {k: ag.leaf(v) for k, v in params.items()}


def np_softmax(z, axis=-1):
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def np_block_diag_mask(lengths):
    """(L x L), L = sum(lengths): 0 inside each diagonal block, -1e9 elsewhere."""
    total = int(sum(lengths))
    mask = np.full((total, total), -1e9, dtype=np.float32)
    start = 0
    for n in lengths:
        mask[start : start + n, start : start + n] = 0.0
        start += n
    return mask


def np_masked_attention(q, k, v, heads, mask):
    """Dense attention over stacked 2-D rows with an additive -1e9 mask:
    every score is formed, the masked ones are thrown away."""
    dh = q.shape[1] // heads
    cols = [slice(h * dh, (h + 1) * dh) for h in range(heads)]
    return np.concatenate(
        [np_softmax(q[:, c] @ k[:, c].T / np.sqrt(dh) + mask, axis=1) @ v[:, c] for c in cols],
        axis=1,
    )


def test_uniform_init_range_and_dtype():
    rng = np.random.default_rng(0)
    t = uniform_init(rng, 16, (100, 8))
    assert t.data.dtype == np.float32
    assert abs(t.data).max() <= 0.25 + 1e-6


def test_linear_matches_manual():
    rng = np.random.default_rng(1)
    params = {}
    init_linear(rng, params, "fc", 5, 3)
    x = rng.normal(size=(4, 5)).astype(np.float32)
    out = linear(as_nodes(params), "fc", ag.leaf(x))
    want = x @ params["fc/w"].data + params["fc/b"].data
    assert np.allclose(out.value, want, atol=1e-6)


def test_layer_norm_standardizes_then_shifts():
    rng = np.random.default_rng(2)
    params = {}
    init_layer_norm(rng, params, "ln", 8)
    x = rng.normal(2.0, 3.0, size=(6, 8)).astype(np.float32)
    out = layer_norm(as_nodes(params), "ln", ag.leaf(x)).value
    assert np.abs(out.mean(axis=1)).max() < 1e-5
    assert np.abs(out.var(axis=1) - 1.0).max() < 1e-3

    params["ln/g"] = type(params["ln/g"])(np.full(8, 2.0, np.float32))
    params["ln/b"] = type(params["ln/b"])(np.full(8, -1.0, np.float32))
    out2 = layer_norm(as_nodes(params), "ln", ag.leaf(x)).value
    assert np.allclose(out2, out * 2.0 - 1.0, atol=1e-5)


def test_attention_single_key_copies_value():
    rng = np.random.default_rng(3)
    q = rng.normal(size=(3, 4)).astype(np.float32)
    kv = rng.normal(size=(1, 4)).astype(np.float32)
    out = attention_core(ag.leaf(q), ag.leaf(kv), ag.leaf(kv), n_heads=2)
    assert np.allclose(out.value, np.repeat(kv, 3, axis=0), atol=1e-6)


def test_attention_matches_numpy_reference():
    rng = np.random.default_rng(4)
    d, heads = 6, 3
    q = rng.normal(size=(5, d)).astype(np.float32)
    k = rng.normal(size=(7, d)).astype(np.float32)
    v = rng.normal(size=(7, d)).astype(np.float32)
    out = attention_core(ag.leaf(q), ag.leaf(k), ag.leaf(v), n_heads=heads).value
    dh = d // heads
    cols = [slice(h * dh, (h + 1) * dh) for h in range(heads)]
    want = np.concatenate(
        [np_softmax(q[:, c] @ k[:, c].T / np.sqrt(dh), axis=1) @ v[:, c] for c in cols],
        axis=1,
    )
    assert np.allclose(out, want, atol=1e-5)


def test_attention_rejects_indivisible_heads():
    x = ag.leaf(np.zeros((2, 5), np.float32))
    with pytest.raises(ValueError):
        attention_core(x, x, x, n_heads=2)


def test_masked_attention_isolates_segments():
    """Unequal segments padded to (n, T) keys: shuffling one segment must
    not leak into the other's outputs."""
    rng = np.random.default_rng(5)
    d = 4
    a = rng.normal(size=(3, d)).astype(np.float32)
    b = rng.normal(size=(2, d)).astype(np.float32)

    mask = np.array([[[0, 0, 0]], [[0, 0, -1e9]]], np.float32)

    def run(second):
        # the padding repeats the second segment's last row
        x = ag.leaf(np.stack([a, np.concatenate([second, second[-1:]])]))
        return attention_core(x, x, x, 2, mask).value

    out1 = run(b)
    out2 = run(b[::-1].copy())
    assert np.allclose(out1[0], out2[0], atol=1e-6)
    assert not np.allclose(out1[1, :2], out2[1, :2], atol=1e-4)


def test_batched_attention_matches_dense_masked_oracle():
    """Attention on (n, L, d) equals dense attention over the (n*L) stack
    with a block-diagonal -1e9 mask; with padded keys it equals the same
    oracle over the unpadded rows."""
    rng = np.random.default_rng(13)
    n, L, d, heads = 3, 4, 6, 3
    q, k, v = (rng.normal(size=(n, L, d)).astype(np.float32) for _ in range(3))
    got = attention_core(*(ag.leaf(a) for a in (q, k, v)), heads).value
    want = np_masked_attention(*(a.reshape(n * L, d) for a in (q, k, v)), heads,
                               np_block_diag_mask([L] * n))
    assert np.allclose(got.reshape(n * L, d), want, atol=1e-5)

    lengths = [4, 1, 3]
    mask = np.where(np.arange(L) < np.array(lengths)[:, None], 0.0, -1e9).astype(np.float32)
    mask = mask[:, None, :]
    got = attention_core(*(ag.leaf(a) for a in (q, k, v)), heads, mask).value
    # each query row takes the block row of its example's first key
    starts = np.cumsum(lengths) - lengths
    want = np_masked_attention(
        q.reshape(n * L, d),
        np.concatenate([k[i, :m] for i, m in enumerate(lengths)]),
        np.concatenate([v[i, :m] for i, m in enumerate(lengths)]),
        heads,
        np_block_diag_mask(lengths)[np.repeat(starts, L)],
    )
    assert np.allclose(got.reshape(n * L, d), want, atol=1e-5)


def test_pair_attention_matches_masked_attention():
    """On (n, L, 2, d) cell pairs a token attends to itself and the same
    cell of the other image only: the same as dense attention over each
    example's 2L tokens with every other key masked out.  On (n, L, 1, d)
    a softmax over one key is exactly 1, so each token copies its value."""
    rng = np.random.default_rng(12)
    n, L, d, heads = 2, 5, 8, 2
    q, k, v = (rng.normal(size=(n, L, 2, d)).astype(np.float32) for _ in range(3))
    got = attention_core(*(ag.leaf(a) for a in (q, k, v)), heads).value

    def rows(a):  # each example's L reference cells, then its L target cells
        return a.transpose(0, 2, 1, 3).reshape(-1, d)

    example, cell = np.repeat(np.arange(n), 2 * L), np.tile(np.arange(L), 2 * n)
    keep = (example[:, None] == example) & (cell[:, None] == cell)
    mask = np.where(keep, 0.0, -1e9).astype(np.float32)
    want = np_masked_attention(rows(q), rows(k), rows(v), heads, mask)
    assert np.allclose(rows(got), want, atol=1e-5)
    single = [ag.leaf(a[:, :, :1]) for a in (q, k, v)]
    assert np.array_equal(attention_core(*single, heads).value, v[:, :, :1])


def test_mha_matches_projection_oracle():
    rng = np.random.default_rng(6)
    d = 4
    params = {}
    init_mha(rng, params, "att", d)
    x = rng.normal(size=(3, d)).astype(np.float32)
    out = mha(as_nodes(params), "att", ag.leaf(x), ag.leaf(x), ag.leaf(x), n_heads=1).value
    q = x @ params["att/q/w"].data + params["att/q/b"].data
    k = x @ params["att/k/w"].data + params["att/k/b"].data
    v = x @ params["att/v/w"].data + params["att/v/b"].data
    core = np_softmax(q @ k.T / np.sqrt(d), axis=1) @ v
    want = core @ params["att/o/w"].data + params["att/o/b"].data
    assert np.allclose(out, want, atol=1e-5)


def test_silu_identity_points():
    x = np.array([[-20.0, 0.0, 20.0]], dtype=np.float32)
    out = ag.silu(ag.leaf(x)).value
    assert abs(out[0, 0]) < 1e-6
    assert out[0, 1] == 0.0
    assert abs(out[0, 2] - 20.0) < 1e-5
    rng = np.random.default_rng(7)
    z = rng.normal(size=(4, 5)).astype(np.float32)
    assert np.allclose(ag.silu(ag.leaf(z)).value, z / (1 + np.exp(-z)), atol=1e-6)


def test_ffn_matches_manual():
    rng = np.random.default_rng(8)
    params = {}
    init_ffn(rng, params, "f", 4, 8)
    x = rng.normal(size=(2, 4)).astype(np.float32)
    out = ffn(as_nodes(params), "f", ag.leaf(x)).value
    h = x @ params["f/in/w"].data + params["f/in/b"].data
    h = h / (1 + np.exp(-h))
    want = h @ params["f/out/w"].data + params["f/out/b"].data
    assert np.allclose(out, want, atol=1e-5)


def test_transformer_layer_residual_grows_from_input():
    rng = np.random.default_rng(9)
    params = {}
    init_transformer_layer(rng, params, "t", 4)
    x = rng.normal(size=(5, 4)).astype(np.float32)
    out = transformer_layer(as_nodes(params), "t", ag.leaf(x), n_heads=2).value
    assert out.shape == x.shape
    assert np.isfinite(out).all()
    # with small-scale init the residual stream stays near the input
    assert np.abs(out - x).max() < np.abs(x).max() + 5.0


def test_gru_step_matches_manual_gates():
    rng = np.random.default_rng(10)
    params = {}
    init_gru(rng, params, "g", 3, 4)
    x = rng.normal(size=(2, 3)).astype(np.float32)
    h = rng.normal(size=(2, 4)).astype(np.float32)
    out = gru_step(as_nodes(params), "g", ag.leaf(x), ag.leaf(h), np.array([True, False])).value

    def sig(a):
        return 1 / (1 + np.exp(-a))

    def gate(name):
        return x @ params[f"g/{name}/w"].data + h @ params[f"g/{name}/u"].data + params[f"g/{name}/b"].data

    r, z = sig(gate("r")), sig(gate("z"))
    n = np.tanh(x @ params["g/n/w"].data + r * (h @ params["g/n/u"].data) + params["g/n/b"].data)
    want = (1 - z) * n + z * h
    assert np.allclose(out[0], want[0], atol=1e-5)
    # a padded row keeps its state exactly
    assert np.array_equal(out[1], h[1])


def test_gru_saturated_update_gate_keeps_state():
    """Huge positive z-gate bias makes the cell copy its previous state."""
    rng = np.random.default_rng(11)
    params = {}
    init_gru(rng, params, "g", 3, 4)
    from ccir.tensor import Tensor

    params["g/z/b"] = Tensor(np.full(4, 50.0, np.float32))
    x = rng.normal(size=(2, 3)).astype(np.float32)
    h = rng.normal(size=(2, 4)).astype(np.float32)
    out = gru_step(as_nodes(params), "g", ag.leaf(x), ag.leaf(h), np.ones(2, bool)).value
    assert np.allclose(out, h, atol=1e-4)


def test_segment_softmax_pool_matches_per_segment_oracle():
    """The attention pool softmaxes each example's token logits on its own."""
    rng = np.random.default_rng(12)
    n, L, d = 3, 4, 5
    toks = rng.normal(size=(n, L, d)).astype(np.float32)
    params = {"pool/w": rng.normal(size=(d, 1)).astype(np.float32),
              "pool/b": rng.normal(size=1).astype(np.float32)}
    w_all, pooled = attention_pool_batch_node(as_nodes(params), ag.leaf(toks))
    for i in range(n):
        logits = toks[i] @ params["pool/w"] + params["pool/b"]
        w = np_softmax(logits[:, 0])
        assert np.allclose(w_all.value[i, :, 0], w, atol=1e-6)
        assert np.allclose(pooled.value[i], w @ toks[i], atol=1e-5)
    assert np.allclose(w_all.value.sum(axis=1), 1.0, atol=1e-6)
