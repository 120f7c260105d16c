"""Meta-fusion: indicators, generated norm parameters, shared block, losses."""

import numpy as np
import pytest

from ccir import autograd as ag
from ccir.alignment import attention_pool_batch_node
from ccir.fusion import (
    adaptive_norm_node,
    batch_classification_loss_node,
    fusion_sequence_batch_node,
    fusion_step_batch_node,
    init_fusion,
    instantiate_block_batch_node,
    l2_normalize_rows_node,
    total_loss_node,
)
from ccir.layers import linear, mha
from ccir.tensor import ParameterSet, Tensor


def make_params(seed=0, d=8, k=3):
    rng = np.random.default_rng(seed)
    params = {}
    init_fusion(rng, params, d, k)
    return ParameterSet(params)


def nodes(params):
    return {k: ag.leaf(v) for k, v in params.items()}


def indicators(q, t, params, k_steps):
    """K x d step indicators of one example: query q (d,), words t (L_w x d)."""
    out = fusion_sequence_batch_node(nodes(params), ag.leaf(q[None]), ag.leaf(t[None]),
                                     np.zeros((1, 1, len(t)), np.float32), k_steps, 2)
    assert out.shape == (1, k_steps, len(q))
    return out.value[0]


def instantiate(s, params):
    """Generated (mu, sigma) heads for one indicator s (d,), each (d,)."""
    out = instantiate_block_batch_node(nodes(params), ag.leaf(s[None]))
    return {k: v.value[0] for k, v in out.items()}


def apply_step(tokens, inst, params, step=0):
    """Block application ``step`` to one example's L x d tokens, given its
    (K, d) instance heads."""
    out = fusion_step_batch_node(
        nodes(params), ag.leaf(tokens[None]), {k: ag.leaf(v[None]) for k, v in inst.items()},
        2, step,
    )
    assert out.shape == (1,) + tokens.shape
    return out.value[0]


# -- fusion sequence --------------------------------------------------------


def test_sequence_shape_and_k():
    params = make_params()
    rng = np.random.default_rng(1)
    q = rng.normal(size=8).astype(np.float32)
    t = rng.normal(size=(4, 8)).astype(np.float32)
    assert indicators(q, t, params, k_steps=3).shape == (3, 8)


def test_sequence_single_word_ignores_projections():
    """With one key the attention weight is 1, so every step indicator equals
    that word's value projection no matter what FC_i computes."""
    params = make_params()
    rng = np.random.default_rng(2)
    q1 = rng.normal(size=8).astype(np.float32)
    q2 = rng.normal(size=8).astype(np.float32)
    t = rng.normal(size=(1, 8)).astype(np.float32)
    a = indicators(q1, t, params, k_steps=3)
    b = indicators(q2, t, params, k_steps=3)
    assert np.allclose(a, b, atol=1e-6)
    assert np.allclose(a[0], a[1], atol=1e-6)
    assert np.allclose(a[1], a[2], atol=1e-6)


def test_sequence_steps_differ_with_multiple_words():
    params = make_params()
    rng = np.random.default_rng(3)
    q = rng.normal(size=8).astype(np.float32)
    t = rng.normal(size=(5, 8)).astype(np.float32)
    s = indicators(q, t, params, k_steps=3)
    assert not np.allclose(s[0], s[1], atol=1e-4)
    assert not np.allclose(s[1], s[2], atol=1e-4)


def test_sequence_ignores_padded_words():
    """In a ragged batch, overwriting the padded word rows leaves every
    indicator bit-identical."""
    params = make_params()
    rng = np.random.default_rng(5)
    q = rng.normal(size=(3, 8)).astype(np.float32)
    words = rng.normal(size=(3, 5, 8)).astype(np.float32)
    live = np.arange(5) < np.array([5, 2, 3])[:, None]
    key_mask = np.where(live, 0.0, -1e9).astype(np.float32)[:, None, :]

    def run(w):
        out = fusion_sequence_batch_node(nodes(params), ag.leaf(q), ag.leaf(w), key_mask, 3, 2)
        return out.value

    overwritten = np.where(live[..., None], words, 1e3 * rng.normal(size=words.shape))
    assert np.array_equal(run(words), run(overwritten.astype(np.float32)))


def ragged_words(seed):
    """Queries, words and key mask of three examples with 5, 2 and 3 words."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(3, 8)).astype(np.float32)
    words = rng.normal(size=(3, 5, 8)).astype(np.float32)
    live = np.arange(5) < np.array([5, 2, 3])[:, None]
    return q, words, np.where(live, 0.0, -1e9).astype(np.float32)[:, None, :]


def test_one_pass_indicators_match_per_step_attention():
    """Attending with the K stacked queries at once gives what K separate
    single-query attentions over the same words give."""
    p = nodes(make_params())
    q, words, key_mask = ragged_words(16)
    out = fusion_sequence_batch_node(p, ag.leaf(q), ag.leaf(words), key_mask, 3, 2).value
    assert out.shape == (3, 3, 8)
    for i in range(3):
        fq = ag.reshape(linear(p, f"fusion/seq/fc{i}", ag.leaf(q)), (3, 1, 8))
        want = mha(p, "fusion/seq/attn", fq, ag.leaf(words), ag.leaf(words), 2, key_mask)
        assert np.allclose(out[:, i], want.value[:, 0], atol=1e-6)


def test_words_are_projected_once():
    """The key and value weights each feed one node (their projection) in
    the sequence graph, however many steps read the words."""
    p = nodes(make_params())
    q, words, key_mask = ragged_words(17)
    out = fusion_sequence_batch_node(p, ag.leaf(q), ag.leaf(words), key_mask, 3, 2)
    graph, stack = {}, [out]
    while stack:
        node = stack.pop()
        if id(node) not in graph:
            graph[id(node)] = node
            stack.extend(node.parents)
    for name in ("k", "v"):
        w = p[f"fusion/seq/attn/{name}/w"]
        users = [nd for nd in graph.values() if w in nd.parents]
        assert len(users) == 1, name


# -- block instantiation ----------------------------------------------------


def test_instantiate_zero_input_zero_heads():
    params = dict(make_params().items())
    for key in list(params):
        if "/gen/" in key:
            params[key] = Tensor.zeros(params[key].shape)
    inst = instantiate(np.zeros(8, np.float32), ParameterSet(params))
    for arr in inst.values():
        assert np.array_equal(arr, np.zeros(8, np.float32))


def test_instantiate_matches_affine_oracle():
    params = make_params()
    rng = np.random.default_rng(4)
    s = rng.normal(size=8).astype(np.float32)
    inst = instantiate(s, params)
    want_mu1 = s @ params["fusion/gen/mu1/w"].data + params["fusion/gen/mu1/b"].data
    want_sg2 = s @ params["fusion/gen/sg2/w"].data + params["fusion/gen/sg2/b"].data
    assert np.allclose(inst["mu1"], want_mu1, atol=1e-6)
    assert np.allclose(inst["sg2"], want_sg2, atol=1e-6)


def test_zero_indicator_instantiates_identity_scale():
    """The sigma generators start with bias 1 and the mu generators with
    bias 0, so a fresh block begins as a plain normalization."""
    inst = instantiate(np.zeros(8, np.float32), make_params())
    assert np.array_equal(inst["sg1"], np.ones(8, np.float32))
    assert np.array_equal(inst["sg2"], np.ones(8, np.float32))
    assert np.array_equal(inst["mu1"], np.zeros(8, np.float32))
    assert np.array_equal(inst["mu2"], np.zeros(8, np.float32))


def test_instantiate_heads_are_independent():
    params = dict(make_params().items())
    s = np.random.default_rng(5).normal(size=8).astype(np.float32)
    before = instantiate(s, ParameterSet(params))
    perturbed = dict(params)
    perturbed["fusion/gen/mu1/w"] = Tensor(
        params["fusion/gen/mu1/w"].data + 0.5
    )
    after = instantiate(s, ParameterSet(perturbed))
    assert not np.allclose(after["mu1"], before["mu1"])
    assert np.array_equal(after["sg2"], before["sg2"])
    assert np.array_equal(after["mu2"], before["mu2"])
    assert np.array_equal(after["sg1"], before["sg1"])


# -- adaptive normalization -------------------------------------------------


def norm_rows(x, mu, sigma):
    """The node standardizes each row of x, in x's dtype, then applies the
    broadcast scale sigma and shift mu."""
    return adaptive_norm_node(ag.leaf(x), ag.leaf(mu), ag.leaf(sigma)).value


def np_adaptive_norm(x, mu, sigma, eps=1e-5):
    """Brute-force float64 adaptive normalization over the last axis."""
    x64 = np.asarray(x, dtype=np.float64)
    m = x64.mean(axis=-1, keepdims=True)
    v = x64.var(axis=-1, keepdims=True)
    return sigma * (x64 - m) / np.sqrt(v + eps) + mu


def test_adaptive_norm_identity_instantiation():
    rng = np.random.default_rng(6)
    x = rng.normal(3.0, 2.0, size=(6, 8)).astype(np.float32)
    out = norm_rows(x, np.zeros(8, np.float32), np.ones(8, np.float32))
    assert np.abs(out.mean(axis=1)).max() <= 1e-5
    assert np.abs(out.var(axis=1) - 1.0).max() <= 1e-4


def test_adaptive_norm_hand_example():
    """Row [1,3] standardizes to [-1,1]; scale 2 shift 5 lands on [3,7]."""
    x = np.array([[1.0, 3.0]], dtype=np.float32)
    out = norm_rows(x, np.full(2, 5.0, np.float32), np.full(2, 2.0, np.float32))
    # analytic value under the 1e-5 variance floor
    want = 5.0 + 2.0 * np.array([-1.0, 1.0]) / np.sqrt(1.0 + 1e-5)
    assert np.allclose(out[0], want, atol=1e-6)
    assert np.allclose(out[0], [3.0, 7.0], atol=1e-4)


def test_adaptive_norm_constant_row_collapses_to_mu():
    x = np.full((2, 4), 3.25, dtype=np.float32)
    mu = np.array([1.0, 2.0, 3.0, 4.0], np.float32)
    out = norm_rows(x, mu, np.ones(4, np.float32))
    assert np.allclose(out, np.tile(mu, (2, 1)), atol=1e-6)


def test_adaptive_norm_round_trip():
    """De-standardizing with the row's own stats recovers the input."""
    rng = np.random.default_rng(7)
    x = rng.normal(0.0, 2.0, size=(5, 8)).astype(np.float32)
    m = x.mean(axis=1, keepdims=True).astype(np.float64)
    sd = np.sqrt(x.astype(np.float64).var(axis=1, keepdims=True) + 1e-5)
    norm = norm_rows(x, np.zeros(8, np.float32), np.ones(8, np.float32))
    back = norm * sd + m
    assert np.abs(back - x).max() <= 1e-5


def test_adaptive_norm_node_matches_numpy():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(4, 6)).astype(np.float32)
    mu = rng.normal(size=(1, 6)).astype(np.float32)
    sg = rng.normal(size=(1, 6)).astype(np.float32)
    node = adaptive_norm_node(ag.leaf(x), ag.leaf(mu), ag.leaf(sg))
    want = np_adaptive_norm(x, mu[0], sg[0])
    assert np.allclose(node.value, want, atol=1e-5)


# -- fusion step ------------------------------------------------------------


def rand_instance(rng, d=8, k=1):
    """(k, d) heads from k independent draws of each head's row."""
    return {
        name: np.stack([rng.normal(size=d).astype(np.float32) for _ in range(k)])
        for name in ("mu1", "sg1", "mu2", "sg2")
    }


def test_fusion_step_preserves_shape_and_counts_steps():
    """A step maps L x d tokens to L x d, and step i reads row i of the
    instance: editing row 1 leaves step 0 bit-identical."""
    params = make_params()
    rng = np.random.default_rng(9)
    f = rng.normal(size=(4, 8)).astype(np.float32)
    inst = rand_instance(rng, k=2)
    first = apply_step(f, inst, params, step=0)
    second = apply_step(f, inst, params, step=1)
    assert first.shape == (4, 8)
    assert not np.allclose(first, second, atol=1e-4)
    assert np.array_equal(second, apply_step(f, {k: v[1:] for k, v in inst.items()}, params))
    edited = {k: np.stack([v[0], v[1] + 1.0]) for k, v in inst.items()}
    assert np.array_equal(apply_step(f, edited, params, step=0), first)
    assert not np.allclose(apply_step(f, edited, params, step=1), second, atol=1e-4)


def test_zero_instantiation_erases_input_content():
    """sigma=0, mu=0 zeroes the normalized stream, so the block output
    cannot depend on what the tokens contained."""
    params = make_params()
    rng = np.random.default_rng(10)
    zero = {k: np.zeros((1, 8), np.float32) for k in ("mu1", "sg1", "mu2", "sg2")}
    a = apply_step(rng.normal(size=(4, 8)).astype(np.float32), zero, params)
    b = apply_step(rng.normal(size=(4, 8)).astype(np.float32), zero, params)
    assert np.allclose(a, b, atol=1e-6)


def test_meta_sharing_single_block_parameter_set():
    params = make_params(k=3)
    blocks = {p.split("/")[1] for p in params.paths() if p.startswith("fusion/block")}
    assert blocks == {"block"}
    assert any(p.startswith("fusion/gen/") for p in params.paths())


def test_shared_steps_use_identical_weights():
    """Two consecutive steps whose instance rows are equal are the same
    function."""
    params = make_params()
    rng = np.random.default_rng(11)
    inst = {k: np.tile(v, (2, 1)) for k, v in rand_instance(rng).items()}
    f0 = rng.normal(size=(3, 8)).astype(np.float32)
    f1 = apply_step(f0, inst, params, step=0)
    f2 = apply_step(f1, inst, params, step=1)
    again = apply_step(f1, inst, params, step=0)
    assert np.array_equal(f2, again)


# -- matching and losses ----------------------------------------------------


def test_matching_score_self_similarity():
    """The matching score is the cosine of the pooled query and target
    features; the pooled value of a single-row token set is that row."""
    row = np.random.default_rng(12).normal(size=8).astype(np.float32)
    pool_params = {"pool/w": ag.leaf(np.zeros((8, 1), np.float32)),
                   "pool/b": ag.leaf(np.zeros(1, np.float32))}
    _, pooled = attention_pool_batch_node(pool_params, ag.leaf(row[None, None, :]))
    for target in (row, 7.0 * row):
        u = l2_normalize_rows_node(pooled)
        v = l2_normalize_rows_node(ag.leaf(target[None, :]))
        m = float(ag.matmul(u, ag.transpose(v)).value[0, 0])
        assert abs(m - 1.0) < 1e-6


def batch_loss(m, gamma=2.65926):
    """The node's loss over an n x n score matrix, at float64."""
    return float(batch_classification_loss_node(ag.leaf(m, dtype=np.float64), gamma).value)


def np_batch_loss(m, gamma):
    """Brute-force float64 -mean_i log softmax_row(gamma * m)_ii."""
    z = gamma * np.asarray(m, dtype=np.float64)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-np.mean(np.diag(log_probs)))


def test_batch_loss_uniform_equals_log_n():
    for n in (2, 8, 32):
        m = np.full((n, n), 0.37, dtype=np.float64)
        assert abs(batch_loss(m) - np.log(n)) < 1e-9


def test_batch_loss_saturated_diagonal_vanishes():
    m = np.full((4, 4), -10.0)
    np.fill_diagonal(m, 10.0)
    assert batch_loss(m) <= 1e-8


def test_batch_loss_permutation_symmetry():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(6, 6))
    perm = rng.permutation(6)
    pm = m[perm][:, perm]
    a = batch_loss(m)
    b = batch_loss(pm)
    assert abs(a - b) < 1e-6


def test_batch_loss_diagonal_gradient_is_negative():
    """Raising a correct match's score must lower the loss."""
    rng = np.random.default_rng(14)
    m = rng.normal(size=(5, 5))
    eps = 1e-5
    for i in range(5):
        bumped = m.copy()
        bumped[i, i] += eps
        fd = (batch_loss(bumped) - batch_loss(m)) / eps
        assert fd < 0


def test_batch_loss_node_matches_numpy():
    rng = np.random.default_rng(15)
    m = rng.normal(size=(6, 6)).astype(np.float32)
    node = batch_classification_loss_node(ag.leaf(m), 2.65926)
    assert abs(float(node.value) - np_batch_loss(m, 2.65926)) < 1e-6


def test_total_loss_composition():
    def total(l_m, l_c, alpha):
        return float(total_loss_node(ag.leaf(np.float32(l_m)), ag.leaf(np.float32(l_c)),
                                     alpha).value)

    assert total(1.5, 0.01, 200.0) == pytest.approx(3.5)
    assert total(1.5, 0.7, 0.0) == 1.5
    assert total(2.0, 0.3, 200.0) >= 2.0
    with pytest.raises(ValueError):
        total(1.0, 1.0, -0.5)
    alone = total_loss_node(ag.leaf(np.float32(1.5)), None, 200.0)
    assert abs(float(alone.value) - 1.5) < 1e-9
    with pytest.raises(ValueError):
        total_loss_node(ag.leaf(np.float32(1.0)), None, -1.0)
