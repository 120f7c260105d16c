"""Concept alignment branch: joint encoding, MIL pooling, asymmetric loss."""

import numpy as np
import pytest

from ccir import autograd as ag
from ccir.alignment import (
    ConceptLabelVector,
    asymmetric_loss_node,
    attention_pool_batch_node,
    concept_mil_node,
    init_attention_pool,
    init_joint_transformer,
    joint_encode_batch_node,
    mean_concept_map,
)
from ccir.tensor import ParameterSet, Tensor


def make_params(seed=0, d=8):
    rng = np.random.default_rng(seed)
    params = {}
    init_joint_transformer(rng, params, d)
    init_attention_pool(rng, params, d)
    return ParameterSet(params)


def rand_tokens(rng, n, d=8):
    return rng.normal(size=(n, d)).astype(np.float32)


def joint_tokens(f_r, f_t, params):
    """The 2L x d joint tokens of one pair of L x d token matrices."""
    p = {k: ag.leaf(v) for k, v in params.items()}
    out = joint_encode_batch_node(p, ag.leaf(f_r[None]), ag.leaf(f_t[None]), 2)
    return out.value[0]


# -- joint encoding ---------------------------------------------------------


def test_joint_encode_shapes_and_boundary():
    """The reference cells come first: the boundary sits at L, so swapping
    the two images swaps the two halves."""
    params = make_params()
    rng = np.random.default_rng(1)
    f_r, f_t = rand_tokens(rng, 4), rand_tokens(rng, 4)
    out = joint_tokens(f_r, f_t, params)
    assert out.shape == (8, 8)
    swapped = joint_tokens(f_t, f_r, params)
    assert np.allclose(swapped, np.concatenate([out[4:], out[:4]]), atol=1e-5)


def test_joint_encode_permutation_equivariance():
    """The joint pass pairs cells and adds no positional terms: permuting
    the cells of both images by one permutation permutes both halves of
    the output the same way, and stacks of unequal length are rejected."""
    params = make_params()
    rng = np.random.default_rng(2)
    f_r, f_t = rand_tokens(rng, 4), rand_tokens(rng, 4)
    perm = np.array([1, 3, 2, 0])
    base = joint_tokens(f_r, f_t, params)
    shuffled = joint_tokens(f_r[perm], f_t[perm], params)
    assert np.allclose(shuffled[:4], base[:4][perm], atol=1e-5)
    assert np.allclose(shuffled[4:], base[4:][perm], atol=1e-5)
    with pytest.raises(ag.ShapeError):
        joint_tokens(rand_tokens(rng, 3), rand_tokens(rng, 4), params)


def test_joint_encode_pairs_same_cells():
    """A token sees only its own cell in the other image: changing target
    cell 2 changes reference row 2 and leaves the other rows alone."""
    params = make_params()
    rng = np.random.default_rng(13)
    f_r, f_t = rand_tokens(rng, 4), rand_tokens(rng, 4)
    edited = f_t.copy()
    edited[2] = rand_tokens(rng, 1)[0]
    a = joint_tokens(f_r, f_t, params)
    b = joint_tokens(f_r, edited, params)
    changed = ~np.isclose(a, b, atol=1e-6).all(axis=1)
    assert changed.tolist() == [False, False, True, False, False, False, True, False]


def test_joint_context_mixes_reference_and_target():
    """Reference rows must change when the target image changes."""
    params = make_params()
    rng = np.random.default_rng(3)
    f_r = rand_tokens(rng, 3)
    a = joint_tokens(f_r, rand_tokens(rng, 3), params)
    b = joint_tokens(f_r, rand_tokens(rng, 3), params)
    assert not np.allclose(a[:3], b[:3], atol=1e-4)


# -- attention pooling ------------------------------------------------------


def pool(toks, params):
    """Attention weights (L,) and pooled feature (d,) of one example's
    L x d tokens, from the batched node at n = 1."""
    p = {k: ag.leaf(v) for k, v in params.items()}
    w, pooled = attention_pool_batch_node(p, ag.leaf(toks[None]))
    return w.value[0, :, 0], pooled.value[0]


def np_pool(toks, params):
    """Brute-force float64 softmax-attention pooling of L x d tokens."""
    logits = (toks.astype(np.float64) @ params["pool/w"].data + params["pool/b"].data)[:, 0]
    e = np.exp(logits - logits.max())
    w = e / e.sum()
    return w, w @ toks.astype(np.float64)


def test_pool_identical_tokens_is_uniform():
    params = make_params()
    toks = np.tile(np.linspace(0, 1, 8, dtype=np.float32), (5, 1))
    weights, pooled = pool(toks, params)
    assert np.allclose(weights, 0.2, atol=1e-6)
    assert np.allclose(pooled, toks[0], atol=1e-6)


def test_pool_closed_form_two_tokens():
    """Logits [0, ln 3] must give weights [1/4, 3/4]."""
    d = 4
    # craft tokens whose logit is their first coordinate
    w = np.zeros((d, 1), np.float32)
    w[0, 0] = 1.0
    params = ParameterSet({"pool/w": Tensor(w), "pool/b": Tensor.zeros((1,))})
    toks = np.zeros((2, d), np.float32)
    toks[0, 0] = 0.0
    toks[1, 0] = np.log(3.0)
    weights, _ = pool(toks, params)
    assert np.allclose(weights, [0.25, 0.75], atol=1e-6)


def test_pool_brute_force_oracle():
    params = make_params()
    rng = np.random.default_rng(4)
    for _ in range(20):
        toks = rand_tokens(rng, 5)
        weights, pooled = pool(toks, params)
        w, want = np_pool(toks, params)
        assert np.allclose(weights, w, atol=1e-6)
        assert np.allclose(pooled, want, atol=1e-6)
        assert abs(weights.sum() - 1.0) <= 1e-6


def test_batched_pooling_matches_single():
    params = make_params()
    rng = np.random.default_rng(5)
    segs = [rand_tokens(rng, 4) for _ in range(3)]
    p = {k: ag.leaf(v) for k, v in params.items()}
    w, pooled = attention_pool_batch_node(p, ag.leaf(np.stack(segs)))
    assert w.shape == (3, 4, 1)
    for i, seg in enumerate(segs):
        weights, want = np_pool(seg, params)
        assert np.allclose(pooled.value[i], want, atol=1e-6)
        assert np.allclose(w.value[i, :, 0], weights, atol=1e-6)


def test_joint_pool_differs_from_single_image_pool():
    """The concatenated bag is a genuinely different feature than either
    image pooled alone — the ablation arms must be distinguishable."""
    params = make_params()
    rng = np.random.default_rng(6)
    f_r, f_t = rand_tokens(rng, 4), rand_tokens(rng, 4)
    joint = pool(joint_tokens(f_r, f_t, params), params)[1]
    ref_alone = pool(f_r, params)[1]
    tgt_alone = pool(f_t, params)[1]
    assert not np.allclose(joint, ref_alone, atol=1e-3)
    assert not np.allclose(joint, tgt_alone, atol=1e-3)


# -- concept-conditioned MIL ------------------------------------------------


def test_concept_mil_matches_per_concept_oracle():
    rng = np.random.default_rng(11)
    n, b, d, c = 3, 6, 5, 4
    bags = rng.normal(size=(n, b, d)).astype(np.float32)
    table = rng.normal(size=(c, d)).astype(np.float32)
    att, s = concept_mil_node(ag.leaf(bags), ag.leaf(table))
    assert att.shape == (n, b, c) and s.shape == (n, c)
    for i in range(n):
        for j in range(c):
            logits = bags[i].astype(np.float64) @ table[j]
            e = np.exp(logits - logits.max())
            a = e / e.sum()
            assert np.allclose(att.value[i, :, j], a, atol=1e-6)
            assert abs(s.value[i, j] - a @ logits) < 1e-5


def test_concept_maps_differ_and_average():
    rng = np.random.default_rng(12)
    bags = rng.normal(size=(2, 6, 5)).astype(np.float32)
    table = rng.normal(size=(3, 5)).astype(np.float32)
    att, _ = concept_mil_node(ag.leaf(bags), ag.leaf(table))
    assert not np.allclose(att.value[:, :, 0], att.value[:, :, 1], atol=1e-4)
    mask = np.array([[1, 0, 1], [0, 0, 0]], np.float32)
    maps = mean_concept_map(att.value, mask)
    assert np.allclose(maps[0], att.value[0][:, [0, 2]].mean(axis=1), atol=1e-6)
    # a row with no selected concept averages all of them
    assert np.allclose(maps[1], att.value[1].mean(axis=1), atol=1e-6)
    assert np.allclose(maps.sum(axis=1), 1.0, atol=1e-6)


# -- labels ---------------------------------------------------------------


def test_label_vector_construction():
    vec = ConceptLabelVector.from_concepts(["red", "circle"], ["blue", "circle", "red"])
    assert vec.labels.tolist() == [0.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        ConceptLabelVector(np.array([0.0, 2.0]))


# -- asymmetric loss --------------------------------------------------------


def loss(s, y, beta_plus=1.0, beta_minus=4.0):
    """The node's loss of one example (n = 1) from its logits, at float64."""
    s = ag.leaf(np.asarray(s)[None], dtype=np.float64)
    return float(asymmetric_loss_node(s, np.asarray(y)[None], beta_plus, beta_minus).value)


def np_asymmetric_loss(s, y, beta_plus, beta_minus):
    """Brute-force float64 loss of one example: its terms summed."""
    s, y = np.asarray(s, np.float64), np.asarray(y, np.float64)
    sp = 1.0 / (1.0 + np.exp(-s))
    pos = y * (1.0 - sp) ** beta_plus * np.log(sp)
    neg = (1.0 - y) * sp**beta_minus * np.log(1.0 - sp)
    return float(-(pos + neg).sum())


def test_loss_single_positive_hand_value():
    """One positive at logit 0: term = -(1-0.5)^1 * log 0.5 = 0.5*ln 2."""
    val = loss([0.0], [1.0], beta_plus=1.0, beta_minus=4.0)
    assert abs(val - 0.5 * np.log(2.0)) < 1e-7


def test_loss_saturated_positive_is_zero():
    assert loss([40.0], [1.0]) < 1e-12


def test_loss_zero_exponents_reduce_to_bce():
    rng = np.random.default_rng(8)
    for _ in range(25):
        s = rng.normal(scale=2.0, size=12)
        y = (rng.uniform(size=12) < 0.5).astype(np.float64)
        if y.sum() == 0:
            y[0] = 1.0
        got = loss(s, y, 0.0, 0.0)
        sp = 1 / (1 + np.exp(-s))
        bce = -(y * np.log(sp) + (1 - y) * np.log(1 - sp)).sum()
        assert abs(got - bce) < 1e-6


def test_loss_focusing_downweights_easy_negatives():
    """(s')^4 factor: a confident wrong negative contributes 0.6561x BCE."""
    # s' = 0.9 on the negative; a saturated positive keeps the example live
    s = [np.log(9.0), 40.0]
    y = [0.0, 1.0]
    focused = loss(s, y, 1.0, 4.0)
    flat = loss(s, y, 1.0, 0.0)
    assert focused < flat
    assert abs(focused / flat - 0.9**4) < 1e-3


def test_loss_monotone_decrease_as_logits_improve():
    y = [1.0, 0.0, 0.0]
    prev = np.inf
    for scale in (0.5, 1.0, 2.0, 4.0):
        val = loss([scale, -scale, -scale], y)
        assert val < prev
        prev = val
    assert prev >= 0.0


def test_loss_no_positives_warns_and_skips():
    with pytest.warns(UserWarning):
        assert loss(np.zeros(3), np.zeros(3)) == 0.0


def test_batched_loss_node_matches_per_example_mean():
    rng = np.random.default_rng(9)
    n, m = 4, 7
    s = rng.normal(scale=1.5, size=(n, m)).astype(np.float32)
    y = (rng.uniform(size=(n, m)) < 0.4).astype(np.float32)
    y[:, 0] = 1.0  # keep every row supervised
    node = asymmetric_loss_node(ag.leaf(s), y, 1.0, 4.0)
    per_example = [np_asymmetric_loss(s[i], y[i], 1.0, 4.0) for i in range(n)]
    assert abs(float(node.value) - np.mean(per_example)) < 1e-5


def test_batched_loss_node_skips_unsupervised_rows():
    s = np.zeros((2, 3), np.float32)
    y = np.zeros((2, 3), np.float32)
    y[0, 1] = 1.0
    with pytest.warns(UserWarning):
        node = asymmetric_loss_node(ag.leaf(s), y, 1.0, 4.0)
    # only row 0 contributes; divisor stays the full batch size
    want = (0.5 * np.log(2.0) + 2 * 0.5**4 * np.log(2.0)) / 2.0
    assert abs(float(node.value) - want) < 1e-6
