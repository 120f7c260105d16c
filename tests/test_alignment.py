"""Concept alignment branch: joint encoding, MIL pooling, asymmetric loss."""

import numpy as np
import pytest

from ccir import autograd as ag
from ccir.alignment import (
    AlignmentScores,
    AttentionPooling,
    ConceptLabelVector,
    alignment_scores,
    asymmetric_loss,
    asymmetric_loss_node,
    attention_pool,
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


def test_pool_identical_tokens_is_uniform():
    params = make_params()
    toks = np.tile(np.linspace(0, 1, 8, dtype=np.float32), (5, 1))
    out = attention_pool(toks, params)
    assert np.allclose(out.weights, 0.2, atol=1e-6)
    assert np.allclose(out.pooled, toks[0], atol=1e-6)


def test_pool_closed_form_two_tokens():
    """Logits [0, ln 3] must give weights [1/4, 3/4]."""
    d = 4
    params = ParameterSet({"pool/w": Tensor(np.zeros((d, 1), np.float32)),
                           "pool/b": Tensor.zeros((1,))})
    # craft tokens whose logit is their first coordinate
    w = np.zeros((d, 1), np.float32)
    w[0, 0] = 1.0
    params = ParameterSet({"pool/w": Tensor(w), "pool/b": Tensor.zeros((1,))})
    toks = np.zeros((2, d), np.float32)
    toks[0, 0] = 0.0
    toks[1, 0] = np.log(3.0)
    out = attention_pool(toks, params)
    assert np.allclose(out.weights, [0.25, 0.75], atol=1e-6)


def test_pool_brute_force_oracle():
    params = make_params()
    rng = np.random.default_rng(4)
    for _ in range(20):
        toks = rand_tokens(rng, 5)
        out = attention_pool(toks, params)
        logits = toks @ params["pool/w"].data + params["pool/b"].data
        e = np.exp(logits[:, 0] - logits[:, 0].max())
        w = e / e.sum()
        assert np.allclose(out.weights, w, atol=1e-6)
        assert np.allclose(out.pooled, w @ toks, atol=1e-6)
        assert abs(out.weights.sum() - 1.0) <= 1e-6


def test_pooling_type_rejects_bad_weights():
    with pytest.raises(ValueError):
        AttentionPooling(np.array([0.5, 0.4]), np.zeros(4))
    with pytest.raises(ValueError):
        AttentionPooling(np.array([1.5, -0.5]), np.zeros(4))


def test_batched_pooling_matches_single():
    params = make_params()
    rng = np.random.default_rng(5)
    segs = [rand_tokens(rng, 4) for _ in range(3)]
    p = {k: ag.leaf(v) for k, v in params.items()}
    w, pooled = attention_pool_batch_node(p, ag.leaf(np.stack(segs)))
    assert w.shape == (3, 4, 1)
    for i, seg in enumerate(segs):
        single = attention_pool(seg, params)
        assert np.allclose(pooled.value[i], single.pooled, atol=1e-6)
        assert np.allclose(w.value[i, :, 0], single.weights, atol=1e-6)


def test_joint_pool_differs_from_single_image_pool():
    """The concatenated bag is a genuinely different feature than either
    image pooled alone — the ablation arms must be distinguishable."""
    params = make_params()
    rng = np.random.default_rng(6)
    f_r, f_t = rand_tokens(rng, 4), rand_tokens(rng, 4)
    joint = attention_pool(joint_tokens(f_r, f_t, params), params).pooled
    ref_alone = attention_pool(f_r, params).pooled
    tgt_alone = attention_pool(f_t, params).pooled
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


# -- scoring ----------------------------------------------------------------


def test_scores_orthogonal_vector_gives_half():
    pooled = np.array([1.0, 0.0], dtype=np.float32)
    table = np.array([[0.0, 1.0], [2.0, 0.0]], dtype=np.float32)
    out = alignment_scores(pooled, table)
    assert abs(out.s[0]) < 1e-7 and abs(out.s_prime[0] - 0.5) < 1e-7
    assert abs(out.s[1] - 2.0) < 1e-6


def test_scores_scale_linearly_and_preserve_ranking():
    rng = np.random.default_rng(7)
    pooled = rng.normal(size=4).astype(np.float32)
    table = rng.normal(size=(6, 4)).astype(np.float32)
    a = alignment_scores(pooled, table)
    b = alignment_scores(3.0 * pooled, table)
    assert np.allclose(b.s, 3.0 * a.s, atol=1e-5)
    assert np.array_equal(np.argsort(a.s), np.argsort(b.s))


def test_scores_width_mismatch():
    with pytest.raises(ValueError):
        alignment_scores(np.zeros(4, np.float32), np.zeros((3, 5), np.float32))


def test_label_vector_construction():
    vec = ConceptLabelVector.from_concepts(["red", "circle"], ["blue", "circle", "red"])
    assert vec.labels.tolist() == [0.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        ConceptLabelVector(np.array([0.0, 2.0]))


# -- asymmetric loss --------------------------------------------------------


def test_loss_single_positive_hand_value():
    """One positive at logit 0: term = -(1-0.5)^1 * log 0.5 = 0.5*ln 2."""
    scores = AlignmentScores(s=np.array([0.0], np.float32),
                             s_prime=np.array([0.5], np.float32))
    labels = ConceptLabelVector(np.array([1.0], np.float32))
    val = asymmetric_loss(scores, labels, beta_plus=1.0, beta_minus=4.0)
    assert abs(val - 0.5 * np.log(2.0)) < 1e-7


def test_loss_saturated_positive_is_zero():
    scores = AlignmentScores(s=np.array([40.0], np.float32),
                             s_prime=np.array([1.0], np.float32))
    labels = ConceptLabelVector(np.array([1.0], np.float32))
    assert asymmetric_loss(scores, labels) < 1e-12


def test_loss_zero_exponents_reduce_to_bce():
    rng = np.random.default_rng(8)
    for _ in range(25):
        s = rng.normal(scale=2.0, size=12)
        y = (rng.uniform(size=12) < 0.5).astype(np.float64)
        if y.sum() == 0:
            y[0] = 1.0
        scores = AlignmentScores(s=s.astype(np.float32),
                                 s_prime=(1 / (1 + np.exp(-s))).astype(np.float32))
        got = asymmetric_loss(scores, ConceptLabelVector(y.astype(np.float32)), 0.0, 0.0)
        sp = 1 / (1 + np.exp(-s))
        bce = -(y * np.log(sp) + (1 - y) * np.log(1 - sp)).sum()
        assert abs(got - bce) < 1e-6


def test_loss_focusing_downweights_easy_negatives():
    """(s')^4 factor: a confident wrong negative contributes 0.6561x BCE."""
    s = np.array([np.log(9.0)], np.float32)  # s' = 0.9
    sp = 1 / (1 + np.exp(-s.astype(np.float64)))
    scores = AlignmentScores(s=s, s_prime=sp.astype(np.float32))
    labels = ConceptLabelVector(np.array([0.0], np.float32))
    # add a positive so the example is not skipped
    s2 = np.concatenate([s, [40.0]])
    sp2 = 1 / (1 + np.exp(-s2.astype(np.float64)))
    scores2 = AlignmentScores(s=s2.astype(np.float32), s_prime=sp2.astype(np.float32))
    labels2 = ConceptLabelVector(np.array([0.0, 1.0], np.float32))
    focused = asymmetric_loss(scores2, labels2, 1.0, 4.0)
    flat = asymmetric_loss(scores2, labels2, 1.0, 0.0)
    assert focused < flat
    assert abs(focused / flat - 0.9**4) < 1e-3


def test_loss_monotone_decrease_as_logits_improve():
    labels = ConceptLabelVector(np.array([1.0, 0.0, 0.0], np.float32))
    prev = np.inf
    for scale in (0.5, 1.0, 2.0, 4.0):
        s = np.array([scale, -scale, -scale], np.float64)
        sp = 1 / (1 + np.exp(-s))
        val = asymmetric_loss(
            AlignmentScores(s.astype(np.float32), sp.astype(np.float32)), labels
        )
        assert val < prev
        prev = val
    assert prev >= 0.0


def test_loss_no_positives_warns_and_skips():
    scores = AlignmentScores(s=np.zeros(3, np.float32),
                             s_prime=np.full(3, 0.5, np.float32))
    labels = ConceptLabelVector(np.zeros(3, np.float32))
    with pytest.warns(UserWarning):
        assert asymmetric_loss(scores, labels) == 0.0


def test_batched_loss_node_matches_per_example_mean():
    rng = np.random.default_rng(9)
    n, m = 4, 7
    s = rng.normal(scale=1.5, size=(n, m))
    y = (rng.uniform(size=(n, m)) < 0.4).astype(np.float32)
    y[:, 0] = 1.0  # keep every row supervised
    node = asymmetric_loss_node(ag.leaf(s.astype(np.float32)), y, 1.0, 4.0, n)
    per_example = [
        asymmetric_loss(
            AlignmentScores(s[i].astype(np.float32),
                            (1 / (1 + np.exp(-s[i]))).astype(np.float32)),
            ConceptLabelVector(y[i]), 1.0, 4.0,
        )
        for i in range(n)
    ]
    assert abs(float(node.value) - np.mean(per_example)) < 1e-5


def test_batched_loss_node_skips_unsupervised_rows():
    s = np.zeros((2, 3), np.float32)
    y = np.zeros((2, 3), np.float32)
    y[0, 1] = 1.0
    with pytest.warns(UserWarning):
        node = asymmetric_loss_node(ag.leaf(s), y, 1.0, 4.0, 2)
    # only row 0 contributes; divisor stays the full batch size
    want = (0.5 * np.log(2.0) + 2 * 0.5**4 * np.log(2.0)) / 2.0
    assert abs(float(node.value) - want) < 1e-6
