"""Retrieval metrics: ranking, tie-breaking, candidate subsets."""

import numpy as np
import pytest

from ccir.metrics import (
    Metrics,
    compute_metrics,
    gallery_target_ranks,
    rank_rows,
    recall_at,
    subset_target_ranks,
    visually_similar_subset,
)


def target_ranks(orderings: np.ndarray, target_indices) -> np.ndarray:
    """Oracle: 1-based position of each query's target in a full ordering."""
    targets = np.asarray(target_indices)
    return (orderings == targets[:, None]).argmax(axis=1) + 1


def _id_order(ids):
    return np.argsort(np.argsort(np.asarray(ids, dtype=object)))


def test_metrics_type_validation():
    Metrics(r_at={1: 0.2, 5: 0.5})
    with pytest.raises(ValueError):
        Metrics(r_at={1: 1.2})
    with pytest.raises(ValueError):
        Metrics(r_at={1: 0.6, 5: 0.4})  # recall cannot shrink as K grows


def test_aggregate_combines_full_and_subset_recall():
    m = Metrics(r_at={1: 0.2, 5: 0.6}, rs_at={1: 0.4, 2: 0.5})
    assert m.aggregate == pytest.approx(0.5 * (0.6 + 0.4))
    d = m.to_dict()
    assert d["R@5"] == 0.6 and d["Rs@1"] == 0.4
    assert d["aggregate"] == m.aggregate


def test_rank_rows_orders_by_score():
    scores = np.array([[0.1, 0.9, 0.5]])
    ids = ["a", "b", "c"]
    id_order = np.argsort(np.argsort(np.asarray(ids, dtype=object)))
    order = rank_rows(scores, id_order)
    assert order[0].tolist() == [1, 2, 0]


def test_rank_rows_breaks_ties_by_ascending_id():
    scores = np.array([[0.5, 0.5, 0.5]])
    ids = ["zz", "aa", "mm"]
    id_order = np.argsort(np.argsort(np.asarray(ids, dtype=object)))
    order = rank_rows(scores, id_order)
    # equal scores -> alphabetical by gallery id: aa, mm, zz
    assert order[0].tolist() == [1, 2, 0]


def test_target_ranks_are_one_based():
    scores = np.array([[0.9, 0.1], [0.1, 0.9]])
    id_order = np.arange(2)
    assert gallery_target_ranks(scores, [0, 0], id_order).tolist() == [1, 2]
    assert target_ranks(rank_rows(scores, id_order), [0, 0]).tolist() == [1, 2]
    assert compute_metrics(scores, [0, 0], ["a", "b"], recall_ks=(1, 2)).r_at == {1: 0.5, 2: 1.0}


@pytest.mark.parametrize("place", ["first", "middle", "last"])
@pytest.mark.parametrize("cut", [1, 5])
def test_counted_ranks_match_full_sort_with_ties_at_the_cut(cut, place):
    # seven entries, the target among them, tie across the R@cut boundary:
    # the tied block starts at rank max(cut - 1, 1), so the tie-break by
    # id alone decides whether the target is a hit
    g = 12
    rng = np.random.default_rng(cut)
    ids = [f"g{i:02d}" for i in rng.permutation(g)]
    id_order = _id_order(ids)
    tied = np.argsort(id_order)[2:9]  # seven entries, in ascending id order
    target = {"first": tied[0], "middle": tied[3], "last": tied[-1]}[place]
    scores = np.zeros((3, g))
    above = [j for j in range(g) if j not in tied][: max(cut - 2, 0)]
    scores[:, above] = 1.0
    scores[:, tied] = 0.5
    scores[1] *= -1.0  # the same ties in the other direction
    scores[2, tied] = 0.0  # and ties at zero, next to -0.0
    scores[2, [j for j in range(g) if j not in tied]] = -0.0
    targets = [target] * 3
    want = target_ranks(rank_rows(scores, id_order), targets)
    assert gallery_target_ranks(scores, targets, id_order).tolist() == want.tolist()
    ks = tuple(range(1, g + 1))
    got = compute_metrics(scores, targets, ids, recall_ks=ks)
    assert got.r_at == recall_at(want, ks)


def test_counted_ranks_match_full_sort_on_small_integer_scores():
    # integers in [-3, 3]: almost every target ties with several entries;
    # 600 queries span three chunks of 256 rows
    rng = np.random.default_rng(4)
    q, g = 600, 40
    scores = rng.integers(-3, 4, size=(q, g)).astype(np.float32)
    ids = [f"img{i}" for i in rng.permutation(g)]
    id_order = _id_order(ids)
    targets = rng.integers(0, g, size=q)
    want = target_ranks(rank_rows(scores, id_order), targets)
    assert (gallery_target_ranks(scores, targets, id_order) == want).all()
    subsets = [sorted(rng.choice(np.delete(np.arange(g), t), 5, replace=False).tolist() + [t])
               for t in targets.tolist()]
    sub_want = [target_ranks(rank_rows(scores[i : i + 1, s], id_order[s]),
                             [s.index(t)])[0] for i, (s, t) in enumerate(zip(subsets, targets))]
    got = subset_target_ranks(scores, subsets, targets, id_order)
    assert got.tolist() == sub_want


def test_recall_at_forced_hit():
    """Gallery of one: the target always ranks first."""
    scores = np.array([[0.42]])
    m = compute_metrics(scores, [0], ["only"], recall_ks=(1, 5))
    assert m.r_at == {1: 1.0}


def test_recall_monotone_in_k():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=(30, 40))
    targets = rng.integers(0, 40, size=30).tolist()
    ids = [f"g{i:03d}" for i in range(40)]
    m = compute_metrics(scores, targets, ids, recall_ks=(1, 5, 10, 50))
    vals = [m.r_at[k] for k in sorted(m.r_at)]
    assert vals == sorted(vals)
    assert 50 not in m.r_at  # K beyond gallery size is dropped


def test_rankings_invariant_to_monotone_score_transform():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=(10, 15))
    ids = [f"g{i}" for i in range(15)]
    targets = rng.integers(0, 15, size=10).tolist()
    a = compute_metrics(scores, targets, ids)
    b = compute_metrics(3.0 * scores + 7.0, targets, ids)
    assert a.r_at == b.r_at


def test_subset_ranks_require_target_membership():
    scores = np.array([[0.1, 0.2, 0.3, 0.4]])
    with pytest.raises(ValueError):
        subset_target_ranks(scores, [[0, 1]], [3], np.arange(4))
    ranks = subset_target_ranks(scores, [[1, 3]], [3], np.arange(4))
    assert ranks.tolist() == [1]


def test_subset_ranks_break_ties_inside_a_subset_by_id():
    # candidate 4 scores highest; 0-3 tie, so the targets 1 and 3 come
    # after 4 and after each tied candidate whose id sorts first
    scores = np.array([[0.2, 0.2, 0.2, 0.2, 0.9],
                       [0.2, 0.2, 0.2, 0.2, 0.9]])
    subsets = [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0]]
    for id_order, want in ((np.arange(5), [3, 5]), (np.arange(5)[::-1], [4, 2])):
        ranks = subset_target_ranks(scores, subsets, [1, 3], id_order)
        assert ranks.tolist() == want
        assert target_ranks(rank_rows(scores, id_order), [1, 3]).tolist() == want
    with pytest.raises(ValueError):  # ragged rows are not a (Q, S) array
        subset_target_ranks(scores, [[0, 1, 4], [3, 4]], [1, 3], np.arange(5))


def test_visually_similar_subset_contains_target_and_neighbors():
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(20, 8)).astype(np.float32)
    feats[7] = feats[3] + 0.01 * rng.normal(size=8)  # near-duplicate pair
    id_order = np.arange(20)
    (sub,) = visually_similar_subset([3], feats, 6, id_order)
    assert len(sub) == 6
    assert 3 in sub
    assert 7 in sub  # closest cosine neighbor must be included
    assert sub == sorted(sub)


def test_visually_similar_subset_caps_at_gallery():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(4, 5)).astype(np.float32)
    (sub,) = visually_similar_subset([1], feats, 6, np.arange(4))
    assert sorted(sub) == [0, 1, 2, 3]


def _one_target_subset(target_index, gallery_feats, size, id_order):
    """Per-target oracle: one cosine row and one full lexsort per target."""
    g = gallery_feats.shape[0]
    size = min(size, g)
    feats = gallery_feats.astype(np.float64)
    norms = np.maximum(np.linalg.norm(feats, axis=1), 1e-12)
    sims = feats @ feats[target_index] / (norms * norms[target_index])
    order = np.lexsort((id_order, -sims))
    subset = [int(j) for j in order if j != target_index][: size - 1]
    return sorted(subset + [int(target_index)])


def test_visually_similar_subset_matches_per_target_oracle():
    rng = np.random.default_rng(9)
    feats = rng.normal(size=(300, 16)).astype(np.float32)
    feats[40] = feats[12]          # an exact tie: equal cosine to every target
    feats[41] = 2.0 * feats[12]    # and a scaled copy, the same direction
    id_order = rng.permutation(300)
    targets = [12, 40, 41, 0, 299] + rng.choice(300, size=300, replace=False).tolist()
    got = visually_similar_subset(targets, feats, 7, id_order)
    assert got == [_one_target_subset(t, feats, 7, id_order) for t in targets]
    # three equal candidates for one place: the lowest gallery id wins
    (sub,) = visually_similar_subset([3], feats[[12, 12, 12, 0]], 2, np.array([2, 0, 1, 3]))
    assert sub == [1, 3]


def test_visually_similar_subset_ties_beyond_the_cut_and_zero_rows():
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(60, 4)).astype(np.float32)
    feats[10:22] = feats[5]        # 13 copies of one image: more than size tie at the cut
    feats[30:40] = 0.0             # all-zero rows: cosine 0 with everything, themselves too
    feats[45:50] = -feats[5]       # opposite direction, cosine -1
    id_order = rng.permutation(60)
    targets = [5, 10, 21, 30, 39, 45, 0, 59]
    for size in (1, 2, 6, 13, 14, 60, 80):
        got = visually_similar_subset(targets, feats, size, id_order)
        assert got == [_one_target_subset(t, feats, size, id_order) for t in targets]


def test_compute_metrics_with_subsets_end_to_end():
    # 3 queries, 6 targets; scores place the target at controlled ranks
    scores = np.full((3, 6), 0.0)
    scores[0, 2] = 1.0        # query 0: target 2 ranks 1st
    scores[1, 4] = 0.5        # query 1: target 4 ranks 1st
    scores[2, 1] = -1.0       # query 2: target 1 ranks last
    targets = [2, 4, 1]
    ids = [f"g{i}" for i in range(6)]
    subsets = [[0, 1, 2], [3, 4, 5], [0, 1, 2]]
    m = compute_metrics(scores, targets, ids, subsets, (1, 5), (1, 2, 3))
    assert m.r_at[1] == pytest.approx(2 / 3)
    assert m.rs_at[1] == pytest.approx(2 / 3)
    assert m.rs_at[3] == pytest.approx(1.0)
    assert recall_at(np.array([1, 1, 6]), [5]) == {5: pytest.approx(2 / 3)}
