"""Retrieval metrics: recall at K over the full gallery and within
visually-similar candidate subsets."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Metrics:
    """R@K over the gallery, R_s@K within per-query subsets."""

    r_at: dict = field(default_factory=dict)
    rs_at: dict = field(default_factory=dict)

    def __post_init__(self):
        for d in (self.r_at, self.rs_at):
            ks = sorted(d)
            vals = [d[k] for k in ks]
            if any(not 0.0 <= v <= 1.0 for v in vals):
                raise ValueError(f"recall outside [0,1]: {d}")
            if any(a > b + 1e-12 for a, b in zip(vals, vals[1:])):
                raise ValueError(f"recall must be nondecreasing in K: {d}")

    @property
    def aggregate(self) -> float:
        """Single summary number: mean of gallery R@5 and subset R@1."""
        return 0.5 * (self.r_at.get(5, 0.0) + self.rs_at.get(1, 0.0))

    def to_dict(self) -> dict:
        out = {f"R@{k}": v for k, v in sorted(self.r_at.items())}
        out.update({f"Rs@{k}": v for k, v in sorted(self.rs_at.items())})
        out["aggregate"] = self.aggregate
        return out


def rank_rows(scores: np.ndarray, id_order: np.ndarray) -> np.ndarray:
    """Descending-score orderings, ties broken by ascending gallery id.

    scores: Q x G; id_order[j] = rank of gallery j's id in ascending id
    order.  Returns Q x G of gallery indices, best first.
    """
    # row by row along the last axis; lexsort uses the last key as primary
    return np.lexsort((np.broadcast_to(id_order, scores.shape), -scores.astype(np.float64)))


def recall_at(ranks: np.ndarray, ks) -> dict:
    return {int(k): float((ranks <= k).mean()) for k in ks}


SUBSET_CHUNK = 256  # targets ranked at once


def _counted_ranks(row_scores, row_ids, tgt_score, tgt_id) -> np.ndarray:
    """Rank in ``rank_rows`` order: 1 + scores above + ties whose id sorts first."""
    tgt_score, tgt_id = tgt_score[:, None], tgt_id[:, None]
    return (1 + np.count_nonzero(row_scores > tgt_score, axis=1)
            + np.count_nonzero((row_scores == tgt_score) & (row_ids < tgt_id), axis=1))


def gallery_target_ranks(scores: np.ndarray, target_indices, id_order: np.ndarray) -> np.ndarray:
    """Rank of each query's target over the whole gallery, SUBSET_CHUNK rows at a time."""
    targets = np.asarray(target_indices, dtype=np.int64)
    ranks = np.empty(len(targets), dtype=np.int64)
    for start in range(0, len(targets), SUBSET_CHUNK):
        t = targets[start : start + SUBSET_CHUNK]
        rows = scores[start : start + len(t)]
        ranks[start : start + len(t)] = _counted_ranks(
            rows, id_order, rows[np.arange(len(t)), t], id_order[t])
    return ranks


def subset_target_ranks(scores: np.ndarray, subsets, target_indices,
                        id_order: np.ndarray) -> np.ndarray:
    """Rank of the target among its visually-similar candidates only."""
    targets = np.asarray(target_indices, dtype=np.int64)
    idx = np.asarray(subsets, dtype=np.int64)
    missing = np.flatnonzero(~(idx == targets[:, None]).any(axis=1))
    if missing.size:
        raise ValueError(f"query {missing[0]}: target not in its candidate subset")
    rows = np.arange(len(targets))
    return _counted_ranks(scores[rows[:, None], idx], id_order[idx],
                          scores[rows, targets], id_order[targets])


def visually_similar_subset(target_indices, gallery_feats: np.ndarray,
                            size: int, id_order: np.ndarray) -> list:
    """Nearest gallery neighbors of each target by cosine, target included.

    Returns one sorted index list per target.  Ties broken by ascending
    gallery id; feats are any fixed per-image descriptor (the harness uses
    mean-pooled tokens from a seed-initialized encoder so subsets do not
    depend on the trained checkpoint).  Only each target's ``size`` best
    are sorted, unless more than ``size`` tie at the cut.
    """
    size = max(1, min(size, gallery_feats.shape[0]))  # 0 keeps the target, as 1 does
    feats = gallery_feats.astype(np.float64)
    norms = np.maximum(np.linalg.norm(feats, axis=1), 1e-12)
    subsets = []
    for start in range(0, len(target_indices), SUBSET_CHUNK):
        chunk = np.asarray(target_indices[start : start + SUBSET_CHUNK], dtype=np.int64)
        neg = -(feats[chunk] @ feats.T / (norms[chunk, None] * norms))
        best = np.argpartition(neg, size - 1, axis=1)[:, :size]
        best_neg = np.take_along_axis(neg, best, axis=1)
        # lexsort's last key is primary: descending cosine, then ascending id
        order = np.take_along_axis(best, np.lexsort((id_order[best], best_neg)), axis=1)
        # rows where more than size reach the cut value: sort them in full
        for r in np.flatnonzero((neg <= best_neg.max(axis=1, keepdims=True)).sum(axis=1) > size):
            order[r] = np.lexsort((id_order, neg[r]))[:size]
        # per target, its first size-1 neighbors other than itself
        subsets += [sorted(row[row != t][: size - 1].tolist() + [t])
                    for t, row in zip(chunk.tolist(), order)]
    return subsets


def compute_metrics(scores: np.ndarray, target_indices, gallery_ids,
                    subsets=None, recall_ks=(1, 5, 10, 50),
                    subset_ks=(1, 2, 3)) -> Metrics:
    gallery_ids = list(gallery_ids)
    id_order = np.argsort(np.argsort(np.asarray(gallery_ids, dtype=object)))
    ranks = gallery_target_ranks(scores, target_indices, id_order)
    ks = [k for k in recall_ks if k <= len(gallery_ids)]
    m = Metrics(r_at=recall_at(ranks, ks))
    if subsets is not None:
        sub_ranks = subset_target_ranks(scores, subsets, target_indices, id_order)
        m = Metrics(r_at=m.r_at, rs_at=recall_at(sub_ranks, subset_ks))
    return m
