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
    q, g = scores.shape
    out = np.empty((q, g), dtype=np.int64)
    for i in range(q):
        # lexsort uses the last key as primary
        out[i] = np.lexsort((id_order, -scores[i].astype(np.float64)))
    return out


def target_ranks(orderings: np.ndarray, target_indices) -> np.ndarray:
    """1-based rank of each query's true target."""
    targets = np.asarray(target_indices)
    hits = orderings == targets[:, None]
    return hits.argmax(axis=1) + 1


def recall_at(ranks: np.ndarray, ks) -> dict:
    return {int(k): float((ranks <= k).mean()) for k in ks}


def subset_target_ranks(scores: np.ndarray, subsets, target_indices,
                        id_order: np.ndarray) -> np.ndarray:
    """Rank of the target among its visually-similar candidates only."""
    ranks = np.empty(len(subsets), dtype=np.int64)
    for i, subset in enumerate(subsets):
        subset = list(subset)
        if target_indices[i] not in subset:
            raise ValueError(f"query {i}: target not in its candidate subset")
        sub_scores = scores[i, subset].astype(np.float64)
        order = np.lexsort((id_order[subset], -sub_scores))
        ranked = [subset[j] for j in order]
        ranks[i] = ranked.index(target_indices[i]) + 1
    return ranks


SUBSET_CHUNK = 256  # targets ranked at once


def visually_similar_subset(target_indices, gallery_feats: np.ndarray,
                            size: int, id_order: np.ndarray) -> list:
    """Nearest gallery neighbors of each target by cosine, target included.

    Returns one sorted index list per target.  Ties broken by ascending
    gallery id; feats are any fixed per-image descriptor (the harness uses
    mean-pooled tokens from a seed-initialized encoder so subsets do not
    depend on the trained checkpoint).  The gallery is cast and normalized
    once for all targets.
    """
    size = min(size, gallery_feats.shape[0])
    feats = gallery_feats.astype(np.float64)
    norms = np.maximum(np.linalg.norm(feats, axis=1), 1e-12)
    subsets = []
    for start in range(0, len(target_indices), SUBSET_CHUNK):
        chunk = np.asarray(target_indices[start : start + SUBSET_CHUNK], dtype=np.int64)
        sims = feats[chunk] @ feats.T / (norms[chunk, None] * norms)
        # lexsort's last key is primary: descending cosine, then ascending id
        order = np.lexsort((np.broadcast_to(id_order, sims.shape), -sims))[:, :size]
        # per target, its first size-1 neighbors other than itself
        subsets += [sorted(row[row != t][: size - 1].tolist() + [t])
                    for t, row in zip(chunk.tolist(), order)]
    return subsets


def compute_metrics(scores: np.ndarray, target_indices, gallery_ids,
                    subsets=None, recall_ks=(1, 5, 10, 50),
                    subset_ks=(1, 2, 3)) -> Metrics:
    gallery_ids = list(gallery_ids)
    id_order = np.argsort(np.argsort(np.asarray(gallery_ids, dtype=object)))
    orderings = rank_rows(scores, id_order)
    ranks = target_ranks(orderings, target_indices)
    ks = [k for k in recall_ks if k <= len(gallery_ids)]
    m = Metrics(r_at=recall_at(ranks, ks))
    if subsets is not None:
        sub_ranks = subset_target_ranks(scores, subsets, target_indices, id_order)
        m = Metrics(r_at=m.r_at, rs_at=recall_at(sub_ranks, subset_ks))
    return m
