"""Checks of the program's outputs, computed apart from the program.

Each function returns a list of failure messages (empty when the check
holds), so a workload can report every failed check at once.
"""

from __future__ import annotations

import re

import numpy as np

# scores within this distance of the target's score may rank either side of
# it once float32 rounding is taken into account
SCORE_TIE = 1e-4


def chance_aggregate(gallery_size: int, subset_size: int) -> float:
    """Aggregate (mean of R@5 and Rs@1) of a ranking in random order."""
    return 0.5 * (min(5, gallery_size) / gallery_size + 1.0 / min(subset_size, gallery_size))


def cell_differences(ref: np.ndarray, tgt: np.ndarray, grid) -> np.ndarray:
    """Root-mean-square pixel difference of each grid cell, row-major."""
    gh, gw = grid
    h, w, c = ref.shape
    diff = (ref.astype(np.float64) - tgt.astype(np.float64)) ** 2
    cells = diff.reshape(gh, h // gh, gw, w // gw, c).mean(axis=(1, 3, 4))
    return np.sqrt(cells).reshape(-1)


def check_edit_cells(records, images, grid, noise_sigma: float) -> list:
    """Reference and target differ beyond the pixel noise in the edited cell
    and in no other cell.

    Two independent noise draws of sigma differ by sigma*sqrt(2) RMS, so a
    cell counts as changed when its RMS difference exceeds twice that.
    """
    limit = 2.0 * np.sqrt(2.0) * noise_sigma
    bad = []
    for rec in records:
        rms = cell_differences(images(rec["ref_image"]), images(rec["tgt_image"]), grid)
        changed = set(np.flatnonzero(rms > limit).tolist())
        if changed != {rec["edit"]["cell"]}:
            bad.append(f"{rec['id']}: cells {sorted(changed)} changed, "
                       f"edit is in cell {rec['edit']['cell']}")
    return bad[:5]


def directional_derivative_error(loss_at, gradient: dict, params: dict,
                                 rng: np.random.Generator, eps: float = 1e-5) -> float:
    """Relative gap between the analytic gradient projected on one random
    unit direction and the central difference of ``loss_at`` along it.

    ``loss_at(arrays)`` evaluates the loss at float64 parameter arrays.
    """
    direction = {k: rng.standard_normal(v.shape) for k, v in params.items()}
    norm = np.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    direction = {k: d / norm for k, d in direction.items()}
    analytic = sum(float((gradient[k] * direction[k]).sum()) for k in params)
    plus = loss_at({k: params[k] + eps * direction[k] for k in params})
    minus = loss_at({k: params[k] - eps * direction[k] for k in params})
    numeric = (plus - minus) / (2.0 * eps)
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a = a / np.maximum(np.linalg.norm(a, axis=1, keepdims=True), 1e-12)
    b = b / np.maximum(np.linalg.norm(b, axis=1, keepdims=True), 1e-12)
    return a @ b.T


def rank_bounds(scores: np.ndarray, target: int, candidates) -> tuple[int, int]:
    """Best and worst 1-based rank of ``target`` among ``candidates``.

    Candidates scoring more than SCORE_TIE above the target rank above it
    under any rounding; those within SCORE_TIE of it may rank either side,
    which covers the ascending-id tie-break of exactly equal scores.
    """
    candidates = np.asarray(candidates)
    gap = scores[candidates] - scores[target]
    others = candidates != target
    return 1 + int((others & (gap > SCORE_TIE)).sum()), 1 + int((others & (gap >= -SCORE_TIE)).sum())


def nearest_subsets(feats: np.ndarray, targets, size: int) -> dict:
    """Brute force over all pairs: each target plus its size-1 most
    cosine-similar gallery images, ties to the lower position (ascending
    id)."""
    sims = cosine_matrix(feats, feats)
    positions = np.arange(len(feats))
    out = {}
    for t in targets:
        order = np.lexsort((positions, -sims[t]))
        out[t] = sorted([int(j) for j in order if j != t][: min(size, len(feats)) - 1] + [t])
    return out


def check_recalls(metrics, queries: np.ndarray, gallery: np.ndarray, targets,
                  subsets: dict, recall_ks, subset_ks) -> list:
    """R@K and Rs@K from the program lie within the bounds of a float64
    recomputation from the query and gallery features.

    ``gallery`` rows follow ascending gallery id, which is the tie order.
    """
    scores = cosine_matrix(queries, gallery)
    g = len(gallery)
    full = [rank_bounds(scores[i], t, range(g)) for i, t in enumerate(targets)]
    sub = [rank_bounds(scores[i], t, subsets[t]) for i, t in enumerate(targets)]
    bad = []
    for name, got, bounds, ks in (("R", metrics.r_at, full, recall_ks),
                                  ("Rs", metrics.rs_at, sub, subset_ks)):
        for k in ks:
            if k > g and name == "R":
                continue
            lo = np.mean([worst <= k for _, worst in bounds])
            hi = np.mean([best <= k for best, _ in bounds])
            if not lo - 1e-12 <= got[k] <= hi + 1e-12:
                bad.append(f"{name}@{k} = {got[k]} outside the recomputed [{lo}, {hi}]")
    return bad


def check_attention_maps(records: list, n_patches: int) -> list:
    """Every alignment map has 2L non-negative weights that sum to 1."""
    bad = []
    for rec in records:
        w = np.asarray(rec["attention"], dtype=np.float64)
        if w.shape != (2 * n_patches,) or (w < 0).any() or abs(w.sum() - 1.0) > 1e-5:
            bad.append(f"{rec['id']}: map of shape {w.shape}, min {w.min()}, sum {w.sum()}")
    return bad[:5]


def words(modifier: str) -> set:
    return set(re.findall(r"[a-z]+", modifier.lower()))


def check_zero_shot(train_records, kept_records, held_out) -> list:
    """No training modifier names a held-out colour; every kept zero-shot
    triplet does."""
    held_out = set(held_out)
    bad = [f"training triplet {r['id']} names {sorted(words(r['modifier']) & held_out)}"
           for r in train_records if words(r["modifier"]) & held_out]
    bad += [f"zero-shot triplet {r['id']} names no held-out colour"
            for r in kept_records if not words(r["modifier"]) & held_out]
    if not kept_records:
        bad.append("the zero-shot split is empty")
    return bad[:5]


def check_loss_falls(records, label: str) -> list:
    """Every epoch's losses are finite and the last epoch's mean is below
    the first's."""
    losses = [r["L"] for r in records]
    if not all(np.isfinite(x) for x in losses):
        return [f"{label}: non-finite loss in {losses}"]
    if not losses[-1] < losses[0]:
        return [f"{label}: loss did not fall, {losses}"]
    return []
