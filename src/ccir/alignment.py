"""Weakly-supervised concept alignment over cell-paired reference+target tokens.

The two images' token grids are laid out as (n, L, 2, d), each cell's
reference and target tokens on a pair axis, and contextualized by the
shared pre-norm transformer layer (``layers.transformer_layer``, the one
the image encoder runs) attending over that axis.  So each token attends
only to itself and to the same grid cell of the other image, and carries
the evidence of its own cell pair and not of the whole pair of images.
The 2L tokens form the bag of a concept-conditioned attention-MIL: every
concept attends over the bag with its own softmax of token . concept-row
logits and scores it by the attention-weighted logit.  An asymmetric
multi-label loss that softens the many uncertain negatives trains the
scores.  The attention-pool head (``pool/*``) belongs to retrieval and is
not used here.

The graph builders work on a whole batch, with tokens as (n, L, d).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .layers import init_linear, init_transformer_layer, linear, transformer_layer

JOINT_PREFIX = "joint"
POOL_PREFIX = "pool"
JOINT_LAYERS = 2


@dataclass
class ConceptLabelVector:
    """Multi-hot labels over the concept vocabulary."""

    labels: np.ndarray

    def __post_init__(self):
        vals = set(np.unique(self.labels).tolist())
        if not vals <= {0.0, 1.0}:
            raise ValueError("labels must be 0/1")

    @classmethod
    def from_concepts(cls, concepts, vocabulary: list) -> "ConceptLabelVector":
        index = {c: i for i, c in enumerate(vocabulary)}
        vec = np.zeros(len(vocabulary), dtype=np.float32)
        for c in concepts:
            if c in index:
                vec[index[c]] = 1.0
        return cls(vec)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def init_joint_transformer(rng, params: dict, d: int) -> None:
    for i in range(JOINT_LAYERS):
        init_transformer_layer(rng, params, f"{JOINT_PREFIX}/l{i}", d)


def init_attention_pool(rng, params: dict, d: int) -> None:
    init_linear(rng, params, POOL_PREFIX, d, 1)


# ---------------------------------------------------------------------------
# batched graph functions
# ---------------------------------------------------------------------------


def joint_encode_batch_node(p, ref_tokens, tgt_tokens, n_heads: int):
    """Contextualize cell-paired reference and target tokens.

    ref_tokens, tgt_tokens: (n, L, d), with the grid cells in the same
    order in both images.  Each cell's two tokens form an (n, L, 2, d)
    pair axis, and the joint layers attend over it, so a token sees
    itself and the same cell of the other image.  Returns (n, 2L, d) with
    each example's reference cells first.
    """
    if ref_tokens.shape != tgt_tokens.shape:
        raise ag.ShapeError(
            f"joint encode: cell-paired tokens differ, {ref_tokens.shape} vs {tgt_tokens.shape}"
        )
    n, seg_len, d = ref_tokens.shape
    x = ag.concat([ag.reshape(t, (n, seg_len, 1, d)) for t in (ref_tokens, tgt_tokens)], axis=2)
    for i in range(JOINT_LAYERS):
        x = transformer_layer(p, f"{JOINT_PREFIX}/l{i}", x, n_heads)
    return ag.reshape(ag.transpose(x, 1, 2), (n, 2 * seg_len, d))


def encode_tokens_batch_node(p, tokens, n_heads: int):
    """The same layers over one image's (n, L, d) tokens; returns (n, L, d).

    With no second image each cell's pair axis holds one token, and a
    softmax over one key is 1, so each token attends to itself alone.
    """
    x = ag.reshape(tokens, tokens.shape[:2] + (1, tokens.shape[2]))
    for i in range(JOINT_LAYERS):
        x = transformer_layer(p, f"{JOINT_PREFIX}/l{i}", x, n_heads)
    return ag.reshape(x, tokens.shape)


def concept_mil_node(bags, table):
    """Concept-conditioned attention-MIL over token bags.

    bags: (n, B, d); table: C x d.  Each concept attends over each bag with
    its own softmax of the logits token . concept row, and scores the bag
    by the attention-weighted logit.  Returns (attention (n, B, C), raw
    scores n x C).
    """
    logits = ag.matmul(bags, ag.transpose(table))
    att = ag.softmax(logits, axis=1)
    return att, ag.sum_(att * logits, axis=1)


def mean_concept_map(att: np.ndarray, concept_mask: np.ndarray) -> np.ndarray:
    """Average the attention maps of the masked concepts.

    att: (n, B, C); concept_mask: (n, C) of 0/1.  A row that selects no
    concept averages over all of them.  Returns (n, B).
    """
    mask = np.asarray(concept_mask, dtype=np.float64)
    mask = np.where(mask.sum(axis=1, keepdims=True) > 0, mask, 1.0)
    mask = mask / mask.sum(axis=1, keepdims=True)
    return np.einsum("nbc,nc->nb", np.asarray(att, dtype=np.float64), mask)


def attention_pool_batch_node(p, tokens):
    """Softmax-attention pooling of each example's (n, L, d) tokens.

    One logit per token, softmax over each example's L tokens.  Returns
    (weights (n, L, 1), pooled n x d).
    """
    w = ag.softmax(linear(p, POOL_PREFIX, tokens), axis=1)
    return w, ag.sum_(tokens * w, axis=1)


def asymmetric_loss_node(s_logits, labels: np.ndarray, beta_plus: float,
                         beta_minus: float):
    """Batched asymmetric multi-label loss from raw n x C logits.

    Per example the positive/negative terms are summed; the total is
    divided by the batch size n, the rows of ``labels``.  Rows with no
    positive label are masked out (degenerate supervision).
    """
    labels = np.asarray(labels, dtype=np.float32)
    row_live = (labels.sum(axis=1, keepdims=True) > 0).astype(np.float32)
    if row_live.sum() < labels.shape[0]:
        warnings.warn("asymmetric loss: skipping example(s) with no positive concept")

    y = ag.leaf(labels)
    sp = ag.sigmoid(s_logits)
    log_sp = -ag.softplus(-s_logits)      # log sigmoid(s), stable
    log_1msp = -ag.softplus(s_logits)     # log (1 - sigmoid(s)), stable
    pos = y * ag.powc(1.0 - sp, beta_plus) * log_sp
    neg = (1.0 - y) * ag.powc(sp, beta_minus) * log_1msp
    per_example = ag.sum_(pos + neg, axis=1, keepdims=True)
    total = ag.sum_(per_example * ag.leaf(row_live))
    return -total * (1.0 / float(labels.shape[0]))
