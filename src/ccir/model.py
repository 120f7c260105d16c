"""Full-model parameter initialization and graph assembly.

The training program wires together, per batch: visual token encoding
(or cached frozen tokens), text encoding, the concept-alignment branch,
the progressive fusion branch, and the in-batch matching loss.  Ablation
flags reroute or drop branches; parameters for disabled branches still
exist and simply receive zero gradients.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .alignment import (
    asymmetric_loss_node,
    attention_pool_batch_node,
    concept_mil_node,
    encode_tokens_batch_node,
    init_attention_pool,
    init_joint_transformer,
    joint_encode_batch_node,
    mean_concept_map,
)
from .config import TrainConfig
from .encoders import (
    encode_image_batch_node,
    encode_text_batch_node,
    init_concept_table,
    init_image_encoder,
    init_text_encoder,
)
from .fusion import (
    batch_classification_loss_node,
    fusion_sequence_batch_node,
    fusion_step_batch_node,
    init_fusion,
    instantiate_block_batch_node,
    l2_normalize_rows_node,
    total_loss_node,
)
from .layers import init_linear, linear
from .tensor import ParameterSet, Tensor


def init_model_params(seed: int, cfg: TrainConfig, n_patches: int, patch_px: int,
                      channels: int, text_vocab_size: int, n_concepts: int,
                      concept_rows: Tensor | None = None) -> ParameterSet:
    """Seed-deterministic initialization of every model parameter."""
    rng = np.random.default_rng(seed)
    params: dict = {}
    init_image_encoder(rng, params, cfg.d, patch_px, channels, n_patches)
    init_text_encoder(rng, params, text_vocab_size, cfg.d)
    init_joint_transformer(rng, params, cfg.d)
    init_attention_pool(rng, params, cfg.d)
    init_concept_table(rng, params, n_concepts, cfg.d)
    if concept_rows is not None:
        if concept_rows.shape != (n_concepts, cfg.d):
            raise ValueError(
                f"concept rows {concept_rows.shape} != ({n_concepts}, {cfg.d})"
            )
        params["concepts/table"] = concept_rows
    init_fusion(rng, params, cfg.d, cfg.k_steps)
    init_linear(rng, params, "nofusion", 2 * cfg.d, cfg.d)
    return ParameterSet(params)


def _examples(x, n: int, seg_len: int):
    """A flat (n*L) x k stack or an (n, L, k) array viewed as (n, L, k)."""
    return np.reshape(x, (n, seg_len, np.shape(x)[-1]))


def _visual_tokens(p, inputs, n_examples: int, seg_len: int, cfg: TrainConfig):
    """(n, L, d) reference and target tokens, from pixels or a frozen cache."""
    if "ref_tokens" in inputs:
        ref, tgt = inputs["ref_tokens"], inputs["tgt_tokens"]
        shape = (n_examples, seg_len, ref.shape[-1])
        return ag.reshape(ref, shape), ag.reshape(tgt, shape)
    patches = inputs["patches"]
    patches = ag.reshape(patches, (2 * n_examples, seg_len, patches.shape[-1]))
    all_tokens = encode_image_batch_node(p, patches, cfg.n_heads)
    return all_tokens[:n_examples], all_tokens[n_examples:]


def _query_feature(p, ref_tokens, q, words, key_mask, cfg: TrainConfig):
    """(fused tokens, pooled query feature) after K instantiated fusion
    steps; without fusion, (None, the pooled reference and q projected)."""
    if cfg.remove_fusion:
        _, ref_pooled = attention_pool_batch_node(p, ref_tokens)
        return None, linear(p, "nofusion", ag.concat([ref_pooled, q], axis=1))
    indicators = fusion_sequence_batch_node(p, q, words, key_mask, cfg.k_steps, cfg.n_heads)
    inst = instantiate_block_batch_node(p, indicators)
    f = ref_tokens
    for step in range(cfg.k_steps):
        f = fusion_step_batch_node(p, f, inst, cfg.n_heads, step, cfg.plain_layer_norm)
    _, pooled = attention_pool_batch_node(p, f)
    return f, pooled


def build_training_program(ids_batch: list, labels: np.ndarray | None,
                           n_examples: int, seg_len: int, cfg: TrainConfig):
    """Program computing the combined loss for one batch.

    Inputs at run time: either "patches" (2n images of L x patch_dim,
    references then targets) or cached "ref_tokens"/"tgt_tokens" (n images
    of L x d each), as flat stacks or per-image arrays.  Word ids and
    concept labels ride along in the closure since they are integral.
    """

    def program(inputs, p):
        ref_tok, tgt_tok = _visual_tokens(p, inputs, n_examples, seg_len, cfg)
        words, q, key_mask = encode_text_batch_node(p, ids_batch, cfg.d)

        outputs = {}

        # concept alignment branch
        if cfg.remove_concept_module or labels is None:
            l_c = None
        else:
            if cfg.reference_only:
                bags = encode_tokens_batch_node(p, ref_tok, cfg.n_heads)
            elif cfg.target_only:
                bags = encode_tokens_batch_node(p, tgt_tok, cfg.n_heads)
            else:
                bags = joint_encode_batch_node(p, ref_tok, tgt_tok, cfg.n_heads)
            _, s = concept_mil_node(bags, p["concepts/table"])
            bp = 0.0 if cfg.cross_entropy_loss else cfg.beta_plus
            bm = 0.0 if cfg.cross_entropy_loss else cfg.beta_minus
            l_c = asymmetric_loss_node(s, labels, bp, bm)

        # target-side feature for matching: pool the encoder tokens directly
        _, v = attention_pool_batch_node(p, tgt_tok)

        # query-side feature
        fused, u = _query_feature(p, ref_tok, q, words, key_mask, cfg)

        score_mat = ag.matmul(l2_normalize_rows_node(u), ag.transpose(l2_normalize_rows_node(v)))
        if cfg.context_score_on and fused is not None:
            ctx_u = ag.mean(fused, axis=1)
            ctx_v = ag.mean(tgt_tok, axis=1)
            score_mat = score_mat + ag.matmul(
                l2_normalize_rows_node(ctx_u), ag.transpose(l2_normalize_rows_node(ctx_v))
            )

        l_m = batch_classification_loss_node(score_mat, cfg.gamma)
        loss = total_loss_node(l_m, l_c, 0.0 if l_c is None else cfg.alpha)
        outputs.update({
            "loss": loss,
            "L_m": l_m,
            "L_c": l_c if l_c is not None else ag.leaf(np.zeros(())),
            "scores": score_mat,
        })
        return outputs

    return program


# ---------------------------------------------------------------------------
# inference-side embedding (numpy in, numpy out)
# ---------------------------------------------------------------------------


def _params_to_nodes(params: ParameterSet) -> dict:
    return {k: ag.leaf(v) for k, v in params.items()}


def encode_images_array(params: ParameterSet, patch_stack: np.ndarray,
                        n_images: int, cfg: TrainConfig) -> np.ndarray:
    """(n, L, d) tokens of ``n_images`` images, given as a flat stack of
    patch rows or as (n, L, patch_dim)."""
    with ag.no_grad():
        p = _params_to_nodes(params)
        patches = ag.leaf(_examples(patch_stack, n_images, -1))
        return encode_image_batch_node(p, patches, cfg.n_heads).value.astype(np.float32)


def embed_targets(params: ParameterSet, token_stack: np.ndarray, n_images: int,
                  seg_len: int, cfg: TrainConfig) -> np.ndarray:
    """Pooled target features f_a for a stack of per-image tokens."""
    with ag.no_grad():
        p = _params_to_nodes(params)
        _, v = attention_pool_batch_node(p, ag.leaf(_examples(token_stack, n_images, seg_len)))
        return v.value.astype(np.float32)


def embed_queries(params: ParameterSet, ref_token_stack: np.ndarray,
                  ids_batch: list, n_examples: int, seg_len: int,
                  cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray | None]:
    """Pooled query features; also mean-pooled fused tokens when the
    context score is enabled (None otherwise)."""
    with ag.no_grad():
        p = _params_to_nodes(params)
        ref_tok = ag.leaf(_examples(ref_token_stack, n_examples, seg_len))
        words, q, key_mask = encode_text_batch_node(p, ids_batch, cfg.d)
        fused, u = _query_feature(p, ref_tok, q, words, key_mask, cfg)
        ctx = None
        if cfg.context_score_on and fused is not None:
            ctx = ag.mean(fused, axis=1).value.astype(np.float32)
        return u.value.astype(np.float32), ctx


def alignment_maps(params: ParameterSet, patches: np.ndarray, concept_mask: np.ndarray,
                   cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Joint attention maps and concept scores of n (reference, target) pairs.

    patches: (2n, L, patch_dim), the n references then the n targets;
    concept_mask: (n, C) of 0/1.  Row i's map is the mean of the attention
    maps of its masked concepts (of every concept when none is masked),
    one weight per joint token.  Returns maps (n, 2L) and sigmoid scores
    (n, C).
    """
    with ag.no_grad():
        p = _params_to_nodes(params)
        n, seg_len = len(concept_mask), patches.shape[1]
        ref, tgt = _visual_tokens(p, {"patches": ag.leaf(patches)}, n, seg_len, cfg)
        bags = joint_encode_batch_node(p, ref, tgt, cfg.n_heads)
        att, s = concept_mil_node(bags, p["concepts/table"])
        maps = mean_concept_map(att.value, concept_mask)
        return maps.astype(np.float32), ag.sigmoid(s).value.astype(np.float32)


def l2_normalize_rows(x: np.ndarray) -> np.ndarray:
    norms = np.sqrt((x.astype(np.float64) ** 2).sum(axis=1, keepdims=True))
    return (x / np.maximum(norms, 1e-12)).astype(np.float32)
