"""Whole-model program: batch paths, ablation wiring, train/eval parity."""

import numpy as np
import pytest

from ccir.autograd import forward_backward, run_program as run_graph
from ccir.config import TrainConfig
from ccir.data import DataConfig, build_vocabulary, generate_dataset, generate_triplet, render_scene
from ccir.encoders import build_text_vocab, patchify
from ccir.model import (
    alignment_maps,
    build_training_program,
    embed_queries,
    embed_targets,
    encode_images_array,
    init_model_params,
    l2_normalize_rows,
)
from ccir.train import _prepare_examples, load_dataset

D_CFG = DataConfig(noise_sigma=0.0)
SMALL = dict(d=16, n_heads=2, k_steps=2, batch_size=4, epochs=1)


def small_cfg(**kw):
    return TrainConfig(**{**SMALL, **kw})


def make_batch(n=4, seed0=100):
    """Patches, word ids, labels for n generated triplets."""
    cfg = small_cfg()
    triplets = [generate_triplet(seed0 + i, D_CFG) for i in range(n)]
    vocab = ["<unk>"] + sorted({w for t in triplets for w in t.modifier.split()})
    index = {w: i for i, w in enumerate(vocab)}
    concepts = sorted({c for t in triplets for c in t.concepts})
    ids_batch = [[index[w] for w in t.modifier.split()] for t in triplets]
    labels = np.zeros((n, len(concepts)), dtype=np.float32)
    for i, t in enumerate(triplets):
        for c in t.concepts:
            labels[i, concepts.index(c)] = 1.0
    ref = np.concatenate([patchify(render_scene(t.reference, D_CFG), D_CFG.cell_px)
                          for t in triplets])
    tgt = np.concatenate([patchify(render_scene(t.target, D_CFG), D_CFG.cell_px)
                          for t in triplets])
    params = init_model_params(0, cfg, D_CFG.n_cells, D_CFG.cell_px, D_CFG.channels,
                               len(vocab), len(concepts))
    return cfg, params, ids_batch, labels, ref, tgt


def run_program(cfg, params, ids_batch, labels, ref, tgt):
    n, L = labels.shape[0], D_CFG.n_cells
    program = build_training_program(ids_batch, labels, n, L, cfg)
    inputs = {"patches": np.concatenate([ref, tgt])}
    return forward_backward(program, inputs, params)


def test_program_outputs_and_shapes():
    cfg, params, ids, labels, ref, tgt = make_batch()
    outs, grads = run_program(cfg, params, ids, labels, ref, tgt)
    n = 4
    assert outs["scores"].shape == (n, n)
    assert outs["loss"].shape == ()
    assert float(outs["loss"].data) > 0
    # every parameter got a gradient entry
    assert sorted(grads.paths()) == sorted(params.paths())


def test_token_cache_path_matches_patch_path():
    """Feeding pre-encoded tokens must give the identical loss."""
    cfg, params, ids, labels, ref, tgt = make_batch()
    n, L = 4, D_CFG.n_cells
    program = build_training_program(ids, labels, n, L, cfg)
    full, _ = run_graph(program, {"patches": np.concatenate([ref, tgt])}, params)
    ref_tok = encode_images_array(params, ref, n, cfg)
    tgt_tok = encode_images_array(params, tgt, n, cfg)
    cached, _ = run_graph(program, {"ref_tokens": ref_tok, "tgt_tokens": tgt_tok}, params)
    assert np.allclose(full["loss"].value, cached["loss"].value, atol=1e-5)
    assert np.allclose(full["scores"].value, cached["scores"].value, atol=1e-5)


def test_remove_concept_module_drops_alignment():
    cfg, params, ids, labels, ref, tgt = make_batch()
    ab = small_cfg(remove_concept_module=True)
    outs, grads = run_program(ab, params, ids, labels, ref, tgt)
    assert float(outs["L_c"].data) == 0.0
    assert abs(float(outs["loss"].data) - float(outs["L_m"].data)) < 1e-7
    # concept table receives no gradient without the alignment loss
    assert np.allclose(grads["concepts/table"].data, 0.0)


def test_alignment_arms_use_different_token_bags():
    cfg, params, ids, labels, ref, tgt = make_batch()
    losses = {}
    for name, flags in (
        ("full", {}),
        ("ref", {"reference_only": True}),
        ("tgt", {"target_only": True}),
    ):
        outs, _ = run_program(small_cfg(**flags), params, ids, labels, ref, tgt)
        losses[name] = float(outs["L_c"].data)
    assert losses["full"] != losses["ref"]
    assert losses["full"] != losses["tgt"]
    assert losses["ref"] != losses["tgt"]


def test_cross_entropy_ablation_changes_only_l_c():
    cfg, params, ids, labels, ref, tgt = make_batch()
    base, _ = run_program(cfg, params, ids, labels, ref, tgt)
    ce, _ = run_program(small_cfg(cross_entropy_loss=True), params, ids, labels, ref, tgt)
    assert float(base["L_m"].data) == pytest.approx(float(ce["L_m"].data), abs=1e-7)
    assert float(base["L_c"].data) != float(ce["L_c"].data)
    # focusing exponents only shrink terms, so plain BCE is the larger loss
    assert float(ce["L_c"].data) > float(base["L_c"].data)


def test_remove_fusion_leaves_fusion_params_ungraded():
    cfg, params, ids, labels, ref, tgt = make_batch()
    outs, grads = run_program(small_cfg(remove_fusion=True), params, ids, labels, ref, tgt)
    fusion_paths = [p for p in grads.paths() if p.startswith("fusion/")]
    assert fusion_paths
    for p in fusion_paths:
        assert np.allclose(grads[p].data, 0.0), f"unexpected gradient at {p}"
    nofusion = [p for p in grads.paths() if p.startswith("nofusion/")]
    assert any(np.abs(grads[p].data).max() > 0 for p in nofusion)


def test_context_score_shifts_score_matrix():
    cfg, params, ids, labels, ref, tgt = make_batch()
    base, _ = run_program(cfg, params, ids, labels, ref, tgt)
    ctx, _ = run_program(small_cfg(context_score_on=True), params, ids, labels, ref, tgt)
    assert not np.allclose(base["scores"].data, ctx["scores"].data, atol=1e-6)
    # context adds a cosine, so scores stay within [-2, 2]
    assert np.abs(ctx["scores"].data).max() <= 2.0 + 1e-5


def test_image_init_is_stable_across_vocab_sizes():
    """Resizing text/concept tables must not disturb the image encoder;
    candidate-subset construction depends on this."""
    cfg = small_cfg()
    a = init_model_params(0, cfg, 16, 8, 3, 10, 5)
    b = init_model_params(0, cfg, 16, 8, 3, 321, 77)
    for path in a.paths():
        if path.startswith("image/"):
            assert np.array_equal(a[path].data, b[path].data), path


def test_train_eval_parity_on_scores():
    """The evaluation embedding helpers reproduce the training program's
    score matrix exactly (same math, different plumbing)."""
    cfg, params, ids, labels, ref, tgt = make_batch()
    n, L = 4, D_CFG.n_cells
    program = build_training_program(ids, labels, n, L, cfg)
    outs, _ = run_graph(program, {"patches": np.concatenate([ref, tgt])}, params)
    ref_tok = encode_images_array(params, ref, n, cfg)
    tgt_tok = encode_images_array(params, tgt, n, cfg)
    v = embed_targets(params, tgt_tok, n, L, cfg)
    u, ctx = embed_queries(params, ref_tok, ids, n, L, cfg)
    assert ctx is None
    scores = l2_normalize_rows(u) @ l2_normalize_rows(v).T
    assert np.allclose(scores, outs["scores"].value, atol=1e-5)


def test_alignment_maps_partition():
    """Each pair's map is a distribution over its 2L joint tokens, and a
    row with no concept maps the mean of every concept's map."""
    cfg, params, ids, labels, ref, tgt = make_batch()
    n, L = labels.shape[0], D_CFG.n_cells
    patches = np.concatenate([ref, tgt]).reshape(2 * n, L, -1)
    mask = labels.copy()
    mask[1] = 0.0
    maps, s_prime = alignment_maps(params, patches, mask, cfg)
    assert maps.shape == (n, 2 * L)
    assert np.allclose(maps.sum(axis=1), 1.0, atol=1e-5)
    assert maps.min() >= 0
    assert s_prime.shape == (n, params["concepts/table"].shape[0])
    assert ((0 < s_prime) & (s_prime < 1)).all()
    every = alignment_maps(params, patches, np.ones_like(mask), cfg)[0]
    assert np.allclose(maps[1], every[1], atol=1e-7)
    assert not np.allclose(maps[0], every[0], atol=1e-6)


def test_concept_row_override_is_applied():
    cfg = small_cfg()
    rows = np.arange(5 * cfg.d, dtype=np.float32).reshape(5, cfg.d) / 100.0
    from ccir.tensor import Tensor

    params = init_model_params(0, cfg, 16, 8, 3, 10, 5, concept_rows=Tensor(rows))
    assert np.array_equal(params["concepts/table"].data, rows)
    with pytest.raises(ValueError):
        init_model_params(0, cfg, 16, 8, 3, 10, 4, concept_rows=Tensor(rows))


def test_default_training_graph_stays_small(tmp_path):
    """Each layer is one fused node, so the graph of a default unfrozen
    step (the first 32 triplets of seed-202 data, seed-0 init, pixels in)
    stays a few hundred nodes; composed from elementwise primitives it
    was 914."""
    generate_dataset(tmp_path, 64, 16, DataConfig(), seed=202)
    ds = load_dataset(tmp_path)
    cfg = TrainConfig()
    modifiers = [r["modifier"] for r in ds.train]
    text_vocab = build_text_vocab(modifiers)
    concepts = build_vocabulary(modifiers, pos_set=cfg.pos_classes)
    params = init_model_params(0, cfg, ds.n_patches, ds.cell_px, ds.channels,
                               len(text_vocab), len(concepts))
    ids, labels = _prepare_examples(ds.train, {w: i for i, w in enumerate(text_vocab)},
                                    concepts, cfg.pos_classes)
    n, batch = 32, ds.train[:32]
    patches = np.stack([ds.patches[r["ref_image"]] for r in batch]
                       + [ds.patches[r["tgt_image"]] for r in batch])
    program = build_training_program(ids[:n], labels[:n], n, ds.n_patches, cfg)
    outs, _ = run_graph(program, {"patches": patches}, params)
    seen, stack = {id(outs["loss"])}, [outs["loss"]]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    assert len(seen) <= 340
