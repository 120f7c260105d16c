"""End-to-end acceptance checks: one test per shipped guarantee.

Each test is self-contained and pins its own tolerances.  The two
training fixtures are session-scoped because they dominate the runtime
budget: a full-size run reused by the learning and localization checks,
and a reduced-scale ablation grid reused by the directionality check.
"""
import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from ccir import autograd as ag
from ccir.alignment import asymmetric_loss_node, attention_pool_batch_node
from ccir.autograd import grad_check
from ccir.config import TrainConfig
from ccir.data import (DataConfig, generate_dataset, generate_triplet,
                       make_zero_shot_split, render_scene)
from ccir.encoders import (build_text_vocab, patchify, tokenize, validate_image,
                           words_to_ids)
from ccir.fusion import batch_classification_loss_node
from ccir.layers import adaptive_norm_node
from ccir.model import build_training_program, init_model_params
from ccir.optim import OptimizerState, adamw_step
from ccir.train import Checkpoint, alignment_record, evaluate, load_dataset, train
from ccir.autograd import forward_backward


# ---------------------------------------------------------------------------
# session fixtures (expensive runs, shared across criteria)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def main_run(tmp_path_factory):
    """Full-size training run: 2000/200 triplets, default config, 30 epochs."""
    root = tmp_path_factory.mktemp("accept_main")
    data_dir = root / "data"
    generate_dataset(data_dir, 2000, 200, DataConfig(), seed=202)
    cfg = TrainConfig(seed=0, epochs=30)
    t0 = time.time()
    ckpt, records = train(cfg, data_dir, out_dir=root / "run")
    elapsed = time.time() - t0
    return SimpleNamespace(
        ckpt=ckpt,
        records=records,
        elapsed=elapsed,
        dataset=load_dataset(data_dir),
    )


ABL_BASE = dict(d=32, epochs=15, freeze_epochs=4, batch_size=32, eval_every=1000)
ABL_SEEDS = (0, 1, 2)
ABL_ARMS = {
    "reference_only": {"reference_only": True},
    "target_only": {"target_only": True},
    "cross_entropy_loss": {"cross_entropy_loss": True},
    "remove_fusion": {"remove_fusion": True},
    "plain_layer_norm": {"plain_layer_norm": True},
}


def _seed_aggregates(data_dir, flags, eval_records=None, gallery=None, dataset=None):
    """Aggregate retrieval quality of one arm, one entry per seed."""
    aggs = []
    for seed in ABL_SEEDS:
        cfg = TrainConfig(seed=seed, **ABL_BASE, **flags)
        ckpt, records = train(cfg, data_dir)
        if eval_records is None:
            aggs.append(records[-1]["recall"]["aggregate"])
        else:
            m = evaluate(ckpt, eval_records, dataset, gallery_ids=gallery)
            aggs.append(m.aggregate)
    return aggs


@pytest.fixture(scope="session")
def ablation_grid(tmp_path_factory):
    """Per-seed aggregate retrieval quality for the full model and every
    ablation, on the main split and on the zero-shot split."""
    root = tmp_path_factory.mktemp("accept_abl")
    main_dir = root / "main"
    zs_dir = root / "zs"
    generate_dataset(main_dir, 800, 120, DataConfig(), seed=303)
    generate_dataset(zs_dir, 800, 120, DataConfig(), seed=404,
                     holdout_colors=("purple", "orange"))

    main = {"full": _seed_aggregates(main_dir, {})}
    for arm, flags in ABL_ARMS.items():
        main[arm] = _seed_aggregates(main_dir, flags)

    ds_zs = load_dataset(zs_dir)
    _, kept = make_zero_shot_split([r["modifier"] for r in ds_zs.train], ds_zs.val)
    gallery = sorted({r["tgt_image"] for r in ds_zs.val})
    zero_shot = {
        "full": _seed_aggregates(zs_dir, {}, kept, gallery, ds_zs),
        "remove_concept_module": _seed_aggregates(
            zs_dir, {"remove_concept_module": True}, kept, gallery, ds_zs
        ),
    }
    return SimpleNamespace(main=main, zero_shot=zero_shot)


# ---------------------------------------------------------------------------
# 1. analytic gradients of the complete training loss
# ---------------------------------------------------------------------------


def test_full_loss_gradient_check():
    # smallest full-architecture instance: width 8, 2x2 grid, 2 fusion
    # steps, 10 concepts, batch of 2
    dcfg = DataConfig(grid=(2, 2), cell_px=2, min_objects=2, max_objects=2,
                      noise_sigma=0.0)
    cfg = TrainConfig(seed=0, d=8, n_heads=2, k_steps=2, batch_size=2)

    trips = [generate_triplet(np.random.default_rng(1000 + i), dcfg) for i in range(8)]
    trips.sort(key=lambda t: len(t.modifier.split()))
    trips = trips[:2]
    vocab = build_text_vocab([t.modifier for t in trips])
    vindex = {w: i for i, w in enumerate(vocab)}
    ids_batch = [words_to_ids(tokenize(t.modifier), vindex) for t in trips]

    concepts = sorted({c for t in trips for c in t.concepts})
    while len(concepts) < 10:
        concepts.append(f"pad{len(concepts)}")
    concepts = concepts[:10]
    cidx = {c: j for j, c in enumerate(concepts)}
    labels = np.zeros((2, 10), dtype=np.float32)
    for i, t in enumerate(trips):
        for c in t.concepts:
            if c in cidx:
                labels[i, cidx[c]] = 1.0

    seg = dcfg.grid[0] * dcfg.grid[1]
    rows = []
    for t in trips:
        rows.append(patchify(validate_image(
            render_scene(t.reference, dcfg, np.random.default_rng(5))), dcfg.cell_px))
    for t in trips:
        rows.append(patchify(validate_image(
            render_scene(t.target, dcfg, np.random.default_rng(6))), dcfg.cell_px))
    patches = np.concatenate(rows, axis=0)

    params = init_model_params(0, cfg, seg, dcfg.cell_px, 3, len(vocab), 10)
    program = build_training_program(ids_batch, labels, 2, seg, cfg)
    inputs = {"patches": patches}

    # check at a briefly trained point rather than at initialization, so
    # that every reachable path carries signal
    state = OptimizerState.initial(params)
    for _ in range(50):
        _, grads = forward_backward(program, inputs, params)
        params, state = adamw_step(params, grads, state, lr=3e-3)

    # epsilon balances central-difference truncation (~eps^2 * third
    # derivative, large through the heavily weighted concept branch)
    # against rounding noise
    t0 = time.time()
    err = grad_check(program, inputs, params, epsilon=3e-5)
    elapsed = time.time() - t0
    assert err <= 1e-3, f"max relative gradient error {err:.3e}"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. loss identities
# ---------------------------------------------------------------------------


def f64(x):
    """A float64 leaf: checks 2-4 run the model's graph nodes at float64, so
    their bounds measure the formulas rather than float32 rounding."""
    return ag.leaf(x, dtype=np.float64)


def test_loss_identities_bce_and_uniform_batch():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        s = rng.normal(0.0, 2.0, n)
        y = (rng.random(n) < 0.4).astype(np.float32)
        if y.sum() == 0:
            y[int(rng.integers(n))] = 1.0
        p = 1.0 / (1.0 + np.exp(-s.astype(np.float64)))
        got = float(asymmetric_loss_node(f64(s[None]), y[None], 0.0, 0.0).value)
        bce = -float(np.sum(y * np.log(p) + (1 - y) * np.log(1 - p)))
        assert abs(got - bce) <= 1e-6, f"asymmetric loss at zero exponents: {got} vs {bce}"

    for n in (2, 8, 32):
        scores = np.full((n, n), 0.37, dtype=np.float64)
        loss = float(batch_classification_loss_node(f64(scores), gamma=2.65926).value)
        assert abs(loss - np.log(n)) <= 1e-6, f"uniform batch loss N={n}: {loss}"


# ---------------------------------------------------------------------------
# 3. adaptive normalization identities
# ---------------------------------------------------------------------------


def test_adaptive_norm_identities():
    rng = np.random.default_rng(1)
    x = rng.normal(2.0, 3.0, (100, 16)).astype(np.float64)
    out = adaptive_norm_node(f64(x), f64(np.zeros(16)), f64(np.ones(16))).value
    assert np.abs(out.mean(axis=1)).max() <= 1e-5
    assert np.abs(out.var(axis=1) - 1.0).max() <= 1e-4

    # two-element worked example: normalize [1, 3], then scale 2 shift 5
    row = np.array([[1.0, 3.0]])
    got = adaptive_norm_node(f64(row), f64(np.array([5.0, 5.0])),
                             f64(np.array([2.0, 2.0]))).value
    unit = 1.0 / np.sqrt(1.0 + 1e-5)
    exact = np.array([[5.0 - 2.0 * unit, 5.0 + 2.0 * unit]])
    assert np.abs(got - exact).max() <= 1e-6
    assert np.abs(got - np.array([[3.0, 7.0]])).max() <= 1e-4


# ---------------------------------------------------------------------------
# 4. attention pooling against a brute-force oracle
# ---------------------------------------------------------------------------


def test_attention_pool_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        L = int(rng.integers(1, 9))
        d = int(rng.integers(2, 17))
        tokens = rng.normal(0.0, 1.0, (L, d)).astype(np.float32)
        w = rng.normal(0.0, 1.0, (d, 1)).astype(np.float32)
        b = rng.normal(0.0, 1.0, (1,)).astype(np.float32)
        params = {"pool/w": f64(w), "pool/b": f64(b)}

        weights, res = attention_pool_batch_node(params, f64(tokens[None]))
        weights, res = weights.value.reshape(-1), res.value[0]
        logits = tokens.astype(np.float64) @ w.astype(np.float64) + b
        e = np.exp(logits - logits.max())
        a = (e / e.sum()).reshape(-1)
        pooled = a @ tokens.astype(np.float64)
        assert abs(float(weights.sum()) - 1.0) <= 1e-6
        assert np.abs(weights - a).max() <= 1e-6
        assert np.abs(res - pooled).max() <= 1e-6


# ---------------------------------------------------------------------------
# 5. end-to-end learning on the synthetic task
# ---------------------------------------------------------------------------


def test_end_to_end_learning_on_synthetic_data(main_run):
    final = main_run.records[-1]["recall"]
    assert final["R@1"] >= 0.10, f"R@1 {final['R@1']:.3f} below 20x random"
    assert final["R@5"] >= 0.50, f"R@5 {final['R@5']:.3f}"
    assert main_run.elapsed < 1800.0, f"training took {main_run.elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 6. ablation directionality
# ---------------------------------------------------------------------------


def test_ablation_directionality(ablation_grid):
    # the seed-mean of the full model must beat every ablation arm on the
    # main split, and the no-concept arm on the zero-shot split; every
    # clause is evaluated so a failure reports the whole table
    rows, violated = [], []
    for split, table in (("main", ablation_grid.main), ("zero-shot", ablation_grid.zero_shot)):
        means = {arm: float(np.mean(aggs)) for arm, aggs in table.items()}
        for arm, aggs in table.items():
            per_seed = " ".join(f"{a:.4f}" for a in aggs)
            rows.append(f"{split:9s} {arm:22s} {per_seed}  mean {means[arm]:.4f}")
        for arm, mean in means.items():
            if arm != "full" and not means["full"] > mean:
                violated.append(
                    f"{split}: full {means['full']:.4f} does not beat {arm} {mean:.4f}"
                )
    assert not violated, "\n".join(
        [f"aggregate per seed {ABL_SEEDS}:", *rows, "violated:", *violated]
    )


# ---------------------------------------------------------------------------
# 7. alignment attention localization
# ---------------------------------------------------------------------------


def test_alignment_attention_localization(main_run):
    ds = main_run.dataset
    two_l = 2 * ds.n_patches
    ratios = []
    for rec in ds.val:
        union = sorted({i for idxs in rec["concept_patches"].values() for i in idxs})
        if not union:
            continue
        att = np.asarray(alignment_record(main_run.ckpt, rec, ds)["attention"])
        mass = float(att[union].sum())
        ratios.append(mass / (len(union) / two_l))
    mean_ratio = float(np.mean(ratios))
    assert mean_ratio >= 2.0, (
        f"attention mass on ground-truth patches is {mean_ratio:.3f}x uniform"
    )


# ---------------------------------------------------------------------------
# 8. determinism and checkpoint round trip
# ---------------------------------------------------------------------------


def test_determinism_and_checkpoint_round_trip(tmp_path):
    data_dir = tmp_path / "data"
    generate_dataset(data_dir, 48, 12, DataConfig(), seed=78)
    cfg = TrainConfig(seed=5, d=16, n_heads=2, k_steps=2, batch_size=16,
                      epochs=2, freeze_epochs=1)

    ckpt_a, _ = train(cfg, data_dir, out_dir=tmp_path / "run_a")
    ckpt_b, _ = train(cfg, data_dir, out_dir=tmp_path / "run_b")
    log_a = (tmp_path / "run_a" / "metrics.jsonl").read_bytes()
    log_b = (tmp_path / "run_b" / "metrics.jsonl").read_bytes()
    assert log_a == log_b, "identical seeds must produce identical metrics logs"

    ds = load_dataset(data_dir)
    loaded = Checkpoint.load(tmp_path / "run_a" / "model.nck")
    m_mem = evaluate(ckpt_a, ds.val, ds).to_dict()
    m_disk = evaluate(loaded, ds.val, ds).to_dict()
    assert m_mem == m_disk, "reloaded checkpoint must evaluate bit-identically"


# ---------------------------------------------------------------------------
# 9. zero-shot split construction
# ---------------------------------------------------------------------------


def test_zero_shot_split_exact_construction():
    train_modifiers = ["add a red circle", "remove the blue square"]
    val_triplets = [
        {"id": "v0", "modifier": "paint the red circle green now"},
        {"id": "v1", "modifier": "add a green ring"},
        {"id": "v2", "modifier": "remove the blue square"},
    ]
    concepts, kept = make_zero_shot_split(train_modifiers, val_triplets)
    assert concepts == {"paint", "green", "now", "ring"}
    assert {t["id"] for t in kept} == {"v0", "v1"}
