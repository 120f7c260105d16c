"""Training harness: smoke convergence, freezing, checkpoints, exports."""

import contextlib
import json

import numpy as np
import pytest

from ccir import autograd as ag
from ccir import metrics
from ccir import train as T
from ccir.config import TrainConfig
from ccir.data import DataConfig, generate_dataset, read_jsonl
from ccir.train import (
    EVAL_CHUNK,
    Checkpoint,
    DataError,
    NumericFailure,
    alignment_record,
    evaluate,
    export_alignment_diagnostics,
    export_alignment_heatmap,
    load_dataset,
    train,
)
from ccir.model import alignment_maps

SMALL = dict(d=16, n_heads=2, k_steps=2, batch_size=16, epochs=2,
             freeze_epochs=1, eval_every=10)


def small_cfg(**kw):
    return TrainConfig(**{**SMALL, **kw})


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke_data")
    generate_dataset(out, 200, 24, DataConfig(), seed=77)
    return out


@pytest.fixture(scope="module")
def tiny_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_data")
    generate_dataset(out, 48, 12, DataConfig(), seed=78)
    return out


@pytest.fixture(scope="module")
def wide_run(tmp_path_factory):
    """A one-epoch model and a validation split of EVAL_CHUNK + 3 triplets,
    so evaluation and the alignment export cross a chunk boundary."""
    out = tmp_path_factory.mktemp("wide_data")
    generate_dataset(out, 32, EVAL_CHUNK + 3, DataConfig(), seed=79)
    ckpt, _ = train(small_cfg(epochs=1, freeze_epochs=0), out)
    return ckpt, load_dataset(out)


def test_load_dataset_bundle(data_dir):
    ds = load_dataset(data_dir)
    assert len(ds.train) == 200 and len(ds.val) == 24
    assert ds.n_patches == 16 and (ds.cell_px, ds.channels) == (8, 3)
    some_img = next(iter(ds.patches.values()))
    assert some_img.shape == (16, 192)


def test_load_dataset_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_dataset(tmp_path / "nothing_here")


def test_smoke_training_loss_decreases(data_dir, tmp_path):
    ckpt, records = train(small_cfg(), data_dir, out_dir=tmp_path / "run")
    assert len(records) == 2
    assert records[-1]["L"] < records[0]["L"]
    assert (tmp_path / "run" / "metrics.jsonl").exists()
    assert (tmp_path / "run" / "model.nck").exists()
    logged = read_jsonl(tmp_path / "run" / "metrics.jsonl")
    assert [r["epoch"] for r in logged] == [0, 1]
    for key in ("L", "L_m", "L_c", "lr", "recall"):
        assert key in logged[0]


def test_training_is_seed_deterministic(tiny_dir, tmp_path):
    cfg = small_cfg(epochs=2, eval_every=1)
    train(cfg, tiny_dir, out_dir=tmp_path / "a")
    train(cfg, tiny_dir, out_dir=tmp_path / "b")
    a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
    b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
    assert a == b
    assert (tmp_path / "a" / "model.nck").read_bytes() == (tmp_path / "b" / "model.nck").read_bytes()


def test_frozen_epochs_leave_image_encoder_untouched(tiny_dir):
    from ccir.model import init_model_params
    from ccir.data import build_vocabulary
    from ccir.encoders import build_text_vocab

    cfg = small_cfg(epochs=1, freeze_epochs=1)
    ds = load_dataset(tiny_dir)
    mods = [r["modifier"] for r in ds.train]
    init = init_model_params(cfg.seed, cfg, ds.n_patches, ds.cell_px, ds.channels,
                             len(build_text_vocab(mods)),
                             len(build_vocabulary(mods, pos_set=cfg.pos_classes)))
    ckpt, _ = train(cfg, tiny_dir)
    for path in ckpt.params.paths():
        if path.startswith("image/"):
            assert np.array_equal(ckpt.params[path].data, init[path].data), path
    moved = [p for p in ckpt.params.paths()
             if not p.startswith("image/")
             and not np.array_equal(ckpt.params[p].data, init[p].data)]
    assert moved  # everything else trained


def test_unfrozen_training_moves_image_encoder(tiny_dir):
    cfg = small_cfg(epochs=1, freeze_epochs=0)
    ckpt, _ = train(cfg, tiny_dir)
    cfg2 = small_cfg(epochs=1, freeze_epochs=1)
    frozen, _ = train(cfg2, tiny_dir)
    diffs = [p for p in ckpt.params.paths() if p.startswith("image/")
             and not np.array_equal(ckpt.params[p].data, frozen.params[p].data)]
    assert diffs


def test_numeric_failure_reports_batch(tiny_dir):
    with pytest.raises(NumericFailure) as err:
        train(small_cfg(lr=1e8, epochs=3, freeze_epochs=0), tiny_dir)
    assert err.value.epoch >= 0
    assert err.value.batch_index >= 0
    assert "non-finite" in str(err.value)


def test_checkpoint_round_trip(tiny_dir, tmp_path):
    cfg = small_cfg(epochs=1, eval_every=1)
    ckpt, records = train(cfg, tiny_dir, out_dir=tmp_path / "run")
    loaded = Checkpoint.load(tmp_path / "run" / "model.nck")
    assert loaded.config == ckpt.config
    assert loaded.epoch == ckpt.epoch
    assert loaded.text_vocab == ckpt.text_vocab
    assert loaded.concept_vocab.concepts == ckpt.concept_vocab.concepts
    assert loaded.concept_vocab.tags == ckpt.concept_vocab.tags
    assert loaded.grid == ckpt.grid
    for path in ckpt.params.paths():
        assert np.array_equal(loaded.params[path].data, ckpt.params[path].data)
    # reloaded checkpoint evaluates bit-identically
    ds = load_dataset(tiny_dir)
    m1 = evaluate(ckpt, ds.val, ds)
    m2 = evaluate(loaded, ds.val, ds)
    assert m1.to_dict() == m2.to_dict()


def test_evaluate_rejects_gallery_without_target(tiny_dir):
    ckpt, _ = train(small_cfg(epochs=1), tiny_dir)
    ds = load_dataset(tiny_dir)
    bad_gallery = sorted({r["tgt_image"] for r in ds.val})[:-1]
    with pytest.raises(DataError) as err:
        evaluate(ckpt, ds.val, ds, gallery_ids=bad_gallery)
    assert "missing" in str(err.value)


def test_evaluate_score_dump_is_ranked(tiny_dir, tmp_path):
    ckpt, _ = train(small_cfg(epochs=1), tiny_dir)
    ds = load_dataset(tiny_dir)
    dump = tmp_path / "scores.jsonl"
    evaluate(ckpt, ds.val, ds, score_dump_path=dump)
    rows = read_jsonl(dump)
    assert len(rows) == len(ds.val)
    gallery = sorted({r["tgt_image"] for r in ds.val})
    for row in rows:
        assert sorted(row["ranked"]) == gallery
        assert row["scores"] == sorted(row["scores"], reverse=True)


def test_score_dump_ranks_equal_counted_ranks(tiny_dir, tmp_path, monkeypatch):
    ckpt, _ = train(small_cfg(epochs=1), tiny_dir)
    ds = load_dataset(tiny_dir)
    counted = []
    count = metrics.gallery_target_ranks
    monkeypatch.setattr(metrics, "gallery_target_ranks",
                        lambda *args: counted.append(count(*args)) or counted[-1])
    dump = tmp_path / "scores.jsonl"
    m = evaluate(ckpt, ds.val, ds, score_dump_path=dump)
    rows = read_jsonl(dump)
    dumped = np.array([row["ranked"].index(rec["tgt_image"]) + 1
                       for row, rec in zip(rows, ds.val)])
    (ranks,) = counted
    assert [row["query"] for row in rows] == [rec["id"] for rec in ds.val]
    assert dumped.tolist() == ranks.tolist()
    assert m.r_at == {k: float((dumped <= k).mean()) for k in m.r_at}


def test_evaluate_without_dump_never_sorts_whole_rows(tiny_dir, monkeypatch):
    ckpt, _ = train(small_cfg(epochs=1), tiny_dir)
    ds = load_dataset(tiny_dir)
    want = evaluate(ckpt, ds.val, ds).to_dict()

    def full_sort(*args):
        raise AssertionError("evaluate sorted every score row")

    monkeypatch.setattr("ccir.train.rank_rows", full_sort)
    monkeypatch.setattr("ccir.metrics.rank_rows", full_sort)
    assert evaluate(ckpt, ds.val, ds).to_dict() == want


def test_alignment_diagnostics_export(tiny_dir, tmp_path):
    ckpt, _ = train(small_cfg(epochs=1), tiny_dir)
    ds = load_dataset(tiny_dir)
    out = tmp_path / "diag.jsonl"
    export_alignment_diagnostics(ckpt, ds.val[:3], ds, out)
    rows = read_jsonl(out)
    assert len(rows) == 3
    for row in rows:
        assert row["boundary"] == 16
        assert len(row["attention"]) == 32
        assert abs(sum(row["attention"]) - 1.0) < 1e-4
        for c, score in row["concept_scores"].items():
            assert 0.0 < score < 1.0


def test_chunked_diagnostics_match_per_record_rows(wide_run, tmp_path):
    """The export runs EVAL_CHUNK pairs per pass; across a chunk boundary
    its rows equal one alignment_record call per triplet."""
    ckpt, ds = wide_run
    export_alignment_diagnostics(ckpt, ds.val, ds, tmp_path / "diag.jsonl")
    rows = read_jsonl(tmp_path / "diag.jsonl")
    assert len(rows) == EVAL_CHUNK + 3
    for row, rec in zip(rows, ds.val):
        want = alignment_record(ckpt, rec, ds)
        assert sorted(row) == sorted(want)
        assert row["id"] == want["id"] == rec["id"]
        assert row["concepts"] == want["concepts"]
        assert row["boundary"] == want["boundary"]
        np.testing.assert_allclose(row["attention"], want["attention"], atol=1e-6)
        assert sorted(row["concept_scores"]) == sorted(want["concept_scores"])
        for c, score in want["concept_scores"].items():
            assert abs(row["concept_scores"][c] - score) <= 1e-6


def test_chunking_and_recording_leave_results_unchanged(wide_run, tmp_path, monkeypatch):
    """Evaluation and the alignment export give the same bytes whatever
    EVAL_CHUNK is, and the same as when the inference helpers record their
    graphs as training does."""
    ckpt, ds = wide_run
    mask = np.ones((7, len(ckpt.concept_vocab)), np.float32)
    patches = T._pair_patches(ds, ds.val[:7])

    def outputs(tag):
        m = evaluate(ckpt, ds.val, ds, score_dump_path=tmp_path / f"{tag}.jsonl")
        export_alignment_diagnostics(ckpt, ds.val, ds, tmp_path / f"{tag}.diag")
        maps = alignment_maps(ckpt.params, patches, mask, ckpt.config)
        return (json.dumps(m.to_dict(), sort_keys=True), (tmp_path / f"{tag}.jsonl").read_bytes(),
                (tmp_path / f"{tag}.diag").read_bytes(), [a.tobytes() for a in maps])

    want = outputs("default")
    for chunk in (7, 32, 128):
        monkeypatch.setattr(T, "EVAL_CHUNK", chunk)
        assert outputs(f"chunk{chunk}") == want
    monkeypatch.setattr(ag, "no_grad", contextlib.nullcontext)
    assert outputs("recorded") == want


def test_heatmap_export_files(tiny_dir, tmp_path):
    ckpt, _ = train(small_cfg(epochs=1), tiny_dir)
    ds = load_dataset(tiny_dir)
    rec = ds.val[0]
    concept = next(c for c in rec["concepts"] if c in ckpt.concept_vocab)
    out = export_alignment_heatmap(ckpt, rec, concept, ds, tmp_path / "viz")
    pgm = (tmp_path / "viz.pgm").read_text().splitlines()
    assert pgm[0] == "P2"
    assert pgm[1] == "8 4"  # ref and tgt grids side by side
    assert max(int(x) for x in " ".join(pgm[3:]).split()) <= 255
    side = json.loads((tmp_path / "viz.json").read_text())
    assert side["concept"] == concept
    assert 0.0 <= side["score"] <= 1.0
    # each concept draws its own map
    other = next(c for c in ckpt.concept_vocab.concepts if c != concept)
    export_alignment_heatmap(ckpt, rec, other, ds, tmp_path / "viz_other")
    side_other = json.loads((tmp_path / "viz_other.json").read_text())
    assert not np.allclose(side_other["attention"], side["attention"], atol=1e-6)
    with pytest.raises(DataError):
        export_alignment_heatmap(ckpt, rec, "blorp", ds, tmp_path / "v2")
