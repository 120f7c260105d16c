"""Synthetic scene/triplet generator: semantics, rendering, file formats."""

import hashlib
import json

import numpy as np
import pytest

from ccir.data import (
    ACTIONS,
    COLORS,
    LEXICON,
    SHAPES,
    DataConfig,
    ImageStore,
    ImageStoreWriter,
    Scene,
    build_vocabulary,
    generate_dataset,
    generate_triplet,
    make_zero_shot_split,
    parse_concepts,
    read_jsonl,
    render_scene,
    write_jsonl,
)
from ccir.encoders import tokenize

CFG = DataConfig()


def grounded_words(concepts):
    groundable = set(SHAPES) | set(COLORS) | {"spin", "swim"}
    return set(concepts) & groundable


# -- scenes and triplets ----------------------------------------------------


def test_scene_validation():
    Scene((4, 4), {0: ("circle", "red", "none")})
    with pytest.raises(ValueError):
        Scene((4, 4), {})
    with pytest.raises(ValueError):
        Scene((4, 4), {16: ("circle", "red", "none")})
    with pytest.raises(ValueError):
        Scene((4, 4), {0: ("blob", "red", "none")})
    scene = Scene((4, 4), {3: ("ring", "blue", "swim"), 9: ("cross", "red", "none")})
    assert scene.concepts() == {"ring", "blue", "swim", "cross", "red"}


def test_triplet_generation_is_deterministic():
    a = generate_triplet(123, CFG)
    b = generate_triplet(123, CFG)
    assert a.modifier == b.modifier
    assert a.reference.cells == b.reference.cells
    assert a.target.cells == b.target.cells
    assert a.concepts == b.concepts
    assert a.concept_patches == b.concept_patches


def test_concepts_match_reparsed_modifier():
    for seed in range(150):
        t = generate_triplet(seed, CFG)
        assert t.concepts == sorted(parse_concepts(t.modifier))


def test_modifier_words_covered_by_lexicon():
    for seed in range(150):
        t = generate_triplet(seed, CFG)
        for w in tokenize(t.modifier):
            assert w in LEXICON, f"word {w!r} missing from lexicon (seed {seed})"


def test_groundable_concepts_visible_in_some_image():
    """Every color/shape/action word in the modifier exists in the pair."""
    for seed in range(200):
        t = generate_triplet(seed, CFG)
        visible = t.reference.concepts() | t.target.concepts()
        missing = grounded_words(t.concepts) - visible
        assert not missing, f"seed {seed}: {missing} not visible"


def test_edit_semantics_per_operation():
    seen = set()
    for seed in range(200):
        t = generate_triplet(seed, CFG)
        seen.add(t.edit.op)
        ref, tgt = t.reference.cells, t.target.cells
        if t.edit.op == "ADD":
            assert len(tgt) == len(ref) + 1
            assert set(tgt) - set(ref) == {t.edit.cell}
            assert tgt[t.edit.cell] == t.edit.after
        elif t.edit.op == "REMOVE":
            assert len(tgt) == len(ref) - 1
            assert set(ref) - set(tgt) == {t.edit.cell}
            assert ref[t.edit.cell] == t.edit.before
        else:
            assert set(ref) == set(tgt)
            changed = [c for c in ref if ref[c] != tgt[c]]
            assert changed == [t.edit.cell]
            assert ref[t.edit.cell] == t.edit.before
            assert tgt[t.edit.cell] == t.edit.after
    assert seen == {"ADD", "REMOVE", "CHANGE"}


def test_concept_patches_cover_every_concept():
    L = CFG.n_cells
    for seed in range(150):
        t = generate_triplet(seed, CFG)
        assert set(t.concept_patches) == set(t.concepts)
        for concept, patches in t.concept_patches.items():
            assert patches, f"seed {seed}: concept {concept!r} has no patches"
            assert all(0 <= p < 2 * L for p in patches)


def test_attribute_patches_point_at_matching_cells():
    L = CFG.n_cells
    for seed in range(120):
        t = generate_triplet(seed, CFG)
        for concept, patches in t.concept_patches.items():
            if concept not in COLORS and concept not in SHAPES:
                continue
            for p in patches:
                scene, cell = (t.reference, p) if p < L else (t.target, p - L)
                shape, color, _ = scene.cells[cell]
                assert concept in (shape, color)


def test_scene_shapes_are_distinct():
    for seed in range(100):
        t = generate_triplet(seed, CFG)
        for scene in (t.reference, t.target):
            shapes = [v[0] for v in scene.cells.values()]
            assert len(shapes) == len(set(shapes))


# -- rendering --------------------------------------------------------------


def test_render_shape_and_range():
    t = generate_triplet(7, CFG)
    img = render_scene(t.reference, CFG)
    assert img.shape == (32, 32, 3)
    assert img.dtype == np.float32
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_render_is_deterministic_given_seed():
    t = generate_triplet(8, CFG)
    a = render_scene(t.reference, CFG, seed=44)
    b = render_scene(t.reference, CFG, seed=44)
    c = render_scene(t.reference, CFG, seed=45)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_render_edit_is_local_to_edited_cell():
    """Without noise, ref and tgt differ only inside the edited cell."""
    px = CFG.cell_px
    for seed in range(60):
        t = generate_triplet(seed, CFG)
        ref = render_scene(t.reference, CFG)
        tgt = render_scene(t.target, CFG)
        diff = np.abs(ref - tgt).sum(axis=2)
        gh, gw = CFG.grid
        cells = {
            r * gw + c
            for r in range(gh)
            for c in range(gw)
            if diff[r * px : (r + 1) * px, c * px : (c + 1) * px].any()
        }
        assert cells <= {t.edit.cell}


def test_actions_change_pixels():
    def img(action):
        return render_scene(Scene(CFG.grid, {5: ("square", "blue", action)}), CFG)

    none, spin, swim = img("none"), img("spin"), img("swim")
    assert not np.array_equal(none, spin)
    assert not np.array_equal(none, swim)
    assert not np.array_equal(spin, swim)


# -- concept parsing and vocabulary -----------------------------------------


def test_parse_concepts_filters_by_part_of_speech():
    text = "also remove the red circle now"
    assert parse_concepts(text) == {"also", "remove", "red", "circle", "now"}
    assert parse_concepts(text, pos_set=frozenset({"adj"})) == {"red"}
    assert parse_concepts(text, pos_set=frozenset({"noun", "adj"})) == {"red", "circle"}


def test_parse_concepts_warns_on_unknown_word():
    with pytest.warns(UserWarning):
        out = parse_concepts("add a red blorp")
    assert out == {"add", "red"}


def test_build_vocabulary_sorted_and_tagged():
    vocab = build_vocabulary(["add a red circle", "remove the blue ring now"])
    assert vocab.concepts == sorted(vocab.concepts)
    assert "red" in vocab and vocab.tags["red"] == "adj"
    assert vocab.tags["circle"] == "noun"
    assert vocab.tags["now"] == "adv"
    assert "a" not in vocab and "the" not in vocab


def test_zero_shot_split_exact_set_equality():
    train_mods = ["add a red circle", "remove the blue square"]
    val = [
        {"modifier": "add a green ring", "id": "a"},
        {"modifier": "remove the red circle", "id": "b"},
        {"modifier": "paint the square green now", "id": "c"},
    ]
    concepts, kept = make_zero_shot_split(train_mods, val)
    assert concepts == {"green", "ring", "paint", "now"}
    assert [r["id"] for r in kept] == ["a", "c"]


def test_zero_shot_split_empty_warns():
    with pytest.warns(UserWarning):
        concepts, kept = make_zero_shot_split(
            ["add a red circle"], [{"modifier": "add a red circle"}]
        )
    assert concepts == set() and kept == []


# -- files ------------------------------------------------------------------


def test_image_store_round_trip(tmp_path):
    rng = np.random.default_rng(20)
    imgs = {f"img{i}": rng.uniform(size=(8, 8, 3)).astype(np.float32) for i in range(3)}
    store_path, idx_path = tmp_path / "x.nct", tmp_path / "x.idx.json"
    with ImageStoreWriter(store_path, idx_path) as w:
        for k, v in imgs.items():
            w.add(k, v)
    store = ImageStore(store_path, idx_path)
    assert all(k in store for k in imgs) and "missing" not in store
    for k, v in imgs.items():
        assert np.array_equal(store.get(k), v)
    with pytest.raises(KeyError):
        store.get("missing")
    store.close()


def test_image_store_rejects_duplicate_ids(tmp_path):
    with ImageStoreWriter(tmp_path / "y.nct", tmp_path / "y.idx.json") as w:
        w.add("a", np.zeros((4, 4, 3), np.float32))
        with pytest.raises(ValueError):
            w.add("a", np.zeros((4, 4, 3), np.float32))


def test_jsonl_round_trip(tmp_path):
    records = [{"id": "t0", "modifier": "add a red circle"}, {"id": "t1", "x": 3}]
    path = tmp_path / "r.jsonl"
    write_jsonl(path, records)
    assert read_jsonl(path) == records


def test_generate_dataset_layout_and_determinism(tmp_path):
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    p1 = generate_dataset(out1, 12, 4, CFG, seed=9)
    p2 = generate_dataset(out2, 12, 4, CFG, seed=9)
    train = read_jsonl(p1["train"])
    assert len(train) == 12
    assert len(read_jsonl(p1["val"])) == 4
    assert read_jsonl(p2["train"]) == train
    # byte-level determinism of the whole artifact
    for name in ("train.jsonl", "val.jsonl", "images.nct"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    meta = json.loads((out1 / "meta.json").read_text())
    assert tuple(meta["grid"]) == CFG.grid
    store = ImageStore(p1["store"], p1["index"])
    for rec in train:
        for key in ("ref_image", "tgt_image"):
            img = store.get(rec[key])
            assert img.shape == (32, 32, 3)  # the default 4 x 4 grid of 8-px cells
    store.close()


def test_generated_dataset_bytes_are_pinned(tmp_path):
    """The whole artifact of a small seed-5 dataset, by sha256 of each
    file; a rendering or layout change that moves any byte fails here."""
    generate_dataset(tmp_path, 24, 8, CFG, seed=5)
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in tmp_path.iterdir()}
    assert digests == {
        "images.idx.json": "1840e0b23eff6fb6b5b0e346559a22861a3342e160f4624ab93209a398620915",
        "images.nct": "25a33b5f969919c3ff1161499cfbbdb79e66e76cb73eb7568a676c456c82dab8",
        "meta.json": "669f70d166f9a6f8ede1249ce3fea209118f05d64f637d9ebcf589820887638b",
        "train.jsonl": "c4e84c7499fc2be63c0f5af094d49205895bad13bde1e617788192c8fb516195",
        "val.jsonl": "ac0bfeb1798503539cd8484d3d27f7d4eff91966cf2fc2b72b29ce24f04bef48",
    }


def test_record_fields_are_complete():
    t = generate_triplet(42, CFG)
    from ccir.data import triplet_record

    rec = triplet_record(t, "t42", "t42_ref", "t42_tgt")
    assert rec["id"] == "t42"
    assert rec["edit"]["op"] == t.edit.op
    assert sorted(rec["concept_patches"]) == sorted(t.concepts)
    assert json.loads(json.dumps(rec)) == rec  # JSON-serializable as-is


def test_holdout_colors_absent_from_training(tmp_path):
    holdout = ("purple", "orange")
    paths = generate_dataset(tmp_path / "d", 40, 10, CFG, seed=11,
                             holdout_colors=holdout)
    train = read_jsonl(paths["train"])
    for rec in train:
        assert not set(tokenize(rec["modifier"])) & set(holdout)
        for side in ("before", "after"):
            attrs = rec["edit"][side]
            if attrs:
                assert attrs[1] not in holdout
    # held-out words surface as zero-shot concepts when val uses them
    val = read_jsonl(paths["val"])
    zs, kept = make_zero_shot_split([r["modifier"] for r in train], val)
    val_words = set()
    for rec in val:
        val_words |= parse_concepts(rec["modifier"])
    assert zs == val_words & set(holdout) or zs >= (val_words & set(holdout))


def test_generate_dataset_rejects_unknown_holdout(tmp_path):
    with pytest.raises(ValueError):
        generate_dataset(tmp_path / "d", 4, 2, CFG, seed=1, holdout_colors=("teal",))


def test_config_validation():
    with pytest.raises(ValueError):
        DataConfig(max_objects=10)  # more objects than distinct shapes
    with pytest.raises(ValueError):
        DataConfig(colors=("red",))
    with pytest.raises(ValueError):
        DataConfig(shapes=())
    assert DataConfig().n_cells == 16
    assert ACTIONS[0] == "none"
