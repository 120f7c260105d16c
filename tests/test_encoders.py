"""Image and text encoder behavior: patch extraction, batching, vocabularies."""

import numpy as np
import pytest

from ccir import autograd as ag
from ccir.encoders import (
    UNK_ID,
    UNK_WORD,
    build_text_vocab,
    concept_table_from_word_vectors,
    encode_image_batch_node,
    encode_text_batch_node,
    init_image_encoder,
    init_text_encoder,
    load_word_vectors,
    patchify,
    tokenize,
    validate_image,
    words_to_ids,
)
from ccir.tensor import ParameterSet


def make_image_params(seed=0, d=8, patch=4, channels=3, n_patches=4):
    rng = np.random.default_rng(seed)
    params = {}
    init_image_encoder(rng, params, d, patch, channels, n_patches)
    return ParameterSet(params)


def encode_images(imgs, params):
    """(n, L, d) tokens of a list of images, with 4-pixel patches."""
    p = {k: ag.leaf(v) for k, v in params.items()}
    patches = np.stack([patchify(im, 4) for im in imgs])
    return encode_image_batch_node(p, ag.leaf(patches), 2).value


def test_validate_image_rejects_bad_inputs():
    with pytest.raises(ValueError):
        validate_image(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        validate_image(np.zeros((1, 4, 3)))
    with pytest.raises(ValueError):
        validate_image(np.full((4, 4, 3), 1.5))


def test_patchify_row_major_order():
    # 4x4 single-channel image with distinct quadrant values
    img = np.zeros((4, 4, 1), dtype=np.float32)
    img[:2, :2] = 0.1
    img[:2, 2:] = 0.2
    img[2:, :2] = 0.3
    img[2:, 2:] = 0.4
    mats = patchify(img, 2)
    assert mats.shape == (4, 4)
    assert np.allclose(mats[0], 0.1)
    assert np.allclose(mats[1], 0.2)
    assert np.allclose(mats[2], 0.3)
    assert np.allclose(mats[3], 0.4)


def test_patchify_rejects_nondivisible():
    with pytest.raises(ValueError):
        patchify(np.zeros((4, 4, 3), np.float32), 3)


def test_patchify_round_trips_pixels():
    rng = np.random.default_rng(3)
    img = rng.uniform(size=(8, 8, 3)).astype(np.float32)
    mats = patchify(img, 4)
    rebuilt = mats.reshape(2, 2, 4, 4, 3).transpose(0, 2, 1, 3, 4).reshape(8, 8, 3)
    assert np.array_equal(rebuilt, img)


def test_encode_image_shape_and_determinism():
    params = make_image_params()
    rng = np.random.default_rng(4)
    img = rng.uniform(size=(8, 8, 3)).astype(np.float32)
    a = encode_images([img], params)
    b = encode_images([img], params)
    assert a.shape == (1, 4, 8)
    assert np.array_equal(a, b)


def test_position_rows_distinguish_identical_patches():
    params = make_image_params()
    img = np.full((8, 8, 3), 0.5, dtype=np.float32)
    toks = encode_images([img], params)[0]
    # identical pixel content, yet rows differ because of position features
    assert not np.allclose(toks[0], toks[1], atol=1e-5)


def test_batched_image_encoding_matches_single():
    params = make_image_params()
    rng = np.random.default_rng(5)
    imgs = [rng.uniform(size=(8, 8, 3)).astype(np.float32) for _ in range(3)]
    batched = encode_images(imgs, params)
    for i, im in enumerate(imgs):
        single = encode_images([im], params)[0]
        assert np.allclose(batched[i], single, atol=1e-5)


def test_tokenize_lowercases_and_splits():
    assert tokenize("Add a RED circle!") == ["add", "a", "red", "circle"]
    assert tokenize("turn-the  blue\nsquare") == ["turn", "the", "blue", "square"]
    assert tokenize("") == []


def test_vocab_reserves_unk_and_sorts():
    vocab = build_text_vocab(["remove the star", "add a star"])
    assert vocab[0] == UNK_WORD
    assert vocab[1:] == sorted(vocab[1:])
    index = {w: i for i, w in enumerate(vocab)}
    ids = words_to_ids(["star", "zzz"], index)
    assert ids[0] == index["star"]
    assert ids[1] == UNK_ID


def make_text_params(seed=0, vocab=12, d=8):
    rng = np.random.default_rng(seed)
    params = {}
    init_text_encoder(rng, params, vocab, d)
    return ParameterSet(params)


def encode_texts(batch, params):
    """(padded word features (n, T, d), sentence features n x d, key mask
    (n, 1, T)) of id lists."""
    p = {k: ag.leaf(v) for k, v in params.items()}
    words, q, key_mask = encode_text_batch_node(p, batch, 8)
    return words.value, q.value, key_mask


def test_encode_text_shapes_and_clamping():
    """Out-of-vocabulary words become UNK_ID before encoding; the encoder
    itself rejects an id outside its table."""
    params = make_text_params()
    index = {f"w{i}": i for i in range(12)}
    ids = words_to_ids(["w3", "w5", "zzz"], index)
    assert ids == [3, 5, UNK_ID]
    t, q, _ = encode_texts([ids], params)
    assert q.shape == (1, 8)
    assert t.shape == (1, 3, 8)
    with pytest.raises(IndexError):
        encode_texts([[3, 5, 99]], params)


def test_text_encoding_is_order_sensitive():
    params = make_text_params()
    _, a, _ = encode_texts([[2, 3, 4]], params)
    _, b, _ = encode_texts([[4, 3, 2]], params)
    assert not np.allclose(a, b, atol=1e-4)


def test_batched_text_matches_single_ragged_lengths():
    params = make_text_params()
    batch = [[1, 2, 3, 4], [5, 6], [7, 8, 9]]
    t_all, q_all, mask = encode_texts(batch, params)
    assert t_all.shape == (3, 4, 8)
    # 0 on each example's words, -1e9 on its padding
    want = np.array([[[0, 0, 0, 0]], [[0, 0, -1e9, -1e9]], [[0, 0, 0, -1e9]]], np.float32)
    assert np.array_equal(mask, want)
    for i, ids in enumerate(batch):
        t, q, m = encode_texts([ids], params)
        assert np.array_equal(m, np.zeros((1, 1, len(ids)), np.float32))
        assert np.allclose(q_all[i], q[0], atol=1e-5)
        assert np.allclose(t_all[i, : len(ids)], t[0], atol=1e-5)


def test_bidirectional_context_flows_both_ways():
    """Changing the last word must alter the first word's feature row."""
    params = make_text_params()
    a, _, _ = encode_texts([[1, 2, 3]], params)
    b, _, _ = encode_texts([[1, 2, 4]], params)
    assert not np.allclose(a[0, 0], b[0, 0], atol=1e-5)


def test_word_vector_file_parsing(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("red 1 0 0 0\nblue 0 1 0 0\n", encoding="utf-8")
    vecs = load_word_vectors(path, 4)
    assert set(vecs) == {"red", "blue"}
    assert np.allclose(vecs["red"], [1, 0, 0, 0])
    path.write_text("red 1 0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_word_vectors(path, 4)


def test_concept_rows_prefer_file_vectors():
    rng = np.random.default_rng(7)
    vecs = {"red": np.arange(4, dtype=np.float32)}
    table = concept_table_from_word_vectors(rng, ["red", "swim"], 4, vecs)
    assert np.array_equal(table.data[0], np.arange(4, dtype=np.float32))
    assert not np.array_equal(table.data[1], np.arange(4, dtype=np.float32))
