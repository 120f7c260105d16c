"""Trainable encoders: image patches, modifier text, and concept table.

The image encoder is a patch embedding plus one self-attention block; the
text encoder is a bidirectional GRU whose per-position states give
contextualized word features and whose final states give the sentence
feature.  Both share the model width d.  Concept embeddings are one
trainable row per vocabulary entry, optionally seeded from a word-vector
text file ("word v1 ... vd" per line).  The encoders are graph builders
over a whole batch; image tokens are (n, L, d) and word features
(n, T, d), padded to the longest modifier.
"""

from __future__ import annotations

import re

import numpy as np

from . import autograd as ag
from .layers import (
    gru_step,
    init_gru,
    init_linear,
    init_transformer_layer,
    linear,
    transformer_layer,
    uniform_init,
)
from .tensor import Tensor

IMAGE_PREFIX = "image"
TEXT_PREFIX = "text"
CONCEPT_PREFIX = "concepts"
UNK_ID = 0
UNK_WORD = "<unk>"


def validate_image(image: np.ndarray) -> np.ndarray:
    img = np.asarray(image, dtype=np.float32)
    if img.ndim != 3:
        raise ValueError(f"image must be HxWxC, got shape {img.shape}")
    if img.shape[0] < 2 or img.shape[1] < 2:
        raise ValueError(f"image sides must be >= 2, got {img.shape}")
    if img.min() < 0.0 or img.max() > 1.0:
        raise ValueError("image values must lie in [0,1]")
    return img


def patchify(image: np.ndarray, patch: int) -> np.ndarray:
    """(H, W, C) -> (L, patch*patch*C), patches ordered row-major."""
    img = validate_image(image)
    h, w, c = img.shape
    if h % patch or w % patch:
        raise ValueError(f"image sides {h}x{w} not divisible by patch size {patch}")
    gh, gw = h // patch, w // patch
    tiles = img.reshape(gh, patch, gw, patch, c).transpose(0, 2, 1, 3, 4)
    return np.ascontiguousarray(tiles.reshape(gh * gw, patch * patch * c))


# ---------------------------------------------------------------------------
# image encoder
# ---------------------------------------------------------------------------


def init_image_encoder(rng, params: dict, d: int, patch: int, channels: int,
                       n_patches: int) -> None:
    patch_dim = patch * patch * channels
    init_linear(rng, params, IMAGE_PREFIX + "/patch", patch_dim, d)
    params[IMAGE_PREFIX + "/pos"] = uniform_init(rng, d, (n_patches, d))
    init_transformer_layer(rng, params, IMAGE_PREFIX + "/enc", d)


def encode_image_batch_node(p, patches, n_heads: int):
    """Encode (n, L, patch_dim) patch matrices into (n, L, d) tokens.

    Each image attends only to its own patches.
    """
    x = linear(p, IMAGE_PREFIX + "/patch", patches) + p[IMAGE_PREFIX + "/pos"]
    return transformer_layer(p, IMAGE_PREFIX + "/enc", x, n_heads)


# ---------------------------------------------------------------------------
# text encoder
# ---------------------------------------------------------------------------


def tokenize(text: str) -> list[str]:
    """Lowercase words, split on whitespace and punctuation."""
    return re.findall(r"[a-z0-9]+", text.lower())


def build_text_vocab(texts) -> list[str]:
    """Closed word list from training texts; id 0 reserved for unknowns."""
    words = set()
    for t in texts:
        words.update(tokenize(t))
    return [UNK_WORD] + sorted(words)


def words_to_ids(words, vocab_index: dict) -> list[int]:
    return [vocab_index.get(w, UNK_ID) for w in words]


def init_text_encoder(rng, params: dict, vocab_size: int, d: int) -> None:
    if d % 2:
        raise ValueError(f"text encoder width must be even, got {d}")
    hidden = d // 2
    params[TEXT_PREFIX + "/embed"] = uniform_init(rng, d, (vocab_size, d))
    init_gru(rng, params, TEXT_PREFIX + "/fwd", d, hidden)
    init_gru(rng, params, TEXT_PREFIX + "/bwd", d, hidden)
    init_linear(rng, params, TEXT_PREFIX + "/tproj", 2 * hidden, d)
    init_linear(rng, params, TEXT_PREFIX + "/qproj", 2 * hidden, d)


def encode_text_batch_node(p, ids_batch: list, d: int):
    """Bidirectional recurrent encoding of a batch of id sequences.

    Returns (words (n, T, d), q_feats n x d, key_mask (n, 1, T)) with
    T = the longest sequence; the key mask is 0 on an example's words and
    -1e9 on its padding.  Padded positions never update the recurrent
    state.
    """
    if any(len(ids) == 0 for ids in ids_batch):
        raise ValueError("cannot encode an empty word sequence")
    n = len(ids_batch)
    lengths = np.array([len(ids) for ids in ids_batch])
    t_max = int(lengths.max())
    hidden = d // 2

    padded = np.zeros((n, t_max), dtype=np.int64)
    for i, ids in enumerate(ids_batch):
        padded[i, : len(ids)] = ids
    live = np.arange(t_max) < lengths[:, None]

    xs = [ag.gather_rows(p[TEXT_PREFIX + "/embed"], padded[:, t]) for t in range(t_max)]
    zeros = ag.leaf(np.zeros((n, hidden), dtype=np.float32))

    def run(direction: str, order):
        states = [None] * t_max
        h = zeros
        for t in order:
            h = gru_step(p, TEXT_PREFIX + "/" + direction, xs[t], h, live[:, t])
            states[t] = h
        return states, h

    fwd_states, fwd_final = run("fwd", range(t_max))
    bwd_states, bwd_final = run("bwd", range(t_max - 1, -1, -1))

    # time-major (t * n + i) rows, read back example-major as (n, T, 2 * hidden)
    states = ag.concat([ag.concat(fwd_states, axis=0), ag.concat(bwd_states, axis=0)], axis=1)
    rows = np.arange(t_max) * n + np.arange(n)[:, None]
    words = linear(p, TEXT_PREFIX + "/tproj", ag.gather_rows(states, rows))
    q_feats = linear(p, TEXT_PREFIX + "/qproj", ag.concat([fwd_final, bwd_final], axis=1))
    key_mask = np.where(live, 0.0, -1e9).astype(np.float32)[:, None, :]
    return words, q_feats, key_mask


# ---------------------------------------------------------------------------
# concept embedding table
# ---------------------------------------------------------------------------


def init_concept_table(rng, params: dict, n_concepts: int, d: int) -> None:
    params[CONCEPT_PREFIX + "/table"] = uniform_init(rng, d, (n_concepts, d))


def load_word_vectors(path, d: int) -> dict[str, np.ndarray]:
    vectors = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != d + 1:
                raise ValueError(
                    f"word-vector line {lineno}: expected word + {d} floats, got {len(parts) - 1}"
                )
            vectors[parts[0]] = np.asarray([float(x) for x in parts[1:]], dtype=np.float32)
    return vectors


def concept_table_from_word_vectors(rng, concepts: list[str], d: int,
                                    vectors: dict[str, np.ndarray]) -> Tensor:
    """Table rows from a vector file where available, seeded random otherwise."""
    rows = np.empty((len(concepts), d), dtype=np.float32)
    for i, word in enumerate(concepts):
        if word in vectors:
            rows[i] = vectors[word]
        else:
            rows[i] = uniform_init(rng, d, (d,)).data
    return Tensor(rows)
