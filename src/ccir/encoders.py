"""Trainable encoders: image patches, modifier text, and concept table.

The image encoder is a patch embedding plus one self-attention block; the
text encoder is a bidirectional GRU whose per-position states give
contextualized word features and whose final states give the sentence
feature.  Both share the model width d.  Concept embeddings are one
trainable row per vocabulary entry, optionally seeded from a word-vector
text file ("word v1 ... vd" per line).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

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
from .tensor import ParameterSet, Tensor

UNK_ID = 0
UNK_WORD = "<unk>"


@dataclass
class VisualTokens:
    """L x d token matrix for one image."""

    tokens: np.ndarray

    def __post_init__(self):
        if self.tokens.ndim != 2:
            raise ValueError(f"tokens must be 2-D, got shape {self.tokens.shape}")
        if not np.isfinite(self.tokens).all():
            raise ValueError("non-finite visual tokens")


@dataclass
class TextEncoding:
    """Sentence feature q (d,), word features t (L_w x d), and the ids."""

    q: np.ndarray
    t: np.ndarray
    word_ids: list = field(default_factory=list)

    def __post_init__(self):
        if self.t.shape[0] != len(self.word_ids):
            raise ValueError("one row of t per word id required")
        if self.q.shape[-1] != self.t.shape[1]:
            raise ValueError("q and t must share width")


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
                       n_patches: int, prefix: str = "image") -> None:
    patch_dim = patch * patch * channels
    init_linear(rng, params, prefix + "/patch", patch_dim, d)
    params[prefix + "/pos"] = uniform_init(rng, d, (n_patches, d))
    init_transformer_layer(rng, params, prefix + "/enc", d)


def encode_image_batch_node(p, prefix: str, patches, n_heads: int, n_images: int):
    """Encode ``n_images`` stacked patch matrices in one graph pass.

    patches: (n_images*L) x patch_dim node or array.  The tokens run
    through the layer as (n_images, L, d), so each image attends only to
    its own patches.  Returns the (n_images*L) x d stack.
    """
    if not isinstance(patches, ag.Node):
        patches = ag.leaf(patches)
    total = patches.shape[0]
    if total % n_images:
        raise ValueError(f"{total} patch rows not divisible by {n_images} images")
    per = total // n_images
    x = linear(p, prefix + "/patch", patches)
    d = x.shape[1]
    x = ag.reshape(x, (n_images, per, d)) + p[prefix + "/pos"]
    x = transformer_layer(p, prefix + "/enc", x, n_heads)
    return ag.reshape(x, (total, d))


def encode_image(image: np.ndarray, params: ParameterSet, patch: int,
                 n_heads: int = 2, prefix: str = "image") -> VisualTokens:
    """Forward-only convenience wrapper for a single image."""
    mats = patchify(image, patch)
    p = {k: ag.leaf(v) for k, v in params.items()}
    node = encode_image_batch_node(p, prefix, mats, n_heads, 1)
    return VisualTokens(node.value.astype(np.float32))


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


def save_vocab(path, vocab: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for w in vocab:
            fh.write(w + "\n")


def load_vocab(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        vocab = [line.rstrip("\n") for line in fh if line.strip()]
    if not vocab or vocab[0] != UNK_WORD:
        raise ValueError(f"vocabulary file must start with {UNK_WORD!r}")
    return vocab


def init_text_encoder(rng, params: dict, vocab_size: int, d: int, prefix: str = "text") -> None:
    if d % 2:
        raise ValueError(f"text encoder width must be even, got {d}")
    hidden = d // 2
    params[prefix + "/embed"] = uniform_init(rng, d, (vocab_size, d))
    init_gru(rng, params, prefix + "/fwd", d, hidden)
    init_gru(rng, params, prefix + "/bwd", d, hidden)
    init_linear(rng, params, prefix + "/tproj", 2 * hidden, d)
    init_linear(rng, params, prefix + "/qproj", 2 * hidden, d)


def encode_text_batch_node(p, prefix: str, ids_batch: list, d: int):
    """Bidirectional recurrent encoding of a batch of id sequences.

    Returns (word_feats (sum L_w) x d ordered example-major, q_feats N x d,
    lengths).  Sequences are padded internally; padded positions never
    update the recurrent state and are excluded from word_feats.
    """
    if any(len(ids) == 0 for ids in ids_batch):
        raise ValueError("cannot encode an empty word sequence")
    n = len(ids_batch)
    lengths = [len(ids) for ids in ids_batch]
    t_max = max(lengths)
    hidden = d // 2

    padded = np.zeros((t_max, n), dtype=np.int64)
    live = np.zeros((t_max, n, 1), dtype=np.float32)
    for i, ids in enumerate(ids_batch):
        padded[: len(ids), i] = ids
        live[: len(ids), i, 0] = 1.0

    emb_all = ag.gather_rows(p[prefix + "/embed"], padded.reshape(-1))
    zeros = ag.leaf(np.zeros((n, hidden), dtype=np.float32))

    def run(direction: str, order):
        states = [None] * t_max
        h = zeros
        for t in order:
            x_t = emb_all[t * n : (t + 1) * n]
            mask = live[t]
            h = ag.leaf(mask) * gru_step(p, prefix + "/" + direction, x_t, h) + ag.leaf(
                1.0 - mask
            ) * h
            states[t] = h
        return states, h

    fwd_states, fwd_final = run("fwd", range(t_max))
    bwd_states, bwd_final = run("bwd", range(t_max - 1, -1, -1))

    valid_rows = [t * n + i for i, L in enumerate(lengths) for t in range(L)]
    fwd_stack = ag.concat(fwd_states, axis=0)
    bwd_stack = ag.concat(bwd_states, axis=0)
    wf = ag.gather_rows(fwd_stack, valid_rows)
    wb = ag.gather_rows(bwd_stack, valid_rows)
    word_feats = linear(p, prefix + "/tproj", ag.concat([wf, wb], axis=1))
    q_feats = linear(p, prefix + "/qproj", ag.concat([fwd_final, bwd_final], axis=1))
    return word_feats, q_feats, lengths


def encode_text(word_ids, params: ParameterSet, d: int, prefix: str = "text") -> TextEncoding:
    """Forward-only convenience wrapper for one sentence."""
    ids = list(word_ids)
    vocab_size = params[prefix + "/embed"].shape[0]
    ids = [i if 0 <= i < vocab_size else UNK_ID for i in ids]
    p = {k: ag.leaf(v) for k, v in params.items()}
    t_node, q_node, _ = encode_text_batch_node(p, prefix, [ids], d)
    return TextEncoding(
        q=q_node.value[0].astype(np.float32),
        t=t_node.value.astype(np.float32),
        word_ids=ids,
    )


# ---------------------------------------------------------------------------
# concept embedding table
# ---------------------------------------------------------------------------


def init_concept_table(rng, params: dict, n_concepts: int, d: int,
                       prefix: str = "concepts") -> None:
    params[prefix + "/table"] = uniform_init(rng, d, (n_concepts, d))


def embed_concept(table, concept_id: int) -> np.ndarray:
    """Row lookup; raises IndexError for ids outside the vocabulary."""
    arr = table.data if isinstance(table, Tensor) else np.asarray(table)
    if not 0 <= concept_id < arr.shape[0]:
        raise IndexError(f"concept id {concept_id} outside table of {arr.shape[0]} rows")
    return arr[concept_id].copy()


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
