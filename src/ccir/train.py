"""Training loop, evaluation, and diagnostic exports."""

from __future__ import annotations

import json
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .alignment import ConceptLabelVector
from .autograd import NonFiniteError, forward_backward
from .config import TrainConfig
from .data import (
    ConceptVocabulary,
    ImageStore,
    build_vocabulary,
    parse_concepts,
    read_jsonl,
)
from .encoders import (
    build_text_vocab,
    concept_table_from_word_vectors,
    load_word_vectors,
    patchify,
    tokenize,
    words_to_ids,
)
from .metrics import Metrics, compute_metrics, rank_rows, visually_similar_subset
from .model import (
    alignment_maps,
    build_training_program,
    embed_queries,
    embed_targets,
    encode_images_array,
    init_model_params,
    l2_normalize_rows,
)
from .optim import OptimizerState, adamw_step, halved_lr, load_checkpoint, save_checkpoint
from .tensor import ParameterSet

EVAL_CHUNK = 128
META_KEYS = ("cell_px", "grid", "channels")
RECORD_KEYS = ("id", "modifier", "ref_image", "tgt_image", "concepts")
SIDECAR_KEYS = (
    "config", "epoch", "text_vocab", "concepts", "concept_tags", "grid", "cell_px", "channels",
)


class NumericFailure(RuntimeError):
    """Training produced a non-finite value (loss, gradient or update);
    carries the offending batch."""

    def __init__(self, epoch: int, batch_index: int, cause: str):
        super().__init__(
            f"non-finite values at epoch {epoch}, batch {batch_index}: {cause}"
        )
        self.epoch = epoch
        self.batch_index = batch_index


class DataError(RuntimeError):
    """Dataset or checkpoint files missing or malformed."""


def _require_keys(obj: dict, keys, where: str) -> None:
    for key in keys:
        if key not in obj:
            raise DataError(f"{where}: missing key {key!r}")


@dataclass
class Checkpoint:
    params: ParameterSet
    opt_state: OptimizerState
    config: TrainConfig
    epoch: int
    text_vocab: list
    concept_vocab: ConceptVocabulary
    grid: tuple
    cell_px: int
    channels: int

    def save(self, path) -> None:
        path = Path(path)
        save_checkpoint(path, self.params, self.opt_state)
        sidecar = {
            "config": self.config.to_dict(),
            "epoch": self.epoch,
            "text_vocab": self.text_vocab,
            "concepts": self.concept_vocab.concepts,
            "concept_tags": self.concept_vocab.tags,
            "grid": list(self.grid),
            "cell_px": self.cell_px,
            "channels": self.channels,
        }
        with open(path.with_suffix(".json"), "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, sort_keys=True)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        """Raises OSError for an unreadable file and DataError for a
        malformed container or sidecar."""
        path = Path(path)
        sidecar = path.with_suffix(".json")
        try:
            params, state = load_checkpoint(path)
            with open(sidecar, encoding="utf-8") as fh:
                side = json.load(fh)
            _require_keys(side, SIDECAR_KEYS, str(sidecar))
            return cls(
                params=params,
                opt_state=state if state is not None else OptimizerState.initial(params),
                config=TrainConfig.from_dict(side["config"]),
                epoch=side["epoch"],
                text_vocab=side["text_vocab"],
                concept_vocab=ConceptVocabulary(side["concepts"], side["concept_tags"]),
                grid=tuple(side["grid"]),
                cell_px=side["cell_px"],
                channels=side["channels"],
            )
        except ValueError as e:
            raise DataError(f"malformed checkpoint {path}: {e}") from e


@dataclass
class Dataset:
    """Loaded split files plus per-image patch matrices."""

    train: list
    val: list
    patches: dict
    grid: tuple
    cell_px: int
    channels: int

    @property
    def n_patches(self) -> int:
        return self.grid[0] * self.grid[1]


def load_dataset(data_dir) -> Dataset:
    root = Path(data_dir)
    for name in ("meta.json", "train.jsonl", "val.jsonl", "images.nct", "images.idx.json"):
        if not (root / name).exists():
            raise DataError(f"missing dataset file {root / name}")
    try:
        with open(root / "meta.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        train = read_jsonl(root / "train.jsonl")
        val = read_jsonl(root / "val.jsonl")
    except ValueError as e:
        raise DataError(f"malformed dataset file in {root}: {e}") from e
    if not train or not val:
        raise DataError("empty dataset split")
    _require_keys(meta, META_KEYS, str(root / "meta.json"))
    for name, records in (("train.jsonl", train), ("val.jsonl", val)):
        for i, rec in enumerate(records):
            _require_keys(rec, RECORD_KEYS, f"{root / name} record {i + 1}")
    try:
        store = ImageStore(root / "images.nct", root / "images.idx.json")
    except ValueError as e:
        raise DataError(f"malformed image index {root / 'images.idx.json'}: {e}") from e
    cell_px = meta["cell_px"]
    patches = {}
    try:
        for rec in train + val:
            for key in ("ref_image", "tgt_image"):
                img_id = rec[key]
                if img_id not in patches:
                    if img_id not in store:
                        raise DataError(f"image id {img_id!r} referenced but not stored")
                    try:
                        patches[img_id] = patchify(store.get(img_id), cell_px)
                    except (ValueError, struct.error) as e:
                        raise DataError(f"corrupt image store {root / 'images.nct'}: {e}") from e
    finally:
        store.close()
    return Dataset(
        train=train,
        val=val,
        patches=patches,
        grid=tuple(meta["grid"]),
        cell_px=cell_px,
        channels=meta["channels"],
    )


def _check_geometry(ckpt: Checkpoint, dataset: Dataset) -> None:
    """A checkpoint reads only images of the grid, cell size and channel
    count it was trained on; raises DataError naming both otherwise."""
    def geometry(x):
        return f"{x.grid[0]}x{x.grid[1]} grid of {x.cell_px}-px cells, {x.channels} channels"

    if geometry(ckpt) != geometry(dataset):
        raise DataError(f"the dataset has a {geometry(dataset)}; "
                        f"the checkpoint was trained on a {geometry(ckpt)}")


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _prepare_examples(records, text_index, concept_vocab, pos_classes):
    ids_list, labels = [], []
    for rec in records:
        words = tokenize(rec["modifier"])
        ids_list.append(words_to_ids(words, text_index))
        concepts = parse_concepts(rec["modifier"], pos_set=frozenset(pos_classes))
        labels.append(
            ConceptLabelVector.from_concepts(concepts, concept_vocab.concepts).labels
        )
    return ids_list, np.stack(labels) if labels else None


def _pair_patches(dataset: Dataset, records) -> np.ndarray:
    """(2n, L, patch_dim): the records' reference images, then their targets."""
    return np.stack([dataset.patches[r["ref_image"]] for r in records]
                    + [dataset.patches[r["tgt_image"]] for r in records])


def _encode_images(params, dataset: Dataset, image_ids, cfg: TrainConfig) -> np.ndarray:
    """(N, L, d) tokens of the listed images, encoded EVAL_CHUNK at a time."""
    tokens = np.empty((len(image_ids), dataset.n_patches, cfg.d), dtype=np.float32)
    for start in range(0, len(image_ids), EVAL_CHUNK):
        chunk = image_ids[start : start + EVAL_CHUNK]
        stack = np.stack([dataset.patches[i] for i in chunk])
        tokens[start : start + len(chunk)] = encode_images_array(params, stack, len(chunk), cfg)
    return tokens


def train(cfg: TrainConfig, data_dir, out_dir=None, verbose: bool = False):
    """Full training run; returns (Checkpoint, list of per-epoch records)."""
    t_start = time.time()
    dataset = load_dataset(data_dir)
    train_modifiers = [r["modifier"] for r in dataset.train]
    text_vocab = build_text_vocab(train_modifiers)
    text_index = {w: i for i, w in enumerate(text_vocab)}
    concept_vocab = build_vocabulary(train_modifiers, pos_set=cfg.pos_classes)

    concept_rows = None
    if cfg.word_vector_file:
        vectors = load_word_vectors(cfg.word_vector_file, cfg.d)
        concept_rows = concept_table_from_word_vectors(
            np.random.default_rng(cfg.seed + 1), concept_vocab.concepts, cfg.d, vectors
        )

    params = init_model_params(
        cfg.seed, cfg, dataset.n_patches, dataset.cell_px, dataset.channels,
        len(text_vocab), len(concept_vocab), concept_rows,
    )
    state = OptimizerState.initial(params)

    ids_all, labels_all = _prepare_examples(
        dataset.train, text_index, concept_vocab, cfg.pos_classes
    )

    L = dataset.n_patches
    order_rng = np.random.default_rng(cfg.seed + 101)
    token_cache = None
    subsets_cache: dict = {}
    records = []
    out_root = Path(out_dir) if out_dir is not None else None
    log_fh = None
    if out_root is not None:
        out_root.mkdir(parents=True, exist_ok=True)
        log_fh = open(out_root / "metrics.jsonl", "w", encoding="utf-8")

    try:
        for epoch in range(cfg.epochs):
            lr = halved_lr(cfg.lr, epoch, cfg.decay_every, cfg.decay_factor)
            frozen = epoch < cfg.freeze_epochs
            # a frozen epoch trains everything except the image encoder
            keep = (lambda path: not path.startswith("image/")) if frozen else (lambda path: True)
            if frozen and token_cache is None:
                ids = sorted({r[key] for r in dataset.train for key in ("ref_image", "tgt_image")})
                token_cache = dict(zip(ids, _encode_images(params, dataset, ids, cfg)))
            if not frozen:
                token_cache = None

            order = order_rng.permutation(len(dataset.train))
            sums = {"L_m": 0.0, "L_c": 0.0, "L": 0.0}
            n_batches = 0
            for b_start in range(0, len(order), cfg.batch_size):
                batch_idx = order[b_start : b_start + cfg.batch_size]
                if len(batch_idx) < 2:
                    continue
                n = len(batch_idx)
                batch = [dataset.train[i] for i in batch_idx]
                ids_batch = [ids_all[i] for i in batch_idx]
                labels = labels_all[batch_idx]

                if frozen:
                    inputs = {
                        "ref_tokens": np.stack([token_cache[r["ref_image"]] for r in batch]),
                        "tgt_tokens": np.stack([token_cache[r["tgt_image"]] for r in batch]),
                    }
                else:
                    inputs = {"patches": _pair_patches(dataset, batch)}

                program = build_training_program(ids_batch, labels, n, L, cfg)
                try:
                    outs, grads = forward_backward(program, inputs, params)
                    updated, state = adamw_step(
                        params.subset(keep), grads.subset(keep), state,
                        lr=lr, weight_decay=cfg.weight_decay,
                    )
                except NonFiniteError as e:
                    raise NumericFailure(epoch, n_batches, str(e)) from e
                params = params.merge(updated)

                sums["L_m"] += float(outs["L_m"].data)
                sums["L_c"] += float(outs["L_c"].data)
                sums["L"] += float(outs["loss"].data)
                n_batches += 1

            ckpt = Checkpoint(
                params, state, cfg, epoch, text_vocab, concept_vocab,
                dataset.grid, dataset.cell_px, dataset.channels,
            )
            record = {
                "epoch": epoch,
                "L_m": sums["L_m"] / max(n_batches, 1),
                "L_c": sums["L_c"] / max(n_batches, 1),
                "L": sums["L"] / max(n_batches, 1),
                "lr": lr,
            }
            if (epoch + 1) % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
                m = evaluate(ckpt, dataset.val, dataset, subsets_cache=subsets_cache)
                record["recall"] = m.to_dict()
            else:
                record["recall"] = {}
            records.append(record)
            if log_fh is not None:
                log_fh.write(json.dumps(record, sort_keys=True) + "\n")
                log_fh.flush()
            if verbose:
                agg = record["recall"].get("aggregate")
                print(
                    f"epoch {epoch:3d} L={record['L']:.4f} L_m={record['L_m']:.4f} "
                    f"L_c={record['L_c']:.6f} lr={lr:.2e}"
                    + (f" agg={agg:.3f}" if agg is not None else "")
                    + f" [{time.time() - t_start:.0f}s]",
                    flush=True,
                )
    finally:
        if log_fh is not None:
            log_fh.close()

    if out_root is not None:
        ckpt.save(out_root / "model.nck")
    return ckpt, records


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _gallery_of(records) -> list:
    return sorted({r["tgt_image"] for r in records})


def frozen_encoder_features(dataset: Dataset, cfg: TrainConfig, gallery_ids) -> np.ndarray:
    """Mean-pooled tokens from a freshly seed-initialized encoder.

    Checkpoint-independent by construction, so candidate subsets stay
    comparable across model variants trained on the same data+seed.
    """
    base = init_model_params(
        cfg.seed, cfg, dataset.n_patches, dataset.cell_px, dataset.channels, 1, 1
    )
    return _encode_images(base, dataset, gallery_ids, cfg).mean(axis=1)


def evaluate(ckpt: Checkpoint, query_records, dataset: Dataset,
             gallery_ids=None, score_dump_path=None, subsets_cache: dict | None = None) -> Metrics:
    _check_geometry(ckpt, dataset)
    cfg = ckpt.config
    L = dataset.n_patches
    if gallery_ids is None:
        gallery_ids = _gallery_of(query_records)
    gallery_ids = sorted(gallery_ids)
    gallery_pos = {g: i for i, g in enumerate(gallery_ids)}
    for rec in query_records:
        if rec["tgt_image"] not in gallery_pos:
            raise DataError(f"gallery is missing ground-truth target {rec['tgt_image']!r}")

    # target-side features
    tgt_toks = _encode_images(ckpt.params, dataset, gallery_ids, cfg)
    v = embed_targets(ckpt.params, tgt_toks, len(gallery_ids), L, cfg)
    tgt_mean = tgt_toks.mean(axis=1) if cfg.context_score_on else None
    del tgt_toks  # evaluate's memory peaks in scoring, after this point

    # query-side features
    text_index = {w: i for i, w in enumerate(ckpt.text_vocab)}
    u = np.empty((len(query_records), cfg.d), dtype=np.float32)
    ctx_u = np.empty_like(u) if cfg.context_score_on else None
    for start in range(0, len(query_records), EVAL_CHUNK):
        chunk = query_records[start : start + EVAL_CHUNK]
        toks = _encode_images(ckpt.params, dataset, [r["ref_image"] for r in chunk], cfg)
        ids_batch = [words_to_ids(tokenize(r["modifier"]), text_index) for r in chunk]
        uu, cc = embed_queries(ckpt.params, toks, ids_batch, len(chunk), L, cfg)
        u[start : start + len(chunk)] = uu
        if ctx_u is not None and cc is not None:
            ctx_u[start : start + len(chunk)] = cc

    scores = l2_normalize_rows(u) @ l2_normalize_rows(v).T
    if cfg.context_score_on and ctx_u is not None:
        scores = scores + l2_normalize_rows(ctx_u) @ l2_normalize_rows(tgt_mean).T

    target_indices = [gallery_pos[r["tgt_image"]] for r in query_records]
    id_order = np.argsort(np.argsort(np.asarray(gallery_ids, dtype=object)))

    # visually-similar candidate subsets from the frozen seed-init encoder
    cache_key = (tuple(gallery_ids), cfg.seed, cfg.subset_size)
    if subsets_cache is not None and cache_key in subsets_cache:
        subset_of_target = subsets_cache[cache_key]
    else:
        feats = frozen_encoder_features(dataset, cfg, gallery_ids)
        distinct = sorted(set(target_indices))
        subset_of_target = dict(zip(distinct, visually_similar_subset(
            distinct, feats, cfg.subset_size, id_order)))
        if subsets_cache is not None:
            subsets_cache[cache_key] = subset_of_target
    subsets = [subset_of_target[t] for t in target_indices]

    m = compute_metrics(
        scores, target_indices, gallery_ids, subsets, cfg.recall_ks, cfg.subset_ks
    )

    if score_dump_path is not None:
        with open(score_dump_path, "w", encoding="utf-8") as fh:
            for i, (rec, order) in enumerate(zip(query_records, rank_rows(scores, id_order))):
                fh.write(json.dumps({
                    "query": rec["id"],
                    "ranked": [gallery_ids[j] for j in order],
                    "scores": [round(float(scores[i, j]), 6) for j in order],
                }, sort_keys=True) + "\n")
    return m


# ---------------------------------------------------------------------------
# alignment diagnostics
# ---------------------------------------------------------------------------


def _alignment_rows(ckpt: Checkpoint, records, dataset: Dataset) -> list:
    """``alignment_record`` rows of the records' pairs, from one batched pass."""
    _check_geometry(ckpt, dataset)
    vocab = ckpt.concept_vocab
    mask = np.stack([
        ConceptLabelVector.from_concepts(rec["concepts"], vocab.concepts).labels for rec in records
    ])
    maps, scores = alignment_maps(ckpt.params, _pair_patches(dataset, records), mask, ckpt.config)
    return [{
        "id": rec["id"],
        "concepts": rec["concepts"],
        "concept_scores": {
            c: float(s_prime[vocab.index[c]]) for c in rec["concepts"] if c in vocab
        },
        "attention": [float(w) for w in weights],
        "boundary": dataset.n_patches,
    } for rec, weights, s_prime in zip(records, maps, scores)]


def alignment_record(ckpt: Checkpoint, rec: dict, dataset: Dataset) -> dict:
    """Attention map and per-concept scores for one triplet.

    The map is the mean of the attention maps of the triplet's concepts.
    """
    return _alignment_rows(ckpt, [rec], dataset)[0]


def export_alignment_diagnostics(ckpt: Checkpoint, records, dataset: Dataset, path) -> None:
    """One ``alignment_record`` row per triplet, computed EVAL_CHUNK at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(records), EVAL_CHUNK):
            for row in _alignment_rows(ckpt, records[start : start + EVAL_CHUNK], dataset):
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def export_alignment_heatmap(ckpt: Checkpoint, rec: dict, concept: str,
                             dataset: Dataset, out_prefix) -> dict:
    """The concept's own attention map over the side-by-side reference and
    target grids, as a portable PGM plus a JSON sidecar."""
    _check_geometry(ckpt, dataset)
    if concept not in ckpt.concept_vocab:
        raise DataError(f"concept {concept!r} not in the model vocabulary")
    cid = ckpt.concept_vocab.index[concept]
    one_hot = np.eye(len(ckpt.concept_vocab), dtype=np.float32)[[cid]]
    maps, scores = alignment_maps(ckpt.params, _pair_patches(dataset, [rec]), one_hot, ckpt.config)
    weights, s_prime = maps[0], scores[0]
    gh, gw = ckpt.grid
    w = weights.astype(np.float64)
    ref_grid = w[: gh * gw].reshape(gh, gw)
    tgt_grid = w[gh * gw :].reshape(gh, gw)
    joint = np.concatenate([ref_grid, tgt_grid], axis=1)
    peak = joint.max() if joint.max() > 0 else 1.0
    levels = np.round(joint / peak * 255).astype(int)

    pgm_path = Path(str(out_prefix) + ".pgm")
    with open(pgm_path, "w", encoding="ascii") as fh:
        fh.write(f"P2\n{joint.shape[1]} {joint.shape[0]}\n255\n")
        for row in levels:
            fh.write(" ".join(str(x) for x in row) + "\n")

    sidecar = {
        "id": rec["id"],
        "concept": concept,
        "score": float(s_prime[cid]),
        "attention": [float(x) for x in weights],
        "boundary": gh * gw,
        "grid": [gh, gw],
    }
    json_path = Path(str(out_prefix) + ".json")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, sort_keys=True)
    return {"pgm": str(pgm_path), "json": str(json_path)}
