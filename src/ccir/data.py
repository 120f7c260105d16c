"""Synthetic compositional scenes with ground-truth edits.

A scene is a grid of cells, each either empty or holding one object
(shape, color, action).  A triplet pairs a reference scene with a target
scene produced by exactly one edit (ADD / REMOVE / CHANGE) plus a
templated text modifier describing it.  Because the generator knows the
edit, every triplet carries exact concept labels and the patch indices
where each concept is visible — the supervision real datasets lack.

Scenes render to small images (one cell per patch) so patch-level
attention can be scored against known concept locations.
"""

from __future__ import annotations

import functools
import json
import struct
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np

SHAPES = ("circle", "square", "triangle", "cross", "diamond", "ring")
COLORS = ("red", "blue", "green", "yellow", "purple", "orange")
ACTIONS = ("none", "spin", "swim")

COLOR_RGB = {
    "red": (0.90, 0.10, 0.10),
    "blue": (0.10, 0.10, 0.90),
    "green": (0.10, 0.90, 0.10),
    "yellow": (0.90, 0.90, 0.10),
    "purple": (0.60, 0.10, 0.90),
    "orange": (0.90, 0.50, 0.10),
}

BACKGROUND = 0.1

# word -> part of speech for every word a template can emit
LEXICON = {
    **{s: "noun" for s in SHAPES},
    **{c: "adj" for c in COLORS},
    "spin": "verb",
    "swim": "verb",
    "add": "verb",
    "remove": "verb",
    "take": "verb",
    "make": "verb",
    "turn": "verb",
    "paint": "verb",
    "let": "verb",
    "also": "adv",
    "now": "adv",
    "away": "adv",
    "a": "stop",
    "an": "stop",
    "the": "stop",
    "that": "stop",
    "can": "stop",
    "to": "stop",
    "and": "stop",
    "should": "stop",
}

ALL_POS = frozenset({"noun", "adj", "verb", "adv"})

EDIT_OPS = ("ADD", "REMOVE", "CHANGE")


@dataclass
class DataConfig:
    grid: tuple = (4, 4)
    cell_px: int = 8
    channels: int = 3
    shapes: tuple = SHAPES
    colors: tuple = COLORS
    actions: tuple = ACTIONS
    min_objects: int = 2
    max_objects: int = 4
    op_weights: tuple = (1.0, 1.0, 1.0)
    noise_sigma: float = 0.02

    def __post_init__(self):
        if not self.shapes or not self.colors or not self.actions:
            raise ValueError("shape/color/action enumerations must be non-empty")
        if len(self.colors) < 2:
            raise ValueError("need at least 2 colors for CHANGE edits")
        if self.max_objects > len(self.shapes):
            raise ValueError("max_objects cannot exceed available shapes")
        if min(self.grid) < 1 or self.cell_px < 1:
            raise ValueError(f"grid {self.grid} and cell_px {self.cell_px} must be positive")
        if not 1 <= self.min_objects <= self.max_objects:
            raise ValueError(f"need 1 <= min_objects ({self.min_objects}) <= max_objects "
                             f"({self.max_objects})")
        if self.max_objects >= self.n_cells:
            raise ValueError(f"max_objects ({self.max_objects}) must leave a free cell for an "
                             f"ADD edit on the {self.grid} grid")

    @property
    def n_cells(self) -> int:
        return self.grid[0] * self.grid[1]


@dataclass
class Scene:
    """Sparse cell map: index -> (shape, color, action)."""

    grid: tuple
    cells: dict

    def __post_init__(self):
        if not self.cells:
            raise ValueError("scene must have at least one occupied cell")
        n = self.grid[0] * self.grid[1]
        for idx, (shape, color, action) in self.cells.items():
            if not 0 <= idx < n:
                raise ValueError(f"cell index {idx} outside grid {self.grid}")
            if shape not in SHAPES or color not in COLORS or action not in ACTIONS:
                raise ValueError(f"unknown attribute in cell {idx}: {(shape, color, action)}")

    def concepts(self) -> set:
        """Visible attribute words: shapes, colors, non-trivial actions."""
        out = set()
        for shape, color, action in self.cells.values():
            out.add(shape)
            out.add(color)
            if action != "none":
                out.add(action)
        return out


@dataclass
class Edit:
    op: str
    cell: int
    before: tuple | None
    after: tuple | None


@dataclass
class Triplet:
    reference: Scene
    target: Scene
    modifier: str
    edit: Edit
    concepts: list
    concept_patches: dict = field(default_factory=dict)


class ConceptVocabulary:
    """Ordered concept list with a part-of-speech tag per entry."""

    def __init__(self, concepts: list, tags: dict):
        if len(set(concepts)) != len(concepts):
            raise ValueError("concept vocabulary entries must be unique")
        self.concepts = list(concepts)
        self.tags = dict(tags)
        self.index = {c: i for i, c in enumerate(self.concepts)}

    def __len__(self):
        return len(self.concepts)

    def __contains__(self, c):
        return c in self.index


# ---------------------------------------------------------------------------
# concept parsing
# ---------------------------------------------------------------------------


def parse_concepts(modifier: str, pos_set: frozenset = ALL_POS) -> set:
    """Words of the modifier whose part of speech is enabled."""
    out = set()
    for word in modifier.lower().split():
        tag = LEXICON.get(word)
        if tag is None:
            warnings.warn(f"word {word!r} missing from lexicon, skipped")
            continue
        if tag in pos_set:
            out.add(word)
    return out


def build_vocabulary(train_modifiers, pos_set: frozenset = ALL_POS) -> ConceptVocabulary:
    if not train_modifiers:
        raise ValueError("need at least one training modifier")
    concepts = set()
    for m in train_modifiers:
        concepts.update(parse_concepts(m, pos_set))
    if not concepts:
        raise ValueError("no concepts parsed from training modifiers")
    ordered = sorted(concepts)
    return ConceptVocabulary(ordered, {c: LEXICON[c] for c in ordered})


def make_zero_shot_split(train_modifiers, val_triplets):
    """Concepts unique to validation, plus the val records (dicts with a
    "modifier") that use them."""
    if not train_modifiers or not val_triplets:
        raise ValueError("both splits must be non-empty")
    train_concepts = set()
    for m in train_modifiers:
        train_concepts.update(parse_concepts(m))
    val_concepts = set()
    for t in val_triplets:
        val_concepts.update(parse_concepts(t["modifier"]))
    zero_shot = val_concepts - train_concepts
    if not zero_shot:
        warnings.warn("zero-shot split is empty: validation adds no new concepts")
        return set(), []
    kept = [
        t for t in val_triplets
        if parse_concepts(t["modifier"]) & zero_shot
    ]
    return zero_shot, kept


# ---------------------------------------------------------------------------
# triplet generation
# ---------------------------------------------------------------------------


def _random_scene(rng: np.random.Generator, config: DataConfig) -> Scene:
    """Objects get distinct shapes so referring phrases are unambiguous."""
    n_obj = int(rng.integers(config.min_objects, config.max_objects + 1))
    cells = rng.choice(config.n_cells, size=n_obj, replace=False)
    shapes = rng.choice(len(config.shapes), size=n_obj, replace=False)
    placed = {}
    for cell, shape_i in zip(cells, shapes):
        color = config.colors[rng.integers(len(config.colors))]
        action = config.actions[rng.integers(len(config.actions))]
        placed[int(cell)] = (config.shapes[shape_i], color, action)
    return Scene(tuple(config.grid), placed)


# one entry: (template, words that become C(T) when parsed)
ADD_TEMPLATES = (
    "add a {color} {shape}",
    "also add a {color} {shape}",
    "add a {color} {shape} now",
)
ADD_ACTION_TEMPLATE = "add a {color} {shape} that can {action}"
REMOVE_TEMPLATES = (
    "remove the {color} {shape}",
    "take the {color} {shape} away",
    "now remove the {color} {shape}",
)
CHANGE_COLOR_TEMPLATES = (
    "make the {shape} {new_color}",
    "turn the {old_color} {shape} {new_color}",
    "paint the {shape} {new_color} now",
)
CHANGE_ACTION_TEMPLATES = (
    "make the {color} {shape} {action}",
    "let the {shape} {action} now",
    "the {color} {shape} should {action}",
)


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def generate_triplet(seed: int, config: DataConfig) -> Triplet:
    """Deterministic reference/target/modifier triplet for one seed."""
    rng = np.random.default_rng(seed)
    scene = _random_scene(rng, config)
    ops, weights = EDIT_OPS, np.asarray(config.op_weights, dtype=np.float64)
    op = ops[int(rng.choice(len(ops), p=weights / weights.sum()))]

    cells = dict(scene.cells)
    if op == "ADD":
        free_cells = sorted(set(range(config.n_cells)) - set(cells))
        used_shapes = {v[0] for v in cells.values()}
        free_shapes = [s for s in config.shapes if s not in used_shapes]
        cell = int(_pick(rng, free_cells))
        shape = _pick(rng, free_shapes)
        color = _pick(rng, config.colors)
        action = _pick(rng, config.actions)
        after = (shape, color, action)
        cells[cell] = after
        if action != "none" and rng.random() < 0.4:
            modifier = ADD_ACTION_TEMPLATE.format(color=color, shape=shape, action=action)
        else:
            modifier = _pick(rng, ADD_TEMPLATES).format(color=color, shape=shape)
        edit = Edit("ADD", cell, None, after)
    elif op == "REMOVE":
        cell = int(_pick(rng, sorted(cells)))
        before = cells.pop(cell)
        modifier = _pick(rng, REMOVE_TEMPLATES).format(color=before[1], shape=before[0])
        edit = Edit("REMOVE", cell, before, None)
    else:  # CHANGE
        cell = int(_pick(rng, sorted(cells)))
        shape, color, action = cells[cell]
        if rng.random() < 0.5:
            new_color = _pick(rng, [c for c in config.colors if c != color])
            after = (shape, new_color, action)
            modifier = _pick(rng, CHANGE_COLOR_TEMPLATES).format(
                shape=shape, old_color=color, new_color=new_color
            )
        else:
            new_action = _pick(rng, [a for a in config.actions if a not in ("none", action)])
            after = (shape, color, new_action)
            modifier = _pick(rng, CHANGE_ACTION_TEMPLATES).format(
                color=color, shape=shape, action=new_action
            )
        cells[cell] = after
        edit = Edit("CHANGE", cell, (shape, color, action), after)

    target = Scene(tuple(config.grid), cells)
    concepts = sorted(parse_concepts(modifier))
    triplet = Triplet(scene, target, modifier, edit, concepts)
    triplet.concept_patches = _concept_patches(triplet, config)
    return triplet


def _concept_patches(t: Triplet, config: DataConfig) -> dict:
    """Joint patch indices (reference rows first) of each concept's referent.

    Every modifier word refers to the edited object: ADD concepts ground on
    the target side, REMOVE concepts on the reference side, and CHANGE
    concepts on the side carrying the named attribute (attributes present
    on both sides, and the edit words themselves, ground on the pair).
    """
    L = config.n_cells
    ref_spot, tgt_spot = t.edit.cell, L + t.edit.cell
    before = set(t.edit.before or ())
    after = set(t.edit.after or ())
    patches: dict[str, list] = {}
    for concept in t.concepts:
        if t.edit.op == "ADD":
            spots = {tgt_spot}
        elif t.edit.op == "REMOVE":
            spots = {ref_spot}
        elif concept in before and concept not in after:
            spots = {ref_spot}
        elif concept in after and concept not in before:
            spots = {tgt_spot}
        else:
            spots = {ref_spot, tgt_spot}
        patches[concept] = sorted(spots)
    return patches


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _shape_mask(shape: str, px: int) -> np.ndarray:
    y, x = np.mgrid[0:px, 0:px].astype(np.float64)
    c = (px - 1) / 2.0
    r = px * 0.4
    if shape == "circle":
        return (y - c) ** 2 + (x - c) ** 2 <= r * r
    if shape == "square":
        m = px // 8 + 1
        return (y >= m) & (y < px - m) & (x >= m) & (x < px - m)
    if shape == "triangle":
        return (y >= 1) & (y <= px - 2) & (np.abs(x - c) <= 0.55 * (y - 0.5))
    if shape == "cross":
        bar = px // 4
        v = (np.abs(x - c) <= bar / 2) & (y >= 1) & (y <= px - 2)
        h = (np.abs(y - c) <= bar / 2) & (x >= 1) & (x <= px - 2)
        return v | h
    if shape == "diamond":
        return np.abs(y - c) + np.abs(x - c) <= r
    if shape == "ring":
        d2 = (y - c) ** 2 + (x - c) ** 2
        return (d2 <= r * r) & (d2 >= (r * 0.55) ** 2)
    raise ValueError(f"unknown shape {shape!r}")


@functools.lru_cache(maxsize=None)
def render_cell(shape: str, color: str, action: str, px: int, channels: int) -> np.ndarray:
    """One object's px x px x channels patch; read-only, since a cell is
    drawn once per distinct (shape, color, action, px, channels)."""
    patch = np.full((px, px, channels), BACKGROUND, dtype=np.float32)
    mask = _shape_mask(shape, px)
    rgb = np.asarray(COLOR_RGB[color][:channels], dtype=np.float32)
    patch[mask] = rgb
    if action == "spin":
        yy, xx = np.mgrid[0:px, 0:px]
        stripes = mask & ((yy + xx) % 3 == 0)
        patch[stripes] = rgb * 0.45
    elif action == "swim":
        yy, _ = np.mgrid[0:px, 0:px]
        waves = mask & (yy % 3 == 1)
        patch[waves] = rgb * 0.45 + 0.55
    patch.flags.writeable = False
    return patch


def render_scene(scene: Scene, config: DataConfig, seed: int | None = None) -> np.ndarray:
    """Rasterize to (H, W, C) in [0,1]; seed controls the pixel noise."""
    gh, gw = scene.grid
    px = config.cell_px
    img = np.full((gh * px, gw * px, config.channels), BACKGROUND, dtype=np.float32)
    for idx, (shape, color, action) in scene.cells.items():
        r, c = divmod(idx, gw)
        img[r * px : (r + 1) * px, c * px : (c + 1) * px] = render_cell(
            shape, color, action, px, config.channels
        )
    if seed is not None and config.noise_sigma > 0:
        noise = np.random.default_rng(seed).normal(0.0, config.noise_sigma, img.shape)
        img = np.clip(img + noise.astype(np.float32), 0.0, 1.0)
    return img


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

IMAGE_MAGIC = b"NCT1"


class ImageStoreWriter:
    """Append-only tensor store with an id -> byte-offset index."""

    def __init__(self, store_path, index_path):
        self.store_path = store_path
        self.index_path = index_path
        self._fh = open(store_path, "wb")
        self._index: dict[str, int] = {}

    def add(self, image_id: str, arr: np.ndarray) -> None:
        if image_id in self._index:
            raise ValueError(f"duplicate image id {image_id!r}")
        self._index[image_id] = self._fh.tell()
        arr = np.ascontiguousarray(arr, dtype="<f4")
        self._fh.write(IMAGE_MAGIC)
        self._fh.write(struct.pack("<I", arr.ndim))
        for dim in arr.shape:
            self._fh.write(struct.pack("<I", dim))
        self._fh.write(arr.tobytes())

    def close(self) -> None:
        self._fh.close()
        with open(self.index_path, "w", encoding="utf-8") as fh:
            json.dump(self._index, fh, sort_keys=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class ImageStore:
    """Read side of the tensor store."""

    def __init__(self, store_path, index_path):
        with open(index_path, encoding="utf-8") as fh:
            self._index = json.load(fh)
        self._fh = open(store_path, "rb")

    def __contains__(self, image_id: str) -> bool:
        return image_id in self._index

    def get(self, image_id: str) -> np.ndarray:
        if image_id not in self._index:
            raise KeyError(f"image id {image_id!r} not in store")
        self._fh.seek(self._index[image_id])
        magic = self._fh.read(4)
        if magic != IMAGE_MAGIC:
            raise ValueError(f"bad record magic {magic!r} for id {image_id!r}")
        (rank,) = struct.unpack("<I", self._fh.read(4))
        dims = struct.unpack(f"<{rank}I", self._fh.read(4 * rank))
        n = int(np.prod(dims, dtype=np.int64))
        payload = self._fh.read(4 * n)
        if len(payload) != 4 * n:
            raise ValueError(f"truncated record for id {image_id!r}")
        return np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float32)

    def close(self) -> None:
        self._fh.close()


def triplet_record(t: Triplet, triplet_id: str, ref_id: str, tgt_id: str) -> dict:
    return {
        "id": triplet_id,
        "ref_image": ref_id,
        "tgt_image": tgt_id,
        "modifier": t.modifier,
        "concepts": list(t.concepts),
        "edit": {
            "op": t.edit.op,
            "cell": t.edit.cell,
            "before": list(t.edit.before) if t.edit.before else None,
            "after": list(t.edit.after) if t.edit.after else None,
        },
        "concept_patches": {k: list(v) for k, v in sorted(t.concept_patches.items())},
    }


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_jsonl(path) -> list:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                out.append(json.loads(line))
    return out


# ---------------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------------


def split_configs(config: DataConfig, n_train: int, n_val: int,
                  holdout_colors: tuple = ()) -> dict:
    """Split name -> (triplet count, DataConfig); raises ValueError on bad
    arguments.  ``holdout_colors`` are excluded from the training config."""
    if n_train < 0 or n_val < 0:
        raise ValueError(f"triplet counts must be non-negative, got {n_train} and {n_val}")
    for c in holdout_colors:
        if c not in config.colors:
            raise ValueError(f"holdout color {c!r} not in config colors")
    train_colors = tuple(c for c in config.colors if c not in holdout_colors)
    try:
        train_cfg = DataConfig(**{**asdict(config), "colors": train_colors})
    except ValueError as e:
        raise ValueError(f"training colors {list(train_colors)} after the holdout: {e}") from e
    return {"train": (n_train, train_cfg), "val": (n_val, config)}


def generate_dataset(out_dir, n_train: int, n_val: int, config: DataConfig,
                     seed: int, holdout_colors: tuple = ()) -> dict:
    """Write train/val triplet files plus the shared image store.

    ``holdout_colors`` are excluded from training scenes entirely (pixels
    and words), so their words exist only in validation modifiers — the
    zero-shot construction.  Bad arguments raise ValueError before
    anything is written.
    """
    from pathlib import Path

    splits = split_configs(config, n_train, n_val, holdout_colors)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    paths = {
        "store": out / "images.nct",
        "index": out / "images.idx.json",
        "train": out / "train.jsonl",
        "val": out / "val.jsonl",
    }
    counter = 0
    with ImageStoreWriter(paths["store"], paths["index"]) as store:
        for split, (count, cfg) in splits.items():
            records = []
            for i in range(count):
                t = generate_triplet(seed * 1_000_003 + counter, cfg)
                tid = f"{split}{i:05d}"
                ref_id, tgt_id = tid + "_ref", tid + "_tgt"
                store.add(ref_id, render_scene(t.reference, cfg, seed=seed * 7 + counter * 2))
                store.add(tgt_id, render_scene(t.target, cfg, seed=seed * 7 + counter * 2 + 1))
                records.append(triplet_record(t, tid, ref_id, tgt_id))
                counter += 1
            write_jsonl(paths[split], records)
    meta = {
        "seed": seed,
        "n_train": n_train,
        "n_val": n_val,
        "holdout_colors": list(holdout_colors),
        "grid": list(config.grid),
        "cell_px": config.cell_px,
        "channels": config.channels,
    }
    with open(out / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=1)
    return {k: str(v) for k, v in paths.items()}
