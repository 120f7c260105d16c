"""The benchmark's workloads: inputs made from a seed, timed rounds, checks.

Every call into the program goes through a module attribute
(``T.train``, ``data.generate_dataset``, ...), so the tracer can wrap it.
A run sets up, then repeats whole rounds, at least two, until ``seconds``
have passed, then checks the outputs with the tracer removed.  An operation
that raises is counted as failed and ends its round; the next round starts
afresh.  All loops are closed: each call starts when the previous one has
returned.
"""

from __future__ import annotations

import dataclasses
import resource
import shutil
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from ccir import autograd, data, model
from ccir import train as T
from ccir.alignment import ConceptLabelVector
from ccir.config import TrainConfig
from ccir.encoders import build_text_vocab, tokenize, words_to_ids

HELD_OUT = ("purple", "orange")
SETUP_REPEATS = 3  # dataset generation and loads per set-up; setup_s is their median
EVAL_REPEATS = 5  # load-and-evaluate calls per checkpoint in train-default and ablate-d32
ABLATION_ARMS = {
    "full": {},
    "remove_fusion": {"remove_fusion": True},
    "reference_only": {"reference_only": True},
    "remove_concept_module": {"remove_concept_module": True},
}


@dataclass(frozen=True)
class Spec:
    """Make-up of a workload's inputs; data seeds are offset by --seed."""

    n_train: int
    n_val: int
    data_seed: int
    cfg: TrainConfig
    zero_shot_seed: int = 0


SPECS = {
    # paper-scale training: d=64, 2 heads, 3 fusion steps, batch 32,
    # validation every epoch; one frozen epoch (token cache), two unfrozen
    "train-default": Spec(2000, 200, 202, TrainConfig(epochs=3, freeze_epochs=1)),
    # the checkpoint is trained in set-up, one epoch frozen and one not
    "retrieve-gallery": Spec(2000, 200, 202, TrainConfig(epochs=2, freeze_epochs=1)),
    # tests/test_acceptance.py's ABL_BASE width and data on a short schedule,
    # with validation every epoch for recall_aggregate
    "ablate-d32": Spec(800, 120, 303, TrainConfig(d=32, epochs=2, freeze_epochs=1),
                       zero_shot_seed=404),
}


@dataclass
class Run:
    """Timings, operation counts and failed checks of one benchmark run.

    ``calls`` holds (key, items, seconds) per timed call that returned:
    triplets per train() call, queries per load-and-evaluate call (keyed by
    checkpoint), 1 per alignment_record call.  ``failed`` holds one message
    per timed call that raised.
    """

    work: Path
    seed: int
    setup: list = field(default_factory=list)
    calls: dict = field(default_factory=lambda: {"train": [], "eval": [], "align": []})
    rounds: list = field(default_factory=list)
    failed: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # failed checks
    notes: list = field(default_factory=list)  # printed with the result

    @property
    def attempted(self) -> int:
        return sum(len(c) for c in self.calls.values()) + len(self.failed)


class OperationFailed(Exception):
    """A timed call raised; the rest of its round is not attempted."""


def _timed(run: Run, kind: str, key, items: int, fn, *args, **kwargs):
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:
        run.failed.append(f"{kind}: {type(exc).__name__}: {exc}")
        raise OperationFailed from exc
    run.calls[kind].append((key, items, time.perf_counter() - t0))
    return out


def set_up(run: Run, spec: Spec, datasets: dict) -> dict:
    """Generate and load every dataset SETUP_REPEATS times; keep the last
    load.  ``datasets`` maps a name to (data seed, held-out colours)."""
    loaded = {}
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        for name, (seed, holdout) in datasets.items():
            data.generate_dataset(run.work / name, spec.n_train, spec.n_val, data.DataConfig(),
                                  seed=seed, holdout_colors=holdout)
            loaded[name] = T.load_dataset(run.work / name)
        run.setup.append(time.perf_counter() - t0)
    return loaded


def _train(run: Run, cfg: TrainConfig, data_dir: Path, out_dir: Path, n_train: int):
    return _timed(run, "train", None, n_train * cfg.epochs, T.train, cfg, data_dir,
                  out_dir=out_dir)


def _load_and_evaluate(path: Path, queries, ds, gallery=None):
    """What ``ccir eval`` does: load a checkpoint, then rank the queries."""
    ckpt = T.Checkpoint.load(path)
    return ckpt, T.evaluate(ckpt, queries, ds, gallery_ids=gallery)


def _eval(run: Run, path: Path, queries, ds, gallery=None):
    """EVAL_REPEATS timed calls; returns the last (checkpoint, metrics)."""
    return [_timed(run, "eval", path, len(queries), _load_and_evaluate, path, queries, ds,
                   gallery) for _ in range(EVAL_REPEATS)][-1]


def _align(run: Run, ckpt, records, ds) -> list:
    return [_timed(run, "align", None, 1, T.alignment_record, ckpt, r, ds) for r in records]


def _validation_mean(records) -> float:
    """Mean aggregate of the per-epoch validations that train() logged."""
    return statistics.mean(r["recall"]["aggregate"] for r in records)


def _gallery(records) -> list:
    return sorted({r["tgt_image"] for r in records})


def _rounds(run: Run, seconds: float, one_round) -> None:
    """At least two rounds, so that _same_every_round compares two."""
    start, attempted = time.perf_counter(), 0
    while attempted < 2 or time.perf_counter() - start < seconds:
        attempted += 1
        try:
            run.rounds.append(one_round())
        except OperationFailed:
            pass


def _same_every_round(run: Run, value, label: str) -> None:
    values = [value(r) for r in run.rounds]
    if any(v != values[0] for v in values):
        run.failures.append(f"{label} differ between rounds of one seed: {values}")


def check_data(run: Run, path: Path, ds) -> None:
    store = data.ImageStore(path / "images.nct", path / "images.idx.json")
    cfg = data.DataConfig()
    try:
        run.failures += oracles.check_edit_cells(
            ds.train + ds.val, store.get, cfg.grid, cfg.noise_sigma
        )
    finally:
        store.close()


def check_gradient(run: Run, ds, cfg: TrainConfig, rng) -> None:
    """Directional central difference on the first training batch, float64,
    with the image encoder live."""
    batch = ds.train[: cfg.batch_size]
    modifiers = [r["modifier"] for r in ds.train]
    text_vocab = build_text_vocab(modifiers)
    text_index = {w: i for i, w in enumerate(text_vocab)}
    concepts = data.build_vocabulary(modifiers, pos_set=cfg.pos_classes)
    ids = [words_to_ids(tokenize(r["modifier"]), text_index) for r in batch]
    labels = np.stack([
        ConceptLabelVector.from_concepts(
            data.parse_concepts(r["modifier"], pos_set=cfg.pos_classes), concepts.concepts
        ).labels
        for r in batch
    ])
    params = model.init_model_params(cfg.seed, cfg, ds.n_patches, ds.cell_px, ds.channels,
                                     len(text_vocab), len(concepts))
    program = model.build_training_program(ids, labels, len(batch), ds.n_patches, cfg)
    inputs = {"patches": np.concatenate([ds.patches[r["ref_image"]] for r in batch]
                                        + [ds.patches[r["tgt_image"]] for r in batch])}

    outputs, nodes = autograd.run_program(program, inputs, params, dtype=np.float64)
    autograd.backward(outputs["loss"])
    gradient = {k: n.grad if n.grad is not None else np.zeros_like(n.value)
                for k, n in nodes.items()}
    base = {k: n.value for k, n in nodes.items()}

    def loss_at(arrays):
        out, _ = autograd.run_program(program, inputs, dict(arrays), dtype=np.float64)
        return float(out["loss"].value)

    err = oracles.directional_derivative_error(loss_at, gradient, base, rng)
    if not err <= 1e-5:
        run.failures.append(f"directional derivative off by {err:.2e} (relative)")


def check_recall_recomputed(run: Run, ckpt, m, queries, ds) -> None:
    """evaluate()'s R@K and Rs@K against a float64 recomputation."""
    cfg, L = ckpt.config, ds.n_patches
    gallery = _gallery(queries)
    pos = {g: i for i, g in enumerate(gallery)}
    text_index = {w: i for i, w in enumerate(ckpt.text_vocab)}
    g_feats, q_feats = [], []
    chunk = 50
    for s in range(0, len(gallery), chunk):
        ids = gallery[s : s + chunk]
        toks = model.encode_images_array(
            ckpt.params, np.concatenate([ds.patches[g] for g in ids]), len(ids), cfg)
        g_feats.append(model.embed_targets(ckpt.params, toks, len(ids), L, cfg))
    for s in range(0, len(queries), chunk):
        recs = queries[s : s + chunk]
        toks = model.encode_images_array(
            ckpt.params, np.concatenate([ds.patches[r["ref_image"]] for r in recs]),
            len(recs), cfg)
        ids = [words_to_ids(tokenize(r["modifier"]), text_index) for r in recs]
        q_feats.append(model.embed_queries(ckpt.params, toks, ids, len(recs), L, cfg)[0])
    targets = [pos[r["tgt_image"]] for r in queries]
    feats = T.frozen_encoder_features(ds, cfg, gallery)
    subsets = oracles.nearest_subsets(feats, sorted(set(targets)), cfg.subset_size)
    run.failures += oracles.check_recalls(
        m, np.concatenate(q_feats), np.concatenate(g_feats), targets, subsets,
        cfg.recall_ks, cfg.subset_ks,
    )


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def train_default(run: Run, spec: Spec, seconds: float, rng):
    ds = set_up(run, spec, {"data": (spec.data_seed + run.seed, ())})["data"]
    path, out = run.work / "data", run.work / "run"

    def one_round():
        _, records = _train(run, spec.cfg, path, out, spec.n_train)
        ckpt, m = _eval(run, out / "model.nck", ds.val, ds)
        return dict(records=records, metrics=m, maps=_align(run, ckpt, ds.val, ds),
                    recall=_validation_mean(records))

    _rounds(run, seconds, one_round)
    return lambda: check_train_default(run, spec, ds, rng)


def check_train_default(run: Run, spec: Spec, ds, rng) -> None:
    last = run.rounds[-1]
    aggregates = [r["recall"]["aggregate"] for r in last["records"]]
    run.notes.append("validation aggregate per epoch: " + " ".join(f"{a:.4f}" for a in aggregates))
    check_data(run, run.work / "data", ds)
    check_gradient(run, ds, spec.cfg, rng)
    run.failures += oracles.check_loss_falls(last["records"], "train-default")
    chance = oracles.chance_aggregate(len(_gallery(ds.val)), spec.cfg.subset_size)
    if not aggregates[-1] > chance:
        run.failures.append(f"aggregate {aggregates[-1]} not above chance {chance}")
    if last["metrics"].to_dict() != last["records"][-1]["recall"]:
        run.failures.append("the reloaded checkpoint evaluates differently from the last epoch")
    run.failures += oracles.check_attention_maps(last["maps"], ds.n_patches)
    _same_every_round(run, lambda r: [x["L"] for x in r["records"]], "epoch losses")


def retrieve_gallery(run: Run, spec: Spec, seconds: float, rng):
    ds = set_up(run, spec, {"data": (spec.data_seed + run.seed, ())})["data"]
    path, out = run.work / "data", run.work / "run"
    t0 = time.perf_counter()
    in_memory, records = _train(run, spec.cfg, path, out, spec.n_train)
    run.setup = [s + time.perf_counter() - t0 for s in run.setup]

    def one_round():
        ckpt, m = _eval(run, out / "model.nck", ds.train, ds)
        return dict(ckpt=ckpt, metrics=m, maps=_align(run, ckpt, ds.val, ds),
                    recall=_validation_mean(records))

    _rounds(run, seconds, one_round)
    return lambda: check_retrieve_gallery(run, spec, ds, in_memory)


def check_retrieve_gallery(run: Run, spec: Spec, ds, in_memory) -> None:
    last = run.rounds[-1]
    run.notes.append(f"train-split aggregate: {last['metrics'].aggregate:.4f}")
    check_data(run, run.work / "data", ds)
    check_recall_recomputed(run, last["ckpt"], last["metrics"], ds.train, ds)
    if T.evaluate(in_memory, ds.val, ds).to_dict() != T.evaluate(last["ckpt"], ds.val, ds).to_dict():
        run.failures.append("the reloaded checkpoint evaluates differently")
    for path, t in in_memory.params.items():
        if t.data.tobytes() != last["ckpt"].params[path].data.tobytes():
            run.failures.append(f"reloaded parameter {path} differs")
    run.failures += oracles.check_attention_maps(last["maps"], ds.n_patches)
    _same_every_round(run, lambda r: r["metrics"].to_dict(), "train-split metrics")


def ablate_d32(run: Run, spec: Spec, seconds: float, rng):
    loaded = set_up(run, spec, {
        "main": (spec.data_seed + run.seed, ()),
        "zero-shot": (spec.zero_shot_seed + run.seed, HELD_OUT),
    })
    ds, zs = loaded["main"], loaded["zero-shot"]
    _, kept = data.make_zero_shot_split([r["modifier"] for r in zs.train], zs.val)
    arms = [(arm, flags, "main", ds.val, None) for arm, flags in ABLATION_ARMS.items()]
    arms.append(("zero-shot-full", {}, "zero-shot", kept, _gallery(zs.val)))

    def one_round():
        records, metrics = {}, {}
        for arm, flags, split, _, _ in arms:
            cfg = dataclasses.replace(spec.cfg, **flags)
            _, records[arm] = _train(run, cfg, run.work / split, run.work / arm, spec.n_train)
        for arm, _, split, queries, gallery in arms:
            ckpt, metrics[arm] = _eval(run, run.work / arm / "model.nck", queries,
                                       loaded[split], gallery)
            if arm == "full":
                maps = _align(run, ckpt, ds.val, ds)
        return dict(records=records, metrics=metrics, maps=maps,
                    recall=statistics.mean(_validation_mean(r) for r in records.values()))

    _rounds(run, seconds, one_round)
    return lambda: check_ablate_d32(run, spec, ds, zs, kept)


def check_ablate_d32(run: Run, spec: Spec, ds, zs, kept) -> None:
    last = run.rounds[-1]
    run.notes.append("aggregate per arm: " + " ".join(
        f"{arm}={m.aggregate:.4f}" for arm, m in last["metrics"].items()))
    check_data(run, run.work / "main", ds)
    check_data(run, run.work / "zero-shot", zs)
    for arm, records in last["records"].items():
        run.failures += oracles.check_loss_falls(records, arm)
    if any(r["L_c"] != 0.0 for r in last["records"]["remove_concept_module"]):
        run.failures.append("L_c is not 0 with the concept module removed")
    for arm in ABLATION_ARMS:
        if last["records"][arm][-1]["recall"] != last["metrics"][arm].to_dict():
            run.failures.append(f"{arm}: the reloaded checkpoint evaluates differently")
    run.failures += oracles.check_zero_shot(zs.train, kept, HELD_OUT)
    run.failures += oracles.check_attention_maps(last["maps"], ds.n_patches)
    _same_every_round(run, lambda r: r["recall"], "aggregate")


WORKLOADS = {
    "train-default": train_default,
    "retrieve-gallery": retrieve_gallery,
    "ablate-d32": ablate_d32,
}


def end_to_end(run: Run) -> dict:
    """End-to-end metric values of a finished run.

    Training throughput is over the whole train() calls.  Evaluation and
    alignment throughput come from median calls, one per checkpoint, so a
    collector pause in one short call does not swing the figure.
    """
    trained = sum(n for _, n, _ in run.calls["train"])
    train_s = sum(s for _, _, s in run.calls["train"])
    evals = defaultdict(list)
    for key, n, s in run.calls["eval"]:
        evals[key].append((n, s))
    return {
        "setup_s": statistics.median(run.setup),
        "train_triplets_per_s": trained / train_s,
        "eval_queries_per_s": sum(c[0][0] for c in evals.values())
        / sum(statistics.median(s for _, s in c) for c in evals.values()),
        "align_triplets_per_s": 1.0 / statistics.median(s for _, _, s in run.calls["align"]),
        "recall_aggregate": run.rounds[-1]["recall"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def run_workload(name: str, seed: int, seconds: float, work: Path, tracer=None,
                 spec: Spec | None = None) -> Run:
    """Set up, measure for ``seconds`` and check one workload in ``work``."""
    spec = spec or SPECS[name]
    run = Run(work=work, seed=seed)
    work.mkdir(parents=True, exist_ok=True)
    try:
        if tracer is not None:
            tracer.install()
        try:
            checks = WORKLOADS[name](run, spec, seconds, np.random.default_rng(seed))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if run.rounds:
            checks()
        else:
            run.failures.append("no round ended without a failed operation")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return run
