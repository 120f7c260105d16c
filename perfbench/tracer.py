"""Spans around calls into the program's public functions, from outside.

The tracer reassigns the module (and class) attributes the program calls
through, so a traced call runs the original function inside a timed span.
Spans are kept in memory and turned into per-layer metrics when the run
ends.  Nothing in ``src/`` knows about it; ``uninstall`` restores every
attribute.
"""

from __future__ import annotations

import functools
import gc
import statistics
import time
from collections import defaultdict

# (module, attribute, span name): the attribute is looked up where the
# caller resolves it, e.g. train() calls ``forward_backward`` through the
# ``ccir.train`` namespace, and mha() calls ``attention_core`` through
# ``ccir.layers`` while the fusion block calls it through ``ccir.fusion``.
TARGETS = (
    ("ccir.data", "generate_dataset", "generate_dataset"),
    ("ccir.train", "load_dataset", "load_dataset"),
    ("ccir.train", "train", "train"),
    ("ccir.train", "forward_backward", "forward_backward"),
    ("ccir.train", "adamw_step", "adamw_step"),
    ("ccir.train", "evaluate", "evaluate"),
    ("ccir.train", "alignment_record", "alignment_record"),
    ("ccir.train", "encode_images_array", "encode_images_array"),
    ("ccir.train", "embed_targets", "embed_targets"),
    ("ccir.train", "embed_queries", "embed_queries"),
    ("ccir.train", "frozen_encoder_features", "frozen_encoder_features"),
    ("ccir.train", "visually_similar_subset", "visually_similar_subset"),
    ("ccir.train", "compute_metrics", "compute_metrics"),
    ("ccir.train.Checkpoint", "save", "checkpoint_save"),
    ("ccir.train.Checkpoint", "load", "checkpoint_load"),
    ("ccir.autograd", "backward", "backward"),
    ("ccir.model", "encode_image_batch_node", "encode_image_batch_node"),
    ("ccir.model", "encode_text_batch_node", "encode_text_batch_node"),
    ("ccir.model", "joint_encode_batch_node", "joint_encode_batch_node"),
    ("ccir.model", "encode_tokens_batch_node", "encode_tokens_batch_node"),
    ("ccir.model", "concept_mil_node", "concept_mil_node"),
    ("ccir.model", "asymmetric_loss_node", "asymmetric_loss_node"),
    ("ccir.model", "attention_pool_batch_node", "attention_pool_batch_node"),
    ("ccir.model", "fusion_sequence_batch_node", "fusion_sequence_batch_node"),
    ("ccir.model", "instantiate_block_batch_node", "instantiate_block_batch_node"),
    ("ccir.model", "fusion_step_batch_node", "fusion_step_batch_node"),
    ("ccir.model", "batch_classification_loss_node", "batch_classification_loss_node"),
    ("ccir.layers", "attention_core", "attention_core"),
    ("ccir.fusion", "attention_core", "attention_core"),
)

MB = 1e6


class Span:
    __slots__ = ("name", "start", "end", "parent", "excluded", "info")

    def __init__(self, name, parent):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.excluded = 0.0  # tracer bookkeeping inside this span
        self.info = None

    @property
    def seconds(self) -> float:
        return self.end - self.start - self.excluded


def _resolve(dotted: str):
    import importlib

    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def graph_size(loss) -> tuple[int, int]:
    """Nodes reachable from ``loss`` through ``Node.parents``, and the
    bytes of their values."""
    seen = {id(loss): loss}
    stack = [loss]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return len(seen), sum(n.value.nbytes for n in seen.values())


def _score_bytes(args) -> int:
    """Bytes of the score matrices attention_core forms: heads x Lq x Lk."""
    q, k, _, n_heads = args[:4]
    return n_heads * q.shape[0] * k.shape[0] * q.value.itemsize


# extra per-call facts, measured before the span starts
_INFO = {
    "attention_core": _score_bytes,
    "forward_backward": lambda args: "ref_tokens" in args[1],
    "backward": lambda args: graph_size(args[0]),
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._undo: list = []
        self.gc_seconds = 0.0
        self.gc_full = 0
        self._gc_start = None

    # -- installation --------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for owner_name, attr, name in targets:
            owner = _resolve(owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = staticmethod(self._wrap(getattr(owner, attr), name))
            else:
                new = self._wrap(raw, name)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _wrap(self, fn, name):
        info_of = _INFO.get(name)
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = None
            if info_of is not None:
                t0 = time.perf_counter()
                info = info_of(args)
                spent = time.perf_counter() - t0
                for s in open_:
                    s.excluded += spent
            span = Span(name, open_[-1] if open_ else None)
            span.info = info
            spans.append(span)
            open_.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()

        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_seconds += time.perf_counter() - self._gc_start
            self._gc_start = None
            if info["generation"] == 2:
                self.gc_full += 1

    # -- summaries -----------------------------------------------------------

    def self_times(self) -> dict:
        """Per span name: calls, inclusive and self seconds."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[id(s.parent)] += s.seconds
        out: dict = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.seconds
            row["self_s"] += s.seconds - child[id(s)]
        return out


def _ancestor(span: Span, name: str):
    p = span.parent
    while p is not None and p.name != name:
        p = p.parent
    return p


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# forward layers: inclusive ms per training step, over the steps running them
STEP_LAYERS = {
    "encoders.image_fwd_ms": ("encode_image_batch_node",),
    "encoders.text_fwd_ms": ("encode_text_batch_node",),
    "layers.attention_fwd_ms": ("attention_core",),
    "alignment.joint_fwd_ms": ("joint_encode_batch_node", "encode_tokens_batch_node"),
    "alignment.concept_loss_fwd_ms": ("concept_mil_node", "asymmetric_loss_node"),
    "alignment.pool_fwd_ms": ("attention_pool_batch_node",),
    "fusion.indicator_fwd_ms": ("fusion_sequence_batch_node", "instantiate_block_batch_node"),
    "fusion.match_loss_fwd_ms": ("batch_classification_loss_node",),
    "autograd.backward_ms": ("backward",),
}

# evaluate() parts: inclusive ms per evaluate call made outside train()
EVAL_PARTS = {
    "train.gallery_encode_ms": ("encode_images_array", "embed_targets"),
    "model.embed_queries_ms": ("embed_queries",),
    "train.subset_search_ms": ("frozen_encoder_features", "visually_similar_subset"),
    "metrics.rank_ms": ("compute_metrics",),
}

# (metric, span name, unit scale, only inside training steps): median per call
PER_CALL = (
    ("data.generate_s", "generate_dataset", 1.0, False),
    ("train.load_dataset_s", "load_dataset", 1.0, False),
    ("fusion.step_fwd_ms", "fusion_step_batch_node", 1e3, True),
    ("optim.adamw_ms", "adamw_step", 1e3, False),
    ("optim.checkpoint_save_ms", "checkpoint_save", 1e3, False),
    ("optim.checkpoint_load_ms", "checkpoint_load", 1e3, False),
    ("train.alignment_record_ms", "alignment_record", 1e3, False),
)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values from a finished traced run."""
    spans = tracer.spans
    step_of = {}
    for s in spans:
        fb = _ancestor(s, "forward_backward")
        if fb is not None:
            step_of[id(s)] = fb

    out = {}
    for metric, names in STEP_LAYERS.items():
        per_step = defaultdict(float)
        for s in spans:
            if s.name in names and id(s) in step_of:
                per_step[id(step_of[id(s)])] += s.seconds
        out[metric] = 1e3 * _median(per_step.values())

    score_bytes = defaultdict(int)
    for s in spans:
        if s.name == "attention_core" and id(s) in step_of:
            score_bytes[id(step_of[id(s)])] += s.info
    out["layers.attention_score_mb"] = _median(score_bytes.values()) / MB

    graphs = [s.info for s in spans if s.name == "backward" and id(s) in step_of]
    out["autograd.graph_nodes"] = _median(n for n, _ in graphs)
    out["autograd.graph_mb"] = _median(b for _, b in graphs) / MB
    out["autograd.gc_ms"] = 1e3 * tracer.gc_seconds
    out["autograd.gc_full_collections"] = tracer.gc_full

    for metric, name, scale, steps_only in PER_CALL:
        out[metric] = scale * _median(
            s.seconds for s in spans
            if s.name == name and (id(s) in step_of or not steps_only)
        )

    # a training step is forward_backward plus the adamw_step after it;
    # the loop's overhead is the rest of the time to the next step's start
    in_train = [s for s in spans if s.parent is not None and s.parent.name == "train"]
    frozen, unfrozen, overhead = [], [], []
    for i in range(len(in_train) - 1):
        fb, adam = in_train[i], in_train[i + 1]
        if fb.name != "forward_backward" or adam.name != "adamw_step":
            continue
        (frozen if fb.info else unfrozen).append(fb.seconds + adam.seconds)
        nxt = in_train[i + 2] if i + 2 < len(in_train) else None
        if nxt is not None and nxt.name == "forward_backward" and nxt.parent is fb.parent:
            raw = (fb.end - fb.start) + (adam.end - adam.start)
            overhead.append(nxt.start - fb.start - raw)
    out["train.frozen_step_ms"] = 1e3 * _median(frozen)
    out["train.unfrozen_step_ms"] = 1e3 * _median(unfrozen)
    out["train.loop_overhead_ms"] = 1e3 * _median(overhead)

    evals = [s for s in spans if s.name == "evaluate"]
    out["train.eval_ms"] = 1e3 * _median(
        s.seconds for s in evals if _ancestor(s, "train") is not None
    )
    top_ids = {id(s) for s in evals if _ancestor(s, "train") is None}
    for metric, names in EVAL_PARTS.items():
        per_eval = dict.fromkeys(top_ids, 0.0)
        for s in spans:
            if s.name in names and s.parent is not None and id(s.parent) in top_ids:
                per_eval[id(s.parent)] += s.seconds
        out[metric] = 1e3 * _median(per_eval.values())
    return out
