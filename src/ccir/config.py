"""Run configuration shared by the model builder, trainer, and CLI."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

@dataclass
class TrainConfig:
    # architecture
    d: int = 64
    n_heads: int = 2
    k_steps: int = 3
    # loss
    alpha: float = 200.0
    gamma: float = 2.65926
    beta_plus: float = 1.0
    beta_minus: float = 4.0
    # optimization
    lr: float = 5e-4
    decay_every: int = 10
    decay_factor: float = 0.5
    weight_decay: float = 0.01
    batch_size: int = 32
    epochs: int = 50
    freeze_epochs: int = 8
    seed: int = 0
    # supervision
    pos_classes: frozenset = field(default_factory=lambda: frozenset({"noun", "adj", "verb", "adv"}))
    word_vector_file: str | None = None
    # evaluation
    eval_every: int = 1
    subset_size: int = 6
    recall_ks: tuple = (1, 5, 10, 50)
    subset_ks: tuple = (1, 2, 3)
    # ablations
    reference_only: bool = False
    target_only: bool = False
    cross_entropy_loss: bool = False
    remove_fusion: bool = False
    plain_layer_norm: bool = False
    remove_concept_module: bool = False
    context_score_on: bool = False

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch size must be >= 2 (the matching loss needs in-batch negatives)")
        if self.reference_only and self.target_only:
            raise ValueError("reference_only and target_only are mutually exclusive")
        for name in ("d", "n_heads", "eval_every", "decay_every", "subset_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if any(k < 1 for k in tuple(self.recall_ks) + tuple(self.subset_ks)):
            raise ValueError("every k in recall_ks and subset_ks must be at least 1")
        if self.d % 2 or self.d % self.n_heads:
            raise ValueError(f"width {self.d} must be even and divisible by {self.n_heads} heads")
        if self.k_steps < 1:
            raise ValueError("need at least one fusion step")
        if self.beta_plus < 0 or self.beta_minus < 0:
            raise ValueError("focusing exponents must be non-negative")
        if self.alpha < 0:
            raise ValueError("loss weight alpha must be non-negative")
        if self.epochs < 1 or self.freeze_epochs < 0:
            raise ValueError("bad epoch counts")
        if not isinstance(self.pos_classes, frozenset):
            object.__setattr__(self, "pos_classes", frozenset(self.pos_classes))
        bad = self.pos_classes - {"noun", "adj", "verb", "adv"}
        if bad:
            raise ValueError(f"unknown part-of-speech classes {sorted(bad)}")

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, frozenset):
                v = sorted(v)
            elif isinstance(v, tuple):
                v = list(v)
            out[f.name] = v
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys {unknown}")
        kwargs = dict(data)
        if "pos_classes" in kwargs:
            kwargs["pos_classes"] = frozenset(kwargs["pos_classes"])
        for key in ("recall_ks", "subset_ks"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)
