"""AdamW with decoupled weight decay, plus binary checkpoint I/O.

Checkpoint container layout (little-endian throughout):

    magic "NCK1" | u32 entry count | entries...
    entry: u32 path byte-length | UTF-8 path | u32 rank | u32 x rank dims
           | float32 payload (row-major)

Optimizer state lives in the same container under the reserved ``opt/``
path prefix: ``opt/m/<path>`` and ``opt/v/<path>`` (the moments),
``opt/t/<path>`` (that path's update count, a one-element entry), and the
one-element ``opt/step`` (the number of optimizer calls).  Containers
written before per-path counts existed have no ``opt/t/`` entries; their
``opt/step`` then stands for the count of every path with moments.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .autograd import NonFiniteError
from .tensor import ParameterSet, Tensor

CHECKPOINT_MAGIC = b"NCK1"
OPT_PREFIX = "opt/"


@dataclass
class OptimizerState:
    """First/second Adam moments and an update count per parameter.

    ``step`` counts optimizer calls.  ``t`` maps each path to the number
    of updates that path has taken, which is what bias correction uses:
    a path first updated after k frozen calls takes a step-1 update, as
    in Kingma & Ba (2015).  Without ``t``, every path with moments is
    taken to have been updated on every one of the ``step`` calls.
    """

    m: ParameterSet = field(default_factory=ParameterSet)
    v: ParameterSet = field(default_factory=ParameterSet)
    step: int = 0
    t: dict | None = None

    def __post_init__(self):
        if self.t is None:
            self.t = {path: self.step for path in self.m}

    @classmethod
    def initial(cls, params: ParameterSet) -> "OptimizerState":
        return cls(m=params.zeros_like(), v=params.zeros_like(), step=0)


def adamw_step(
    params: ParameterSet,
    grads: ParameterSet,
    state: OptimizerState,
    lr: float = 5e-4,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> tuple[ParameterSet, OptimizerState]:
    """One bias-corrected Adam update with decoupled weight decay.

    Decay is applied to the parameter directly (p -= lr * wd * p), not
    mixed into the gradient.  Every path in ``params`` must appear in
    ``grads`` and in the state moments; extra grad/state paths are an
    error too, so silent partial updates can't happen.  An update or a
    moment that is not finite in float32 raises NonFiniteError naming the
    parameter path.
    """
    missing_g = [p for p in params if p not in grads]
    extra_g = [p for p in grads if p not in params]
    if missing_g or extra_g:
        raise KeyError(
            f"param/grad path mismatch: missing grads {missing_g}, unmatched grads {extra_g}"
        )
    missing_s = [p for p in params if p not in state.m or p not in state.v or p not in state.t]
    if missing_s:
        raise KeyError(f"optimizer state lacks moments or counts for paths {missing_s}")

    new_p, new_m, new_v = {}, {}, {}
    new_t = dict(state.t)
    for path, p in params.items():
        g = grads[path].data
        if g.shape != p.shape:
            raise ValueError(f"grad shape {g.shape} != param shape {p.shape} at {path!r}")
        t = state.t[path] + 1
        new_t[path] = t
        m = beta1 * state.m[path].data + (1.0 - beta1) * g
        v = beta2 * state.v[path].data + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        step_vec = lr * m_hat / (np.sqrt(v_hat) + eps)
        updated = p.data - step_vec - lr * weight_decay * p.data
        try:  # Tensor rejects NaN and Inf, also after the cast to float32
            new_p[path], new_m[path], new_v[path] = Tensor(updated), Tensor(m), Tensor(v)
        except ValueError as e:
            raise NonFiniteError(f"non-finite AdamW update for parameter {path!r}") from e

    # moments for paths outside this update (e.g. frozen parameters) carry over
    for path, t_m in state.m.items():
        if path not in new_m:
            new_m[path] = t_m
            new_v[path] = state.v[path]

    return ParameterSet(new_p), OptimizerState(
        ParameterSet(new_m), ParameterSet(new_v), state.step + 1, new_t
    )


def halved_lr(base_lr: float, epoch: int, every: int = 10, factor: float = 0.5) -> float:
    """Step-decay schedule: multiply by ``factor`` once per ``every`` epochs."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return base_lr * factor ** (epoch // every)


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------


def _write_entry(fh, path: str, arr: np.ndarray) -> None:
    raw = path.encode("utf-8")
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)
    fh.write(struct.pack("<I", arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<I", dim))
    fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def save_checkpoint(path, params: ParameterSet, state: OptimizerState | None = None) -> None:
    """Write parameters (and optionally optimizer state) to one container."""
    for p in params:
        if p.startswith(OPT_PREFIX):
            raise ValueError(f"parameter path {p!r} collides with reserved prefix {OPT_PREFIX!r}")
    entries: list[tuple[str, np.ndarray]] = [(k, t.data) for k, t in params.items()]
    if state is not None:
        for k, t in state.m.items():
            entries.append((OPT_PREFIX + "m/" + k, t.data))
        for k, t in state.v.items():
            entries.append((OPT_PREFIX + "v/" + k, t.data))
        for k, n in state.t.items():
            entries.append((OPT_PREFIX + "t/" + k, np.asarray([n], dtype=np.float32)))
        entries.append((OPT_PREFIX + "step", np.asarray([state.step], dtype=np.float32)))
    entries.sort(key=lambda kv: kv[0])
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(entries)))
        for name, arr in entries:
            _write_entry(fh, name, arr)


def _read_exact(fh, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise ValueError(f"truncated checkpoint: wanted {n} bytes, got {len(buf)}")
    return buf


def load_checkpoint(path) -> tuple[ParameterSet, OptimizerState | None]:
    """Read a container written by :func:`save_checkpoint`."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"bad checkpoint magic {magic!r} (expected {CHECKPOINT_MAGIC!r})")
        (count,) = struct.unpack("<I", _read_exact(fh, 4))
        raw: dict[str, np.ndarray] = {}
        for _ in range(count):
            (plen,) = struct.unpack("<I", _read_exact(fh, 4))
            name = _read_exact(fh, plen).decode("utf-8")
            (rank,) = struct.unpack("<I", _read_exact(fh, 4))
            dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank)) if rank else ()
            n = int(np.prod(dims, dtype=np.int64)) if dims else 1
            payload = _read_exact(fh, 4 * n)
            arr = np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float32)
            if name in raw:
                raise ValueError(f"duplicate checkpoint entry {name!r}")
            raw[name] = arr
        trailing = fh.read(1)
        if trailing:
            raise ValueError("checkpoint has trailing bytes after declared entries")

    params = {k: Tensor(v) for k, v in raw.items() if not k.startswith(OPT_PREFIX)}

    def under(kind: str) -> dict:
        head = OPT_PREFIX + kind + "/"
        return {k[len(head) :]: v for k, v in raw.items() if k.startswith(head)}

    state = None
    if OPT_PREFIX + "step" in raw:
        step = int(raw[OPT_PREFIX + "step"].ravel()[0])
        t = {k: int(v.ravel()[0]) for k, v in under("t").items()} or None
        state = OptimizerState(
            ParameterSet({k: Tensor(v) for k, v in under("m").items()}),
            ParameterSet({k: Tensor(v) for k, v in under("v").items()}),
            step,
            t,
        )
    return ParameterSet(params), state
