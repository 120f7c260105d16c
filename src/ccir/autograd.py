"""Reverse-mode autodiff over numpy arrays.

Define-by-run: a program is a Python callable that receives leaf nodes for
its inputs and parameters, applies the primitives below, and returns named
output nodes including a scalar ``loss``.  The graph is rebuilt on every
call; nodes are never mutated after creation.

Primitive set: matmul by one shared matrix, elementwise add/sub/mul/div
(trailing-dim broadcasting), sigmoid, log, sqrt, softplus, constant
powers, softmax along an axis, sum/mean along an axis, concatenation,
basic slicing, row gather (embedding lookup), transpose of two axes.
The layers of the model
are fused into one node each with a hand-written backward: ``linear``
(x @ w + b), ``silu``, ``adaptive_norm`` (standardization over the last
axis with a supplied scale and shift), ``attention`` (multi-head scaled
dot-product attention over (..., L, d) tokens, which splits and merges
the heads itself) and ``gru_cell`` (one masked GRU update).
Reductions accumulate in float64 regardless of storage dtype.  A
backward function is given its node's gradient and holds the parents and
arrays it needs, never the node, so a graph holds no reference cycle and
dies with its outputs.  Under ``no_grad()`` a node keeps neither its
backward function nor its parents, and ``backward`` through it raises.

Non-differentiable selections (argmax and friends) are deliberately
absent: programs that need a hard selection cannot be expressed, which is
the intended rejection.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Mapping

import numpy as np

from .tensor import ParameterSet, Tensor

_recording = True  # False inside no_grad()


class ShapeError(ValueError):
    """Operand shapes incompatible for a primitive."""


class NonFiniteError(ArithmeticError):
    """A primitive produced NaN or Inf; message carries the node path."""


class GraphError(ValueError):
    """Malformed program (missing or non-scalar loss, bad operand rank)."""


class Node:
    """One value in the computation graph."""

    __slots__ = ("value", "op", "parents", "grad", "_backward", "__weakref__")

    def __init__(self, value: np.ndarray, op: str = "leaf", parents: tuple = ()):
        self.value = value
        self.op = op
        self.parents = parents
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def argmax(self, axis=None):
        raise GraphError(
            "argmax is a hard selection and has no gradient; "
            "it is not part of the differentiable primitive set"
        )

    # operator sugar; scalars and arrays are lifted to constants
    def __add__(self, other):
        return add(self, _lift(other, self))

    def __radd__(self, other):
        return add(_lift(other, self), self)

    def __sub__(self, other):
        return sub(self, _lift(other, self))

    def __rsub__(self, other):
        return sub(_lift(other, self), self)

    def __mul__(self, other):
        return mul(self, _lift(other, self))

    def __rmul__(self, other):
        return mul(_lift(other, self), self)

    def __truediv__(self, other):
        return div(self, _lift(other, self))

    def __rtruediv__(self, other):
        return div(_lift(other, self), self)

    def __neg__(self):
        return mul(self, _lift(-1.0, self))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, index):
        return getitem(self, index)

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.shape})"


def leaf(values, dtype=None) -> Node:
    """Graph leaf from an array, Tensor, or scalar."""
    if isinstance(values, Tensor) and dtype is None:  # float32, finite, read-only
        return Node(values.data)
    arr = np.asarray(values.data if isinstance(values, Tensor) else values)
    if dtype is not None:
        arr = arr.astype(dtype)
    elif not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float32)
    return Node(arr)


def _lift(other, like: Node) -> Node:
    if isinstance(other, Node):
        return other
    return Node(np.asarray(other, dtype=like.value.dtype))


def _node_path(node: Node, depth: int = 8) -> str:
    parts = []
    cur: Node | None = node
    while cur is not None and depth > 0:
        parts.append(cur.op)
        cur = cur.parents[0] if cur.parents else None
        depth -= 1
    return " <- ".join(parts)


@contextlib.contextmanager
def no_grad():
    """Nodes built inside keep no backward graph; it nests, and restores on any exit."""
    global _recording
    old, _recording = _recording, False
    try:
        yield
    finally:
        _recording = old


def _finish(out: Node, backward: Callable[[np.ndarray], None]) -> Node:
    if not np.isfinite(out.value).all():
        raise NonFiniteError(
            f"non-finite values from primitive '{out.op}' (path: {_node_path(out)})"
        )
    out._backward = backward
    if not _recording:  # drop the closure, and the arrays it holds, here
        out.parents, out._backward = (), None
    return out


def _accum(node: Node, g: np.ndarray) -> None:
    # the first gradient is taken as is; it may be a view, so later ones
    # are added out of place
    node.grad = g if node.grad is None else node.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to ``shape`` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.astype(np.result_type(g.dtype), copy=False)


def _check_broadcast(op: str, a: Node, b: Node) -> None:
    sa, sb = a.value.shape, b.value.shape
    if sa == sb:
        return
    for x, y in zip(reversed(sa), reversed(sb)):
        if x != y and x != 1 and y != 1:
            raise ShapeError(f"{op}: shapes {sa} and {sb} do not broadcast")


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a: Node, b: Node) -> Node:
    _check_broadcast("add", a, b)
    out = Node(a.value + b.value, "add", (a, b))

    def backward(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _finish(out, backward)


def sub(a: Node, b: Node) -> Node:
    _check_broadcast("sub", a, b)
    out = Node(a.value - b.value, "sub", (a, b))

    def backward(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(-g, b.shape))

    return _finish(out, backward)


def mul(a: Node, b: Node) -> Node:
    _check_broadcast("mul", a, b)
    out = Node(a.value * b.value, "mul", (a, b))

    def backward(g):
        _accum(a, _unbroadcast(g * b.value, a.shape))
        _accum(b, _unbroadcast(g * a.value, b.shape))

    return _finish(out, backward)


def div(a: Node, b: Node) -> Node:
    _check_broadcast("div", a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = Node(a.value / b.value, "div", (a, b))

    def backward(g):
        _accum(a, _unbroadcast(g / b.value, a.shape))
        _accum(b, _unbroadcast(-g * a.value / (b.value * b.value), b.shape))

    return _finish(out, backward)


# ---------------------------------------------------------------------------
# matmul and transpose
# ---------------------------------------------------------------------------


def matmul(a: Node, b: Node) -> Node:
    """a @ b for one matrix ``b`` shared by every row of ``a`` (any leading
    axes, 1-D included): a single GEMM over all the rows, whose ``b``
    gradient sums over them."""
    av, bv = a.value, b.value
    if av.ndim < 1 or bv.ndim != 2:
        raise ShapeError(f"matmul: need a >= 1-D and b 2-D, got {av.shape} @ {bv.shape}")
    if av.shape[-1] != bv.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {av.shape} @ {bv.shape}")
    rows = av.reshape(-1, av.shape[-1])
    out = Node((rows @ bv).reshape(av.shape[:-1] + bv.shape[1:]), "matmul", (a, b))

    def backward(g):
        g = g.reshape(-1, g.shape[-1])
        _accum(a, (g @ bv.T).reshape(av.shape))
        _accum(b, rows.T @ g)

    return _finish(out, backward)


def reshape(a: Node, shape) -> Node:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.value.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    out = Node(a.value.reshape(shape), "reshape", (a,))

    def backward(g):
        _accum(a, g.reshape(a.value.shape))

    return _finish(out, backward)


def transpose(a: Node, axis1: int = -2, axis2: int = -1) -> Node:
    """Swap two axes; by default the last two (the matrix transpose of
    each example)."""
    try:
        val = np.swapaxes(a.value, axis1, axis2)
    except ValueError as e:
        raise ShapeError(f"transpose: {e} (shape {a.shape})") from None
    out = Node(val, "transpose", (a,))

    def backward(g):
        _accum(a, np.swapaxes(g, axis1, axis2))

    return _finish(out, backward)


# ---------------------------------------------------------------------------
# pointwise nonlinearities
# ---------------------------------------------------------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) as 0.5 * (1 + tanh(x / 2)): one transcendental
    pass that cannot overflow and gives exactly 0.5 at 0.  Its absolute
    error is at storage precision, but far tails round to 0 or 1, so a
    log of it goes through ``softplus`` instead."""
    s = np.tanh(x * 0.5)
    s += 1.0
    s *= 0.5
    return s


def sigmoid(a: Node) -> Node:
    val = _sigmoid(a.value)

    def backward(g):
        _accum(a, g * val * (1.0 - val))

    return _finish(Node(val, "sigmoid", (a,)), backward)


def silu(a: Node) -> Node:
    """x * sigmoid(x)."""
    x = a.value
    s = _sigmoid(x)

    def backward(g):
        ds = 1.0 - s  # d silu / dx = s * (1 + x * (1 - s))
        ds *= x
        ds += 1.0
        ds *= s
        ds *= g
        _accum(a, ds)

    return _finish(Node(x * s, "silu", (a,)), backward)


def log(a: Node) -> Node:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = Node(np.log(a.value), "log", (a,))

    def backward(g):
        _accum(a, g / a.value)

    return _finish(out, backward)


def sqrt(a: Node) -> Node:
    with np.errstate(invalid="ignore"):
        val = np.sqrt(a.value)

    def backward(g):
        _accum(a, g * 0.5 / val)

    return _finish(Node(val, "sqrt", (a,)), backward)


def softplus(a: Node) -> Node:
    """log(1 + exp(x)), evaluated stably for large |x|."""
    out = Node(np.logaddexp(0.0, a.value).astype(a.value.dtype, copy=False), "softplus", (a,))

    def backward(g):
        _accum(a, g * _sigmoid(a.value))

    return _finish(out, backward)


def powc(a: Node, p: float) -> Node:
    """Elementwise power with a constant, non-negative exponent."""
    p = float(p)
    if p < 0:
        raise GraphError(f"powc: exponent must be non-negative, got {p}")
    out = Node(np.power(a.value, p), "powc", (a,))

    def backward(g):
        if p == 0.0:
            return
        if p == 1.0:
            _accum(a, g)
        else:
            _accum(a, g * p * np.power(a.value, p - 1.0))

    return _finish(out, backward)


# ---------------------------------------------------------------------------
# softmax and reductions
# ---------------------------------------------------------------------------


def softmax(a: Node, axis: int) -> Node:
    x = a.value
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = (e / e.sum(axis=axis, keepdims=True)).astype(x.dtype, copy=False)

    def backward(g):
        _accum(a, y * (g - (g * y).sum(axis=axis, keepdims=True)))

    return _finish(Node(y, "softmax", (a,)), backward)


def _restore_axes(g: np.ndarray, axis, keepdims: bool) -> np.ndarray:
    if keepdims or axis is None:
        return g
    return np.expand_dims(g, axis)


def sum_(a: Node, axis: int | None = None, keepdims: bool = False) -> Node:
    val = a.value.sum(axis=axis, keepdims=keepdims, dtype=np.float64)
    out = Node(val.astype(a.value.dtype), "sum", (a,))

    def backward(g):
        g = _restore_axes(g, axis, keepdims)
        _accum(a, np.broadcast_to(g, a.shape).astype(a.value.dtype, copy=False))

    return _finish(out, backward)


def mean(a: Node, axis: int | None = None, keepdims: bool = False) -> Node:
    val = a.value.mean(axis=axis, keepdims=keepdims, dtype=np.float64)
    out = Node(np.asarray(val).astype(a.value.dtype), "mean", (a,))
    n = a.value.size if axis is None else a.shape[axis]

    def backward(g):
        g = _restore_axes(g, axis, keepdims)
        _accum(a, np.broadcast_to(g / n, a.shape).astype(a.value.dtype, copy=False))

    return _finish(out, backward)


# ---------------------------------------------------------------------------
# structure: concat, slicing, gather
# ---------------------------------------------------------------------------


def concat(nodes, axis: int = 0) -> Node:
    nodes = list(nodes)
    if not nodes:
        raise ShapeError("concat: need at least one operand")
    ranks = {n.value.ndim for n in nodes}
    if len(ranks) != 1:
        raise ShapeError(f"concat: mixed ranks {sorted(ranks)}")
    try:
        val = np.concatenate([n.value for n in nodes], axis=axis)
    except ValueError as e:
        raise ShapeError(f"concat: {e}") from None
    out = Node(val, "concat", tuple(nodes))
    sizes = [n.shape[axis] for n in nodes]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for n, start, stop in zip(nodes, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * val.ndim
            idx[axis] = slice(start, stop)
            _accum(n, g[tuple(idx)])

    return _finish(out, backward)


def getitem(a: Node, index) -> Node:
    val = a.value[index]
    if np.isscalar(val) or val.ndim == 0:
        val = np.asarray(val)
    out = Node(val, "slice", (a,))

    def backward(g):
        buf = np.zeros_like(a.value)
        buf[index] = g
        _accum(a, buf)

    return _finish(out, backward)


def gather_rows(table: Node, ids) -> Node:
    """Embedding lookup: rows of a 2-D table selected by integer ids of any
    shape; the result is ids.shape + (row width,)."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.value.ndim != 2:
        raise ShapeError(f"gather_rows: table must be 2-D, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"gather_rows: id out of range [0, {table.shape[0]}) in {ids.tolist()}"
        )
    out = Node(table.value[ids], "gather", (table,))

    def backward(g):
        buf = np.zeros_like(table.value)
        np.add.at(buf, ids, g)
        _accum(table, buf)

    return _finish(out, backward)


# ---------------------------------------------------------------------------
# fused layers: one node each, with an analytic backward
# ---------------------------------------------------------------------------


def linear(x: Node, w: Node, b: Node) -> Node:
    """x @ w + b for a (fan_in, fan_out) weight and a (fan_out,) bias; x
    has any leading axes, and all its rows go through one GEMM."""
    xv, wv, bv = x.value, w.value, b.value
    if wv.ndim != 2 or xv.ndim < 1 or xv.shape[-1] != wv.shape[0] or bv.shape != wv.shape[1:]:
        raise ShapeError(f"linear: x {xv.shape}, w {wv.shape}, b {bv.shape} do not fit")
    rows = xv.reshape(-1, xv.shape[-1])
    y = (rows @ wv).astype(np.result_type(xv, wv, bv), copy=False)
    y += bv
    out = Node(y.reshape(xv.shape[:-1] + bv.shape), "linear", (x, w, b))

    def backward(g):
        g = g.reshape(-1, g.shape[-1])
        _accum(x, (g @ wv.T).reshape(xv.shape))
        _accum(w, rows.T @ g)
        # a GEMV with ones sums the rows several times faster than sum(axis=0)
        _accum(b, np.ones(len(g), g.dtype) @ g)

    return _finish(out, backward)


def adaptive_norm(x: Node, mu: Node, sigma: Node, eps: float) -> Node:
    """sigma * (x - mean) / sqrt(var + eps) + mu, the mean and population
    variance taken over the last axis of x and accumulated in float64;
    mu and sigma broadcast against x."""
    _check_broadcast("adaptive_norm", x, mu)
    _check_broadcast("adaptive_norm", x, sigma)
    xv = x.value
    x64 = xv.astype(np.float64)
    m64 = x64.mean(axis=-1, keepdims=True)
    x64 -= m64
    var = np.square(x64, out=x64).mean(axis=-1, keepdims=True)
    with np.errstate(over="ignore"):  # an inf cast surfaces as NonFiniteError
        sd = np.sqrt(var.astype(xv.dtype) + eps)
    xhat = xv - m64.astype(xv.dtype)
    xhat /= sd
    sv = sigma.value
    out = Node(sv * xhat + mu.value, "adaptive_norm", (x, mu, sigma))

    def backward(g):
        _accum(mu, _unbroadcast(g, mu.shape))
        _accum(sigma, _unbroadcast(g * xhat, sigma.shape))
        gx = g * sv
        gx_xhat = (gx * xhat).mean(axis=-1, keepdims=True)
        gx -= gx.mean(axis=-1, keepdims=True)
        gx -= xhat * gx_xhat
        gx /= sd
        _accum(x, gx)

    return _finish(out, backward)


def attention(q: Node, k: Node, v: Node, n_heads: int, mask=None) -> Node:
    """Multi-head scaled dot-product attention over tokens.

    q: (..., Lq, d), k and v: (..., Lk, d), already projected, with equal
    leading axes; each leading index attends over its own tokens.  The
    width splits into ``n_heads`` heads of d / n_heads columns, each
    scaled by 1 / sqrt(d / n_heads), and the heads merge back into
    (..., Lq, d).  ``mask`` is a constant array broadcastable to the
    (..., Lq, Lk) logits of every head, added to them in their dtype (0
    for a live key, -1e9 for a padded one)."""
    qv, kv, vv = q.value, k.value, v.value
    if (qv.ndim < 2 or kv.shape != vv.shape
            or qv.shape[:-2] + qv.shape[-1:] != kv.shape[:-2] + kv.shape[-1:]):
        raise ShapeError(f"attention: q {qv.shape}, k {kv.shape}, v {vv.shape} do not fit")
    if n_heads < 1 or qv.shape[-1] % n_heads:
        raise ShapeError(f"attention: width {qv.shape[-1]} not divisible by {n_heads} heads")
    dh = qv.shape[-1] // n_heads
    scale = 1.0 / math.sqrt(dh)

    def heads(x):  # (..., L, d) -> (..., n_heads, L, dh)
        return np.swapaxes(x.reshape(x.shape[:-1] + (n_heads, dh)), -3, -2)

    def merge(x, like):  # (..., n_heads, L, dh) -> (..., L, d)
        return np.swapaxes(x, -3, -2).reshape(like.shape)

    qh, kh, vh = heads(qv), heads(kv), heads(vv)
    p = qh @ np.swapaxes(kh, -1, -2)
    p *= scale
    if mask is not None:
        p += np.expand_dims(mask, -3)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = Node(merge(p @ vh, qv), "attention", (q, k, v))

    def backward(g):
        g = heads(g)
        _accum(v, merge(np.swapaxes(p, -1, -2) @ g, vv))
        gs = g @ np.swapaxes(vh, -1, -2)
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= scale
        _accum(q, merge(gs @ kh, qv))
        _accum(k, merge(np.swapaxes(gs, -1, -2) @ qh, kv))

    return _finish(out, backward)


def gru_cell(x: Node, h: Node, w: tuple, u: tuple, b: tuple, live) -> Node:
    """One gated recurrent update of the state h (N, H) from the input
    x (N, in).  ``w``, ``u`` and ``b`` each hold the reset, update and
    candidate gates' weights, in that order: (in, H), (H, H) and (H,).
    Rows where the constant ``live`` (N,) is false keep h as it is.  The
    result takes the dtype numpy promotes the operands to, so a float32
    initial state does not truncate a float64 graph."""
    xv, hv = x.value, h.value
    hid = hv.shape[-1]
    wv = np.concatenate([t.value for t in w], axis=1)
    uv = np.concatenate([t.value for t in u], axis=1)
    bv = np.concatenate([t.value for t in b])
    if xv.ndim != 2 or wv.shape != (xv.shape[1], 3 * hid) or uv.shape != (hid, 3 * hid):
        raise ShapeError(f"gru_cell: x {xv.shape}, h {hv.shape}, w {wv.shape}, u {uv.shape}")
    ax, ah = xv @ wv, hv @ uv
    rz = _sigmoid(ax[:, : 2 * hid] + ah[:, : 2 * hid] + bv[: 2 * hid])
    r, z = rz[:, :hid], rz[:, hid:]
    hn = ah[:, 2 * hid :]
    n = np.tanh(ax[:, 2 * hid :] + r * hn + bv[2 * hid :])
    keep = np.asarray(live, dtype=bool)[:, None]
    out = Node(np.where(keep, (1.0 - z) * n + z * hv, hv), "gru_cell", (x, h) + w + u + b)

    def backward(g):
        gn = np.where(keep, g, 0.0)
        da_n = gn * (1.0 - z) * (1.0 - n * n)
        da_r = da_n * hn * r * (1.0 - r)
        da_z = gn * (hv - n) * z * (1.0 - z)
        da = np.concatenate([da_r, da_z, da_n], axis=1)
        dah = np.concatenate([da_r, da_z, da_n * r], axis=1)
        _accum(x, da @ wv.T)
        _accum(h, np.where(keep, g * z, g) + dah @ uv.T)
        gw, gu, gb = xv.T @ da, hv.T @ dah, da.sum(axis=0)
        for i in range(3):
            cols = slice(i * hid, (i + 1) * hid)
            _accum(w[i], gw[:, cols])
            _accum(u[i], gu[:, cols])
            _accum(b[i], gb[cols])

    return _finish(out, backward)


# ---------------------------------------------------------------------------
# program execution
# ---------------------------------------------------------------------------

Program = Callable[[dict[str, Node], dict[str, Node]], dict[str, Node]]


def _toposort(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Node) -> None:
    """Run reverse-mode accumulation from a scalar loss node, dropping each
    backward function (and the arrays it holds) once it has run."""
    if loss.value.size != 1:
        raise GraphError(f"backward: loss must be scalar, got shape {loss.shape}")
    order = _toposort(loss)
    if any(not node.parents and node.op != "leaf" for node in order):
        raise GraphError("backward: the graph holds a node built under no_grad()")
    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        fn, node._backward = node._backward, None
        if fn is not None and node.grad is not None:
            fn(node.grad)


def run_program(
    program: Program,
    inputs: Mapping[str, Tensor | np.ndarray],
    params: ParameterSet,
    dtype=np.float32,
) -> tuple[dict[str, Node], dict[str, Node]]:
    """Build the graph once; returns (outputs, param leaf nodes)."""
    in_nodes = {k: leaf(v, dtype=dtype) for k, v in inputs.items()}
    param_nodes = {k: leaf(v, dtype=dtype) for k, v in params.items()}
    outputs = program(in_nodes, param_nodes)
    if not isinstance(outputs, dict):
        raise GraphError("program must return a dict of named output nodes")
    return outputs, param_nodes


def forward_backward(
    program: Program,
    inputs: Mapping[str, Tensor | np.ndarray],
    params: ParameterSet,
) -> tuple[dict[str, Tensor], ParameterSet]:
    """Evaluate a program and return outputs plus d(loss)/d(param).

    Parameters never touched by the loss get zero gradients.  A gradient
    that is not finite in float32 raises NonFiniteError naming its path.
    """
    outputs, param_nodes = run_program(program, inputs, params)
    if "loss" not in outputs:
        raise GraphError(f"program outputs {sorted(outputs)} lack 'loss'")
    backward(outputs["loss"])
    grads = {}
    for path, node in param_nodes.items():
        if node.grad is None:
            grads[path] = Tensor.zeros(node.shape)
            continue
        try:  # Tensor rejects NaN and Inf, also after the cast to float32
            grads[path] = Tensor(node.grad.astype(np.float32))
        except ValueError as e:
            raise NonFiniteError(f"non-finite gradient for parameter {path!r}") from e
    out_tensors = {k: Tensor(v.value.astype(np.float32)) for k, v in outputs.items()}
    return out_tensors, ParameterSet(grads)


def grad_check(
    program: Program,
    inputs: Mapping[str, Tensor | np.ndarray],
    params: ParameterSet,
    epsilon: float = 1e-4,
    floor: float = 1e-6,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Both sides are evaluated in float64: the analytic pass runs the whole
    graph at float64, and each parameter entry is perturbed by +/- epsilon
    for the central difference.  Relative error divides by
    max(|analytic|, |fd|, floor).  The floor reflects the resolution of
    central differences themselves: the difference quotient carries an
    absolute error of roughly eps64^(2/3)*|loss| (~1e-10 for O(1) losses),
    so deviations a few decades above that are the finest the method can
    certify; gradients below the floor (dead branches, saturated paths)
    are checked in absolute rather than relative terms.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    outputs, param_nodes = run_program(program, inputs, params, dtype=np.float64)
    if "loss" not in outputs:
        raise GraphError(f"program outputs {sorted(outputs)} lack 'loss'")
    loss_node = outputs["loss"]
    if loss_node.value.size != 1:
        raise GraphError(f"grad_check: loss must be scalar, got shape {loss_node.shape}")
    backward(loss_node)
    analytic = {
        path: (node.grad if node.grad is not None else np.zeros_like(node.value))
        for path, node in param_nodes.items()
    }

    base = {path: t.data.astype(np.float64) for path, t in params.items()}
    fixed_inputs = {
        k: (v.data if isinstance(v, Tensor) else np.asarray(v)).astype(np.float64)
        for k, v in inputs.items()
    }

    def eval_loss(arrays: dict[str, np.ndarray]) -> float:
        in_nodes = {k: Node(v) for k, v in fixed_inputs.items()}
        p_nodes = {k: Node(v) for k, v in arrays.items()}
        out = program(in_nodes, p_nodes)
        return float(out["loss"].value)

    max_err = 0.0
    for path, arr in base.items():
        flat = arr.ravel()
        g_flat = analytic[path].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            f_plus = eval_loss(base)
            flat[i] = orig - epsilon
            f_minus = eval_loss(base)
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * epsilon)
            err = abs(g_flat[i] - fd) / max(floor, abs(g_flat[i]), abs(fd))
            if err > max_err:
                max_err = err
    return max_err
