import gc
import weakref
import zlib

import numpy as np
import pytest

from ccir import ParameterSet, Tensor
from ccir import autograd as ag
from ccir.alignment import asymmetric_loss_node


def test_linear_program_gradient():
    # y = x . w with x=[1,2], w=[[1],[1]] -> y=[3], dL/dw = [[1],[2]] for L=sum(y)
    def program(inputs, params):
        y = ag.matmul(inputs["x"], params["w"])
        return {"y": y, "loss": ag.sum_(y)}

    outs, grads = ag.forward_backward(
        program, {"x": Tensor([1.0, 2.0])}, ParameterSet({"w": Tensor([[1.0], [1.0]])})
    )
    assert outs["y"].tolist() == [3.0]
    assert grads["w"].tolist() == [[1.0], [2.0]]


def test_sigmoid_at_zero():
    # loss = sum(sigmoid(x)), x=[0] -> loss 0.5, grad 0.25
    def program(inputs, params):
        return {"loss": ag.sum_(ag.sigmoid(params["x"]))}

    outs, grads = ag.forward_backward(program, {}, ParameterSet({"x": Tensor([0.0])}))
    assert abs(float(outs["loss"].data.item()) - 0.5) < 1e-7
    assert abs(float(grads["x"].data[0]) - 0.25) < 1e-7


def test_sigmoid_tails_stay_finite_and_accurate():
    x = np.array([-30.0, -17.0, 0.0, 17.0, 30.0], np.float32)
    y = ag.sigmoid(ag.leaf(x)).value
    assert np.isfinite(y).all() and (y >= 0.0).all() and (y <= 1.0).all()
    assert y[2] == 0.5
    want = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
    assert np.abs(y - want).max() <= 1e-7

    # the asymmetric loss reads log sigmoid through softplus, so saturated
    # logits give a finite loss and finite gradients
    labels = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]], np.float32)

    def program(inputs, params):
        return {"loss": asymmetric_loss_node(params["s"], labels, 1.0, 4.0)}

    logits = Tensor(np.array([[-30.0, 30.0, 30.0, -30.0], [30.0, -30.0, -30.0, 30.0]]))
    outs, grads = ag.forward_backward(program, {}, ParameterSet({"s": logits}))
    assert np.isfinite(outs["loss"].data).all()
    assert float(outs["loss"].data) > 50.0
    assert np.isfinite(grads["s"].data).all()


def test_unreachable_param_gets_zero_grad():
    def program(inputs, params):
        return {"loss": ag.sum_(params["used"] * params["used"])}

    _, grads = ag.forward_backward(
        program,
        {},
        ParameterSet({"used": Tensor([3.0]), "unused": Tensor([[1.0, 2.0], [3.0, 4.0]])}),
    )
    assert grads["unused"].shape == (2, 2)
    assert np.all(grads["unused"].data == 0.0)
    assert grads["used"].tolist() == [6.0]


def test_forward_backward_deterministic():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(4, 3)).astype(np.float32))
    w = Tensor(rng.normal(size=(3, 2)).astype(np.float32))

    def program(inputs, params):
        h = ag.sigmoid(ag.matmul(inputs["x"], params["w"]))
        return {"loss": ag.sum_(h * h)}

    o1, g1 = ag.forward_backward(program, {"x": x}, ParameterSet({"w": w}))
    o2, g2 = ag.forward_backward(program, {"x": x}, ParameterSet({"w": w}))
    assert o1["loss"] == o2["loss"]
    assert g1["w"] == g2["w"]


def test_missing_loss_output_raises():
    def program(inputs, params):
        return {"y": params["w"] * params["w"]}

    with pytest.raises(ag.GraphError):
        ag.forward_backward(program, {}, ParameterSet({"w": Tensor([1.0])}))


def test_shape_mismatch_names_primitive():
    def program(inputs, params):
        return {"loss": ag.sum_(ag.matmul(params["a"], params["b"]))}

    with pytest.raises(ag.ShapeError, match="matmul"):
        ag.forward_backward(
            program,
            {},
            ParameterSet({"a": Tensor.zeros((2, 3)), "b": Tensor.zeros((4, 2))}),
        )


def test_nonfinite_intermediate_diagnostic():
    def program(inputs, params):
        return {"loss": ag.sum_(ag.log(params["x"]))}

    with pytest.raises(ag.NonFiniteError, match="log"):
        ag.forward_backward(program, {}, ParameterSet({"x": Tensor([0.0])}))


def test_nonfinite_gradient_names_parameter():
    # d sqrt(x)/dx at 0 is inf: the forward value is finite, the gradient is not
    def program(inputs, params):
        return {"loss": ag.sum_(ag.sqrt(params["enc/w"]))}

    with pytest.raises(ag.NonFiniteError, match="enc/w"):
        ag.forward_backward(program, {}, ParameterSet({"enc/w": Tensor([0.0, 1.0])}))


def test_no_grad_keeps_no_graph():
    """Under no_grad() a node keeps no parents and no backward, so an
    intermediate dies once the next op has read it; the values equal a
    recorded build's, and backward() raises."""
    x = ag.leaf(np.arange(6, dtype=np.float32).reshape(3, 2) / 6)
    w = ag.leaf(np.full((2, 4), 0.5, np.float32))

    def build(refs):
        h = ag.matmul(x, w)
        refs.append(weakref.ref(h))
        return ag.sum_(ag.sigmoid(h) * h)

    enabled = gc.isenabled()
    gc.disable()
    try:
        refs = []
        want = build(refs)
        assert refs[0]() is not None
        with ag.no_grad():
            with ag.no_grad():
                got = build(refs)
            assert build(refs).parents == ()
        assert refs[1]() is None and refs[2]() is None
    finally:
        if enabled:
            gc.enable()
    assert got.parents == () and got.value.tobytes() == want.value.tobytes()
    with pytest.raises(ag.GraphError, match="no_grad"):
        ag.backward(got)
    ag.backward(want)
    assert w.grad is not None


def test_no_grad_restores_recording_after_nonfinite():
    """An overflow inside no_grad() still raises NonFiniteError naming the
    primitive; with parents dropped, the path stops at its direct input.
    Recording is back on afterwards, and a training pass gets gradients."""
    x = ag.leaf(np.full((1, 2), 3e38, np.float32))
    w = ag.leaf(np.eye(2, dtype=np.float32))
    with pytest.raises(ag.NonFiniteError, match=r"primitive 'add' \(path: add <- matmul\)"):
        with ag.no_grad():
            h = ag.matmul(x, w)
            ag.add(h, h)
    with pytest.raises(ag.NonFiniteError, match=r"path: add <- matmul <- leaf"):
        h = ag.matmul(x, w)
        ag.add(h, h)

    def program(inputs, params):
        return {"loss": ag.sum_(params["w"] * params["w"])}

    _, grads = ag.forward_backward(program, {}, ParameterSet({"w": Tensor([1.0, -2.0])}))
    np.testing.assert_array_equal(grads["w"].data, [2.0, -4.0])


def test_graph_is_freed_without_the_collector():
    """No node sits in a reference cycle: with the collector off, an
    interior node dies as soon as the outputs are released."""

    def program(inputs, params):
        h = ag.sigmoid(ag.matmul(inputs["x"], params["w"]))
        y = ag.softmax(ag.sigmoid(h) * h, axis=1)
        refs.append(weakref.ref(h))
        return {"y": y, "loss": ag.sum_(ag.sqrt(1.0 + y * y))}

    x = Tensor(np.ones((3, 2), np.float32))
    params = ParameterSet({"w": Tensor(np.full((2, 4), 0.5, np.float32))})
    enabled = gc.isenabled()
    gc.disable()
    try:
        refs = []
        outs, grads = ag.forward_backward(program, {"x": x}, params)
        assert refs[0]() is None
        refs = []
        outs, nodes = ag.run_program(program, {"x": x}, params)
        assert refs[0]() is not None
        del outs, nodes
        assert refs[0]() is None
    finally:
        if enabled:
            gc.enable()


def test_argmax_is_rejected():
    node = ag.leaf([1.0, 2.0])
    with pytest.raises(ag.GraphError, match="argmax"):
        node.argmax()


def test_softmax_sums_to_one_and_shift_invariant():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(scale=3.0, size=(5, 7)).astype(np.float32)
        y = ag.softmax(ag.leaf(x), axis=1).value
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-6)
        y_shift = ag.softmax(ag.leaf(x + 11.25), axis=1).value
        np.testing.assert_allclose(y, y_shift, atol=1e-6)


def test_gradient_linearity():
    # grad of a*f + b*g == a*grad(f) + b*grad(g) for scalar programs
    rng = np.random.default_rng(3)
    w0 = Tensor(rng.normal(size=(4,)).astype(np.float32))
    a_const, b_const = 1.7, -0.6

    def f_prog(inputs, params):
        return {"loss": ag.sum_(ag.sigmoid(params["w"]))}

    def g_prog(inputs, params):
        return {"loss": ag.sum_(params["w"] * params["w"] * params["w"])}

    def combo(inputs, params):
        f = ag.sum_(ag.sigmoid(params["w"]))
        g = ag.sum_(params["w"] * params["w"] * params["w"])
        return {"loss": a_const * f + b_const * g}

    ps = ParameterSet({"w": w0})
    _, gf = ag.forward_backward(f_prog, {}, ps)
    _, gg = ag.forward_backward(g_prog, {}, ps)
    _, gc = ag.forward_backward(combo, {}, ps)
    expect = a_const * gf["w"].data + b_const * gg["w"].data
    np.testing.assert_allclose(gc["w"].data, expect, atol=1e-5)


def test_grad_check_linear_is_tiny():
    def program(inputs, params):
        return {"loss": ag.sum_(ag.matmul(inputs["x"], params["w"]))}

    err = ag.grad_check(
        program,
        {"x": Tensor([1.0, 2.0])},
        ParameterSet({"w": Tensor([[1.0], [1.0]])}),
        epsilon=1e-3,
    )
    assert err <= 1e-6


def test_grad_check_rejects_nonscalar():
    def program(inputs, params):
        return {"loss": params["w"] * params["w"]}

    with pytest.raises(ag.GraphError):
        ag.grad_check(program, {}, ParameterSet({"w": Tensor([1.0, 2.0])}), epsilon=1e-4)

    with pytest.raises(ValueError):
        ag.grad_check(program, {}, ParameterSet({"w": Tensor([1.0])}), epsilon=0.0)


def _check_primitive(build, shapes, points=10, seed=0, tol=1e-3, scale=0.8):
    """grad_check a single-primitive program at several random points."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(points):
        params = ParameterSet(
            {f"p{i}": Tensor(rng.uniform(-scale, scale, size=s).astype(np.float32) + 1.5 * (s is None))
             for i, s in enumerate(shapes)}
        )
        err = ag.grad_check(build, {}, params, epsilon=1e-4)
        worst = max(worst, err)
    assert worst <= tol, f"max relative error {worst:.3e} > {tol}"


def test_grad_check_every_primitive():
    rng = np.random.default_rng(42)

    cases = {
        "add": lambda i, p: {"loss": ag.sum_(ag.add(p["p0"], p["p1"]) * ag.leaf(rng_w))},
        "sub": lambda i, p: {"loss": ag.sum_(ag.sub(p["p0"], p["p1"]) * ag.leaf(rng_w))},
        "mul": lambda i, p: {"loss": ag.sum_(ag.mul(p["p0"], p["p1"]))},
        "div": lambda i, p: {"loss": ag.sum_(ag.div(p["p0"], 2.0 + ag.sigmoid(p["p1"])))},
        "matmul": lambda i, p: {"loss": ag.sum_(ag.matmul(p["p0"], p["p1"]))},
        "sigmoid": lambda i, p: {"loss": ag.sum_(ag.sigmoid(p["p0"]) * ag.leaf(rng_w))},
        "log": lambda i, p: {"loss": ag.sum_(ag.log(2.0 + ag.sigmoid(p["p0"])))},
        "sqrt": lambda i, p: {"loss": ag.sum_(ag.sqrt(2.0 + ag.sigmoid(p["p0"])))},
        "softplus": lambda i, p: {"loss": ag.sum_(ag.softplus(p["p0"]) * ag.leaf(rng_w))},
        "powc": lambda i, p: {"loss": ag.sum_(ag.powc(1.5 + ag.sigmoid(p["p0"]), 3.0))},
        "softmax": lambda i, p: {"loss": ag.sum_(ag.softmax(p["p0"], axis=1) * ag.leaf(rng_w))},
        "mean": lambda i, p: {"loss": ag.sum_(ag.mean(p["p0"], axis=1) * ag.leaf(rng_col))},
        "concat": lambda i, p: {
            "loss": ag.sum_(ag.concat([p["p0"], p["p1"]], axis=1) * ag.leaf(rng_cat))
        },
        "slice": lambda i, p: {"loss": ag.sum_(p["p0"][1:3, :2] * ag.leaf(rng_sl))},
        "transpose": lambda i, p: {"loss": ag.sum_(ag.transpose(p["p0"]) * ag.leaf(rng_w.T))},
        "matmul_shared": lambda i, p: {
            "loss": ag.sum_(ag.matmul(p["p0"], p["p1"]) * ag.leaf(rng_bmm))
        },
        "transpose_batched": lambda i, p: {
            "loss": ag.sum_(ag.transpose(p["p0"]) * ag.leaf(rng_bt))
        },
        "transpose_heads": lambda i, p: {
            "loss": ag.sum_(ag.transpose(p["p0"], -3, -2) * ag.leaf(rng_th))
        },
        "adaptive_norm": lambda i, p: {
            "loss": ag.sum_(ag.adaptive_norm(p["p0"], p["p1"], p["p2"], 1e-5) * ag.leaf(rng_bt))
        },
        "adaptive_norm_rows": lambda i, p: {
            "loss": ag.sum_(ag.adaptive_norm(p["p0"], p["p1"], p["p2"], 1e-5) * ag.leaf(rng_bt))
        },
        "attention": lambda i, p: {
            "loss": ag.sum_(ag.attention(p["p0"], p["p1"], p["p2"], 2, key_pad) * ag.leaf(rng_att))
        },
        "attention_pairs": lambda i, p: {
            "loss": ag.sum_(ag.attention(p["p0"], p["p1"], p["p2"], 2) * ag.leaf(rng_pair))
        },
        "silu": lambda i, p: {"loss": ag.sum_(ag.silu(p["p0"]) * ag.leaf(rng_w))},
        "linear": lambda i, p: {
            "loss": ag.sum_(ag.linear(p["p0"], p["p1"], p["p2"]) * ag.leaf(rng_bmm))
        },
        "gru_cell": lambda i, p: {"loss": ag.sum_(two_gru_steps(p) * ag.leaf(rng_gru))},
    }

    def two_gru_steps(p):
        # a float32 initial state and mask: a cell that cast its result to
        # the state's dtype would truncate the float64 check
        h = ag.leaf(h0)
        w, u, b = (tuple(p[f"p{j}"] for j in range(first, first + 3)) for first in (1, 4, 7))
        for t in range(2):
            h = ag.gru_cell(p["p0"][t], h, w, u, b, live)
        return h

    rng = np.random.default_rng(42)
    shape_a, shape_b = (4, 3), (4, 3)
    rng_w = rng.normal(size=shape_a).astype(np.float32)
    rng_col = rng.normal(size=(4,)).astype(np.float32)
    rng_cat = rng.normal(size=(4, 6)).astype(np.float32)
    rng_sl = rng.normal(size=(2, 2)).astype(np.float32)
    rng_bmm = rng.normal(size=(2, 4, 2)).astype(np.float32)
    rng_bt = rng.normal(size=(2, 3, 4)).astype(np.float32)
    rng_th = rng.normal(size=(2, 4, 3, 2)).astype(np.float32)
    rng_att = rng.normal(size=(2, 3, 4)).astype(np.float32)
    rng_gru = rng.normal(size=(3, 4)).astype(np.float32)
    key_pad = np.zeros((2, 1, 4), np.float32)
    key_pad[1, :, 3] = -1e9
    h0 = rng.normal(size=(3, 4)).astype(np.float32)
    rng_pair = rng.normal(size=(2, 3, 2, 4)).astype(np.float32)
    live = np.array([1.0, 0.0, 1.0], np.float32)

    two_param = {"add", "sub", "mul", "div", "concat"}
    shapes_of = {
        "matmul": [(4, 3), (3, 2)],
        "matmul_shared": [(2, 4, 3), (3, 2)],
        "transpose_batched": [(2, 4, 3)],
        "transpose_heads": [(2, 3, 4, 2)],
        "adaptive_norm": [(2, 3, 4), (4,), (4,)],
        "adaptive_norm_rows": [(2, 3, 4), (2, 1, 4), (2, 1, 4)],
        "attention": [(2, 3, 4), (2, 4, 4), (2, 4, 4)],
        "attention_pairs": [(2, 3, 2, 4)] * 3,
        "linear": [(2, 4, 3), (3, 2), (2,)],
        "gru_cell": [(2, 3, 2)] + [(2, 4)] * 3 + [(4, 4)] * 3 + [(4,)] * 3,
    }
    for name, build in cases.items():
        shapes = shapes_of.get(name, [shape_a, shape_b] if name in two_param else [shape_a])
        _check_primitive(build, shapes, points=10, seed=zlib.crc32(name.encode()))


def test_gather_rows_grad_and_bounds():
    ids = np.array([0, 2, 2, 1])

    def program(inputs, params):
        rows = ag.gather_rows(params["table"], ids)
        return {"loss": ag.sum_(rows * rows)}

    table = Tensor(np.arange(9, dtype=np.float32).reshape(3, 3) / 10.0)
    err = ag.grad_check(program, {}, ParameterSet({"table": table}), epsilon=1e-4)
    assert err <= 1e-3

    # duplicate ids must accumulate into the same row
    _, grads = ag.forward_backward(program, {}, ParameterSet({"table": table}))
    expect = np.zeros((3, 3), dtype=np.float32)
    for r in ids:
        expect[r] += 2 * table.data[r]
    np.testing.assert_allclose(grads["table"].data, expect, rtol=1e-6)

    with pytest.raises(IndexError):
        ag.gather_rows(ag.leaf(table.data), [0, 3])


def test_broadcasting_trailing_dims():
    # row vector broadcast across a matrix, grads reduce correctly
    def program(inputs, params):
        y = ag.mul(params["mat"], params["row"])
        return {"loss": ag.sum_(y)}

    mat = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
    row = Tensor([[1.0, 2.0, 3.0]])
    _, grads = ag.forward_backward(program, {}, ParameterSet({"mat": mat, "row": row}))
    np.testing.assert_allclose(grads["row"].data, mat.data.sum(axis=0, keepdims=True))
    np.testing.assert_allclose(grads["mat"].data, np.broadcast_to(row.data, (2, 3)))


def test_reductions_accumulate_float64():
    # 1 + 1e-8 summed 10^6 times: float32 accumulation would lose the 1e-8 tail
    n = 1_000_000
    x = np.full(n, 1.0 + 1e-8, dtype=np.float32)
    got = float(ag.sum_(ag.leaf(x)).value)
    direct32 = np.float32(0)
    # float32 representation of 1+1e-8 rounds to 1.0 exactly, so the honest
    # check is against the float64 sum of the float32 values
    assert got == x.astype(np.float64).sum().astype(np.float32)
    assert np.isfinite(got)


def test_batched_matmul_shapes_and_errors():
    a = ag.leaf(np.ones((2, 4, 3), np.float32))
    assert ag.matmul(a, ag.leaf(np.ones((3, 5), np.float32))).shape == (2, 4, 5)
    assert ag.transpose(a).shape == (2, 3, 4)
    # b is one matrix shared by every row of a; a stack b is rejected
    with pytest.raises(ag.ShapeError, match="b 2-D"):
        ag.matmul(a, ag.leaf(np.ones((2, 3, 5), np.float32)))
    with pytest.raises(ag.ShapeError, match="inner"):
        ag.matmul(a, ag.leaf(np.ones((4, 5), np.float32)))
    with pytest.raises(ag.ShapeError):
        ag.matmul(ag.leaf(np.ones((4, 3), np.float32)), ag.leaf(np.ones((2, 3, 5), np.float32)))
    with pytest.raises(ag.ShapeError):
        ag.transpose(ag.leaf(np.ones(3, np.float32)))
    x = ag.leaf(np.ones((2, 3, 4, 5), np.float32))
    assert ag.transpose(x, -3, -2).shape == (2, 4, 3, 5)
    assert ag.matmul(x, ag.leaf(np.ones((5, 6), np.float32))).shape == (2, 3, 4, 6)
    with pytest.raises(ag.ShapeError, match="b 2-D"):
        ag.matmul(x, ag.leaf(np.ones((2, 3, 5, 6), np.float32)))
    vec = ag.leaf(np.ones(5, np.float32))
    assert ag.matmul(vec, ag.leaf(np.ones((5, 2), np.float32))).shape == (2,)
    with pytest.raises(ag.ShapeError):
        ag.matmul(ag.leaf(np.ones((4, 3), np.float32)), ag.leaf(np.ones(3, np.float32)))
    with pytest.raises(ag.ShapeError):
        ag.transpose(a, -4, -1)
