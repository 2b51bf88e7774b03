import copy
import itertools
import platform
import sys
import tracemalloc
import weakref
from typing import NamedTuple

import numpy as np
import pytest

from zigprune import ops
from zigprune.builders import BUILDERS, demo_net
from zigprune.engine import _loss_and_grad, accuracy, backward, evaluate_loss, forward
from zigprune.errors import GraphError, ShapeMismatch
from zigprune.graph import build_graph, infer_shapes, init_params
from zigprune.harness import evaluate_graph
from zigprune.ops import Add, AvgPool, BatchNorm, Mul, ReLU, _sample_blocks
from zigprune.paramvec import ParamIndex


def loop_conv2d(x, weight, bias, k, stride, pad):
    """Straight 6-nested-loop convolution; the trusted reference."""
    n, cin, h, w = x.shape
    cout = weight.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    out = np.zeros((n, cout, ho, wo))
    w4 = weight.reshape(cout, cin, k, k)
    for b in range(n):
        for f in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for c in range(cin):
                        for u in range(k):
                            for v in range(k):
                                acc += w4[f, c, u, v] * xp[b, c, i * stride + u, j * stride + v]
                    out[b, f, i, j] = acc + (bias[f] if bias is not None else 0.0)
    return out


def loop_conv2d_grads(x, weight, dout, k, stride, pad):
    """Weight, bias and input gradients of loop_conv2d for output gradient
    dout, one scalar product at a time; the trusted reference."""
    n, cin, h, w = x.shape
    _, cout, ho, wo = dout.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    w4 = weight.reshape(cout, cin, k, k)
    dw = np.zeros_like(w4)
    dxp = np.zeros_like(xp)
    for b, f, i, j, c, u, v in np.ndindex(n, cout, ho, wo, cin, k, k):
        r, s = i * stride + u, j * stride + v
        dw[f, c, u, v] += dout[b, f, i, j] * xp[b, c, r, s]
        dxp[b, c, r, s] += dout[b, f, i, j] * w4[f, c, u, v]
    db = np.array([dout[:, f].sum() for f in range(cout)])
    return dw.reshape(cout, -1), db, dxp[:, :, pad:pad + h, pad:pad + w]


def conv_graph(k=3, stride=1, pad=1, cin=2, cout=3, hw=(4, 4), has_bias=True, seed=0):
    doc = {
        "input_shapes": [[1, cin, *hw]],
        "vertices": [{"id": 0, "op": "conv2d", "kernel": k, "stride": stride,
                      "padding": pad, "in_channels": cin, "out_channels": cout,
                      "has_bias": has_bias}],
        "edges": [],
    }
    g = infer_shapes(build_graph(doc))
    init_params(g, np.random.default_rng(seed))
    return g


CONV_GEOMETRIES = [(3, 1, 1), (3, 2, 0), (1, 1, 0), (2, 2, 1), (5, 1, 2), (3, 2, 1)]


@pytest.mark.parametrize("k,stride,pad", CONV_GEOMETRIES)
def test_conv_forward_matches_loop_oracle(k, stride, pad):
    rng = np.random.default_rng(42)
    for hw, has_bias in itertools.product(((4, 4), (5, 8)), (True, False)):
        g = conv_graph(k=k, stride=stride, pad=pad, hw=hw, has_bias=has_bias, seed=5)
        x = rng.normal(size=(3, 2, *hw))
        got, _ = forward(g, x, mode="eval")
        p = g.vertices[0].params
        want = loop_conv2d(x, p.weight, p.bias, k, stride, pad)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("k,stride,pad", CONV_GEOMETRIES)
def test_conv_gradients_match_loop_oracle(k, stride, pad):
    """Non-square input, cin != cout; (5, 8) leaves a stride remainder."""
    rng = np.random.default_rng(43)
    x = rng.normal(size=(2, 2, 5, 8))
    dout = None
    for has_bias, need_dx in itertools.product((True, False), (True, False)):
        g = conv_graph(k=k, stride=stride, pad=pad, cin=2, cout=3, hw=(5, 8),
                       has_bias=has_bias, seed=6)
        vx = g.vertices[0]
        out, cache = vx.kind.forward(vx.params, [x], "train")
        if dout is None:
            dout = rng.normal(size=out.shape)
        want_dw, want_db, want_dx = loop_conv2d_grads(x, vx.params.weight, dout, k, stride, pad)
        grads = {role: np.zeros_like(arr) for role, arr in vx.params.trainable_items()}
        dins = vx.kind.backward(vx.params, cache, dout, grads, need_dx=need_dx)
        assert sorted(grads) == (["bias", "weight"] if has_bias else ["weight"])
        assert np.abs(grads["weight"] - want_dw).max() < 1e-12
        if has_bias:
            assert np.abs(grads["bias"] - want_db).max() < 1e-12
        if need_dx:
            dx, = dins
            assert dx.shape == x.shape
            assert np.abs(dx - want_dx).max() < 1e-12
        else:
            assert dins is None


@pytest.mark.parametrize("n_inputs", [2, 3])
def test_add_forward_is_bit_identical_to_copy_then_add(n_inputs):
    rng = np.random.default_rng(44)
    xs = [rng.normal(size=(3, 4, 5, 6)) for _ in range(n_inputs)]
    before = [x.copy() for x in xs]
    want = xs[0].copy()
    for x in xs[1:]:
        want += x
    got, _ = Add().forward(None, xs, "train")
    assert np.array_equal(got, want)
    assert all(np.array_equal(x, b) for x, b in zip(xs, before))


@pytest.mark.parametrize("n_inputs", [2, 3])
def test_mul_forward_is_bit_identical_to_copy_then_mul(n_inputs):
    rng = np.random.default_rng(45)
    xs = [rng.normal(size=(3, 4, 5, 6)) for _ in range(n_inputs)]
    before = [x.copy() for x in xs]
    want = xs[0].copy()
    for x in xs[1:]:
        want *= x
    got, _ = Mul().forward(None, xs, "train")
    assert np.array_equal(got, want)
    assert all(np.array_equal(x, b) for x, b in zip(xs, before))


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc",
                    reason="the heap settings are glibc's")
def test_repeated_passes_take_no_page_faults():
    # Importing the engine keeps freed buffers in the heap, so once the
    # heap has grown to a pass's peak, later passes reuse its pages.
    import resource

    g = demo_net(seed=9)
    rng = np.random.default_rng(46)
    x_eval = rng.normal(size=(256, 3, 16, 16))
    y_eval = rng.integers(0, 10, size=256)
    x_train = rng.normal(size=(128, 3, 16, 16))
    y_train = rng.integers(0, 10, size=128)

    def train_step():
        _, cache = forward(g, x_train, mode="train")
        backward(g, cache, "cross_entropy", y_train)

    # warm-up: the heap grows to the train step's peak, then an eval pass
    # settles where its buffers sit in it
    train_step()
    for _ in range(2):
        forward(g, x_eval, mode="eval")
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        forward(g, x_eval, mode="eval")
    for _ in range(5):
        train_step()
    for _ in range(10):
        evaluate_graph(g, x_eval, y_eval, "cross_entropy")
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 500, (f"{faults} minor page faults in 10 eval and 5 train passes "
                          "and 10 chunked evaluations")


def test_bn_identity_passthrough_in_eval():
    doc = {
        "input_shapes": [[1, 3, 2, 2]],
        "vertices": [{"id": 0, "op": "batch_norm", "channels": 3}],
        "edges": [],
    }
    g = infer_shapes(build_graph(doc))
    x = np.random.default_rng(1).normal(size=(4, 3, 2, 2))
    out, _ = forward(g, x, mode="eval")
    # gamma=1, beta=0, running stats 0/1: y = x / sqrt(1 + eps)
    assert np.abs(out - x / np.sqrt(1 + 1e-5)).max() < 1e-12


def test_concat_then_split_recovers_inputs():
    doc = {
        "input_shapes": [[1, 2, 2, 2]],
        "vertices": [
            {"id": 0, "op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
             "in_channels": 2, "out_channels": 2},
            {"id": 1, "op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
             "in_channels": 2, "out_channels": 3},
            {"id": 2, "op": "concat"},
        ],
        "edges": [[0, 2], [1, 2]],
    }
    g = infer_shapes(build_graph(doc))
    init_params(g, np.random.default_rng(0))
    x = np.random.default_rng(2).normal(size=(2, 2, 2, 2))
    out, cache = forward(g, x, mode="eval")
    assert np.array_equal(out[:, :2], cache["acts"][0])
    assert np.array_equal(out[:, 2:], cache["acts"][1])


def test_linear_regression_analytic_gradient():
    doc = {
        "input_shapes": [[1, 3]],
        "vertices": [{"id": 0, "op": "linear", "in_features": 3,
                      "out_features": 2, "has_bias": False}],
        "edges": [],
    }
    g = infer_shapes(build_graph(doc))
    rng = np.random.default_rng(3)
    g.vertices[0].params.weight = rng.normal(size=(2, 3))
    x = rng.normal(size=(1, 3))
    y = rng.normal(size=(1, 2))
    out, cache = forward(g, x, mode="train")
    _, grads = backward(g, cache, "mse", y)
    want = (out - y).T @ x  # (Wx - y) x^T for a single sample
    assert np.abs(grads[0]["weight"] - want).max() < 1e-12


def test_zero_input_gives_zero_conv_weight_gradient():
    g = conv_graph(has_bias=False)
    x = np.zeros((2, 2, 4, 4))
    out, cache = forward(g, x, mode="eval")
    _, grads = backward(g, cache, "mse", np.ones_like(out))
    assert np.abs(grads[0]["weight"]).max() == 0.0


def test_forward_determinism_bit_identical():
    g = demo_net(seed=9)
    x = np.random.default_rng(4).normal(size=(3, 3, 16, 16))
    a, _ = forward(g, x, mode="train")
    b, _ = forward(g, x, mode="train")
    assert np.array_equal(a, b)


def test_eval_mode_is_pure():
    g = demo_net(seed=9)
    x = np.random.default_rng(4).normal(size=(2, 3, 16, 16))
    before = [v.params.running_mean.copy() for v in g.vertices.values()
              if v.params is not None and v.params.running_mean is not None]
    forward(g, x, mode="eval")
    after = [v.params.running_mean for v in g.vertices.values()
             if v.params is not None and v.params.running_mean is not None]
    for b, a in zip(before, after):
        assert np.array_equal(b, a)


def test_train_mode_updates_running_stats():
    g = demo_net(seed=9)
    x = np.random.default_rng(4).normal(size=(2, 3, 16, 16))
    rm0 = g.vertices[1].params.running_mean.copy()
    forward(g, x, mode="train")
    assert not np.array_equal(rm0, g.vertices[1].params.running_mean)


def test_shape_mismatch_rejected():
    g = demo_net()
    with pytest.raises(ShapeMismatch):
        forward(g, np.zeros((1, 3, 8, 8)))


def test_unknown_op_not_executable():
    doc = {
        "input_shapes": [[1, 2, 2, 2]],
        "vertices": [{"id": 0, "op": "unknown", "opname": "mystery"}],
        "edges": [],
    }
    g = build_graph(doc)
    g.vertices[0].out_shape = (1, 2, 2, 2)
    with pytest.raises(GraphError):
        forward(g, np.zeros((1, 2, 2, 2)))


# The relative difference the gradient checks allow; callers assert it.
FD_REL_BOUND = 1e-5


class FiniteDifference(NamedTuple):
    rel_err: float
    allowance_ratio: float


def finite_difference_check(g, loss, n_coords=50, h=1e-6, seed=0, batch=4,
                            mode="train") -> FiniteDifference:
    """Central differences on random parameter coordinates.

    ``rel_err`` is the worst relative difference, ``|numeric - analytic|``
    over ``max(|numeric|, |analytic|)``, over the coordinates whose
    difference exceeds the central difference's own rounding error,
    ``eps * max(|f+|, |f-|) / h``. A coordinate within that error (a true
    gradient of 0, say) counts as 0. ``allowance_ratio`` is the worst ratio of
    ``|numeric - analytic|`` to the coordinate's allowance, the larger of
    that rounding error and ``FD_REL_BOUND * max(|numeric|, |analytic|)``;
    it shows how close the check came to failing, even when ``rel_err`` is
    0."""
    rng = np.random.default_rng(seed)
    xs = [rng.normal(size=(batch, *s[1:])) for s in g.input_shapes]
    out, cache = forward(g, xs, mode=mode)
    if loss == "cross_entropy":
        targets = rng.integers(0, out.shape[1], size=batch)
    else:
        targets = rng.normal(size=out.shape)
    _, grads = backward(g, cache, loss, targets)
    index = ParamIndex(g)
    flat_grad = index.gather_grads(grads)
    base = index.gather(g)
    worst = worst_ratio = 0.0
    coords = rng.choice(index.size, size=min(n_coords, index.size), replace=False)
    for c in coords:
        for sign in (+1.0, -1.0):
            vec = base.copy()
            vec[c] += sign * h
            index.scatter(g, vec)
            out_p, _ = forward(g, xs, mode=mode)
            if sign > 0:
                f_plus = evaluate_loss(out_p, loss, targets)
            else:
                f_minus = evaluate_loss(out_p, loss, targets)
        index.scatter(g, base)
        numeric = (f_plus - f_minus) / (2 * h)
        diff = abs(numeric - flat_grad[c])
        rounding = np.finfo(float).eps * max(abs(f_plus), abs(f_minus)) / h
        scale = max(abs(numeric), abs(flat_grad[c]))
        if diff > rounding:
            worst = max(worst, diff / scale)
        if diff:  # a nonzero diff has a nonzero scale
            worst_ratio = max(worst_ratio, diff / max(rounding, FD_REL_BOUND * scale))
    return FiniteDifference(worst, worst_ratio)


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("loss", ["cross_entropy", "mse"])
def test_gradients_match_finite_differences(name, loss):
    g = BUILDERS[name](seed=11)
    worst = finite_difference_check(g, loss, n_coords=50, seed=17).rel_err
    assert worst < 1e-5, f"{name}/{loss}: rel err {worst}"


@pytest.mark.parametrize("loss", ["cross_entropy", "mse"])
def test_evaluate_loss_is_the_value_of_loss_and_grad(loss):
    rng = np.random.default_rng(31)
    out = 3.0 * rng.normal(size=(9, 5))
    targets = rng.integers(0, 5, size=9) if loss == "cross_entropy" \
        else rng.normal(size=(9, 5))
    assert evaluate_loss(out, loss, targets) == _loss_and_grad(out, loss, targets)[0]


def test_relu_is_one_pass_max_with_the_masked_product_values():
    rng = np.random.default_rng(32)
    x = rng.normal(size=(4, 3, 5, 5))
    x[0, 0, 0, :2] = [0.0, -0.0]
    out, cache = ReLU().forward(None, [x], "eval")
    # np.array_equal counts -0.0 equal to 0.0: only the sign of a zero differs
    assert np.array_equal(out, x * (x > 0))
    dout = rng.normal(size=x.shape)
    dx, = ReLU().backward(None, cache, dout, {})
    assert np.array_equal(dx, dout * (x > 0))


def test_accuracy_helper():
    out = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.0]])
    assert accuracy(out, [0, 1, 1]) == pytest.approx(2 / 3)


def test_mul_joint_forward_and_gradients():
    doc = {
        "input_shapes": [[1, 2, 4, 4]],
        "vertices": [
            {"id": 0, "op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
             "in_channels": 2, "out_channels": 3},
            {"id": 1, "op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
             "in_channels": 2, "out_channels": 3},
            {"id": 2, "op": "mul"},
            {"id": 3, "op": "avg_pool", "kernel": 4, "stride": 4},
            {"id": 4, "op": "flatten"},
            {"id": 5, "op": "linear", "in_features": 3, "out_features": 2},
        ],
        "edges": [[0, 2], [1, 2], [2, 3], [3, 4], [4, 5]],
    }
    g = infer_shapes(build_graph(doc))
    init_params(g, np.random.default_rng(6))
    x = np.random.default_rng(7).normal(size=(2, 2, 4, 4))
    out, cache = forward(g, x, mode="eval")
    a, b = cache["acts"][0], cache["acts"][1]
    assert np.array_equal(cache["acts"][2], a * b)
    assert finite_difference_check(g, "mse", n_coords=30, seed=8).rel_err < 1e-5


def test_batchnorm_on_2d_features():
    doc = {
        "input_shapes": [[1, 5]],
        "vertices": [
            {"id": 0, "op": "linear", "in_features": 5, "out_features": 4},
            {"id": 1, "op": "batch_norm", "channels": 4},
            {"id": 2, "op": "relu"},
            {"id": 3, "op": "linear", "in_features": 4, "out_features": 2},
        ],
        "edges": [[0, 1], [1, 2], [2, 3]],
    }
    g = infer_shapes(build_graph(doc))
    init_params(g, np.random.default_rng(9))
    assert finite_difference_check(g, "mse", n_coords=30, seed=10, batch=6).rel_err < 1e-5


# ---------------------------------------------------------------------------
# fast paths: BatchNorm, pooling, shared im2col, input-bound vertices
# ---------------------------------------------------------------------------

def graph_of(input_shape, vertices, edges, seed=0):
    doc = {"input_shapes": [list(input_shape)],
           "vertices": [{"id": i, **v} for i, v in enumerate(vertices)],
           "edges": edges}
    g = infer_shapes(build_graph(doc))
    init_params(g, np.random.default_rng(seed))
    return g


def conv_spec(cin, cout, k=3, stride=1, pad=1):
    return {"op": "conv2d", "kernel": k, "stride": stride, "padding": pad,
            "in_channels": cin, "out_channels": cout}


def randomize_bn(g, seed):
    """Non-trivial gamma, beta and running statistics on every BatchNorm."""
    rng = np.random.default_rng(seed)
    for vx in g.vertices.values():
        p = vx.params
        if p is not None and p.gamma is not None:
            c = p.gamma.shape[0]
            p.gamma = rng.uniform(0.5, 1.5, c)
            p.beta = rng.normal(size=c)
            p.running_mean = rng.normal(size=c)
            p.running_var = rng.uniform(0.5, 2.0, c)
    return g


def bn_conv_graph():
    """conv -> BN (4-D) -> relu -> avg_pool -> flatten -> linear -> BN (2-D)."""
    return randomize_bn(graph_of((1, 2, 4, 4), [
        conv_spec(2, 3),
        {"op": "batch_norm", "channels": 3},
        {"op": "relu"},
        {"op": "avg_pool", "kernel": 2, "stride": 2},
        {"op": "flatten"},
        {"op": "linear", "in_features": 12, "out_features": 4},
        {"op": "batch_norm", "channels": 4},
    ], [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6]], seed=12), seed=13)


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_batchnorm_gradients_4d_and_2d(mode):
    g = bn_conv_graph()
    assert finite_difference_check(g, "mse", n_coords=60, seed=14, batch=5,
                                   mode=mode).rel_err < 1e-5


def test_batchnorm_backward_on_eval_cache():
    g = bn_conv_graph()
    rng = np.random.default_rng(15)
    x = rng.normal(size=(3, 2, 4, 4))
    out, cache = forward(g, x, mode="eval")
    _, grads = backward(g, cache, "mse", np.zeros_like(out))
    # eval BN is y = (x - running_mean) * gamma / sqrt(running_var + eps) + beta
    p = g.vertices[6].params
    xin = cache["acts"][5]
    xhat = (xin - p.running_mean) / np.sqrt(p.running_var + 1e-5)
    d = out / out.shape[0]  # mse gradient at zero targets
    assert np.abs(grads[6]["gamma"] - (d * xhat).sum(axis=0)).max() < 1e-12
    assert np.abs(grads[6]["beta"] - d.sum(axis=0)).max() < 1e-12
    vx = g.vertices[6]
    dx = vx.kind.backward(vx.params, cache["vcaches"][6], d,
                          {"gamma": np.zeros(4), "beta": np.zeros(4)})[0]
    want = d * p.gamma / np.sqrt(p.running_var + 1e-5)
    assert np.abs(dx - want).max() < 1e-12


@pytest.mark.parametrize("shape", [(6, 3, 4, 5), (7, 4)])
def test_eval_batchnorm_matches_normalize_then_scale(shape):
    c = shape[1]
    g = graph_of(shape, [{"op": "batch_norm", "channels": c}], [], seed=28)
    p = randomize_bn(g, 29).vertices[0].params
    x = 1.0 + 3.0 * np.random.default_rng(30).normal(size=shape)
    bshape = (1, c, 1, 1) if len(shape) == 4 else (1, c)
    rm, rv, gamma, beta = (a.reshape(bshape) for a in
                           (p.running_mean, p.running_var, p.gamma, p.beta))
    want = (x - rm) / np.sqrt(rv + 1e-5) * gamma + beta
    out, _ = forward(g, x, mode="eval")
    assert np.abs(out - want).max() < 1e-12


def loop_avg_pool(x, k, stride):
    n, c, h, w = x.shape
    ho, wo = (h - k) // stride + 1, (w - k) // stride + 1
    out = np.zeros((n, c, ho, wo))
    for i in range(ho):
        for j in range(wo):
            out[:, :, i, j] = x[:, :, i * stride:i * stride + k,
                                j * stride:j * stride + k].mean(axis=(2, 3))
    return out


@pytest.mark.parametrize("k,stride,size", [(2, 2, 4), (3, 3, 6), (1, 1, 4), (4, 4, 8),
                                           (2, 2, 5), (3, 2, 5), (2, 1, 4)])
def test_avg_pool_matches_loop_and_finite_differences(k, stride, size):
    ho = (size - k) // stride + 1
    g = graph_of((1, 2, size, size), [
        conv_spec(2, 2),
        {"op": "avg_pool", "kernel": k, "stride": stride},
        {"op": "flatten"},
        {"op": "linear", "in_features": 2 * ho * ho, "out_features": 3},
    ], [[0, 1], [1, 2], [2, 3]], seed=16)
    x = np.random.default_rng(17).normal(size=(2, 2, size, size))
    _, cache = forward(g, x, mode="eval")
    want = loop_avg_pool(cache["acts"][0], k, stride)
    assert np.abs(cache["acts"][1] - want).max() < 1e-14
    assert finite_difference_check(g, "mse", n_coords=40, seed=18).rel_err < 1e-5


@pytest.mark.parametrize("k", [2, 3, 4])
def test_tiled_avg_pool_backward_is_bit_identical_to_repeat(k):
    rng = np.random.default_rng(33 + k)
    kind = AvgPool(kernel=k, stride=k)
    out, cache = kind.forward(None, [rng.normal(size=(3, 2, 3 * k, 2 * k))], "eval")
    dout = rng.normal(size=out.shape)
    dx, = kind.backward(None, cache, dout, {})
    want = np.repeat(np.repeat(dout / (k * k), k, axis=2), k, axis=3)
    assert dx.shape == want.shape and dx.tobytes() == want.tobytes()


def loop_max_pool(x, k, stride):
    n, c, h, w = x.shape
    ho, wo = (h - k) // stride + 1, (w - k) // stride + 1
    out = np.zeros((n, c, ho, wo))
    for i in range(ho):
        for j in range(wo):
            out[:, :, i, j] = x[:, :, i * stride:i * stride + k,
                                j * stride:j * stride + k].max(axis=(2, 3))
    return out


@pytest.mark.parametrize("k,stride", [(2, 2), (3, 2)])
def test_max_pool_matches_loop_and_finite_differences(k, stride):
    size = 5
    ho = (size - k) // stride + 1
    g = graph_of((1, 2, size, size), [
        conv_spec(2, 2),
        {"op": "max_pool", "kernel": k, "stride": stride},
        {"op": "flatten"},
        {"op": "linear", "in_features": 2 * ho * ho, "out_features": 3},
    ], [[0, 1], [1, 2], [2, 3]], seed=30)
    x = np.random.default_rng(31).normal(size=(2, 2, size, size))
    _, cache = forward(g, x, mode="eval")
    assert np.array_equal(cache["acts"][1], loop_max_pool(cache["acts"][0], k, stride))
    assert finite_difference_check(g, "mse", n_coords=40, seed=32).rel_err < 1e-5


def test_strided_padded_conv_finite_differences():
    g = graph_of((1, 2, 5, 5), [
        conv_spec(2, 3, k=3, stride=2, pad=1),
        {"op": "relu"},
        conv_spec(3, 2, k=3, stride=2, pad=1),
        {"op": "flatten"},
        {"op": "linear", "in_features": 8, "out_features": 2},
    ], [[0, 1], [1, 2], [2, 3], [3, 4]], seed=33)
    assert finite_difference_check(g, "mse", n_coords=60, seed=34).rel_err < 1e-5


@pytest.mark.parametrize("from_input", [True, False])
@pytest.mark.parametrize("geometry", [(3, 1, 1), (1, 1, 0)])
def test_convs_reading_one_tensor(from_input, geometry):
    k, stride, pad = geometry
    head = [] if from_input else [conv_spec(2, 2, 1, 1, 0), {"op": "relu"}]
    base = len(head)
    g = graph_of((1, 2, 4, 4), head + [
        conv_spec(2, 3),
        {**conv_spec(2, 3, k, stride, pad), "has_bias": False},
        {"op": "add"},
        {"op": "flatten"},
        {"op": "linear", "in_features": 48, "out_features": 2},
    ], ([[0, 1], [1, 2], [1, 3]] if head else [])
        + [[base, base + 2], [base + 1, base + 2], [base + 2, base + 3],
           [base + 3, base + 4]], seed=19)
    x = np.random.default_rng(20).normal(size=(2, 2, 4, 4))
    _, cache = forward(g, x, mode="train")
    src = x if from_input else cache["acts"][1]
    for vid, (kk, ss, pp) in ((base, (3, 1, 1)), (base + 1, geometry)):
        p = g.vertices[vid].params
        want = loop_conv2d(src, p.weight, p.bias, kk, ss, pp)
        assert np.abs(cache["acts"][vid] - want).max() < 1e-12
    shared = cache["vcaches"][base]["cols"] is cache["vcaches"][base + 1]["cols"]
    assert shared == (geometry == (3, 1, 1))
    assert finite_difference_check(g, "mse", n_coords=60, seed=21).rel_err < 1e-5


@pytest.mark.parametrize("first", [
    {"op": "linear", "in_features": 6, "out_features": 4},
    {"op": "batch_norm", "channels": 6},
])
def test_vertex_bound_to_graph_input(first):
    width = first.get("out_features", 6)
    g = randomize_bn(graph_of((1, 6), [
        first,
        {"op": "relu"},
        {"op": "linear", "in_features": width, "out_features": 3},
    ], [[0, 1], [1, 2]], seed=22), seed=23)
    assert 0 in g.input_binding
    for mode in ("train", "eval"):
        assert finite_difference_check(g, "mse", n_coords=30, seed=24, batch=5,
                                       mode=mode).rel_err < 1e-5


def two_pass_batchnorm(x, d, gamma, beta):
    """BatchNorm train forward and backward written out as the textbook
    two-pass formula: centre first, then scale; the reference for the
    folded per-channel form the engine uses."""
    axes = (0, 2, 3) if x.ndim == 4 else (0,)
    shape = (1, -1, 1, 1) if x.ndim == 4 else (1, -1)
    m = x.size // x.shape[1]
    mean = x.mean(axis=axes)
    centred = x - mean.reshape(shape)
    var = (centred * centred).mean(axis=axes)
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat = centred * inv_std.reshape(shape)
    out = gamma.reshape(shape) * xhat + beta.reshape(shape)
    dxhat = d * gamma.reshape(shape)
    dx = (inv_std.reshape(shape) / m) * (
        m * dxhat - dxhat.sum(axis=axes).reshape(shape)
        - xhat * (dxhat * xhat).sum(axis=axes).reshape(shape))
    return out, dx, (d * xhat).sum(axis=axes), d.sum(axis=axes)


@pytest.mark.parametrize("shape", [(16, 3, 5, 5), (64, 5)])
def test_folded_batchnorm_matches_two_pass_oracle(shape):
    # Per-channel means ten times the standard deviation: the regime where
    # sum(d * x) - mean * sum(d) cancels the most.
    rng = np.random.default_rng(25)
    c = shape[1]
    std = rng.uniform(0.5, 2.0, c)
    bshape = (1, c, 1, 1) if len(shape) == 4 else (1, c)
    x = (10.0 * std * rng.choice([-1.0, 1.0], c)).reshape(bshape) \
        + std.reshape(bshape) * rng.normal(size=shape)
    d = rng.normal(size=shape)
    g = graph_of(shape, [{"op": "batch_norm", "channels": c}], [], seed=26)
    vx = randomize_bn(g, 27).vertices[0]
    want = two_pass_batchnorm(x, d, vx.params.gamma, vx.params.beta)
    out, vcache = vx.kind.forward(vx.params, [x], "train")
    grads = {"gamma": np.zeros(c), "beta": np.zeros(c)}
    dx, = vx.kind.backward(vx.params, vcache, d, grads)
    for got, ref in zip((out, dx, grads["gamma"], grads["beta"]), want):
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()


def three_pass_batchnorm(x, d, gamma, beta, running_mean, running_var):
    """Train-mode BatchNorm as the engine computed it before sample blocks:
    full-size einsum sums, ``(x - mean) * (gamma * inv_std) + beta`` in three
    passes, and ``dx = a * d + c2 * x + c3`` with a full-size ``c2 * x``.
    Returns (out, dx, dgamma, dbeta, running_mean, running_var)."""
    x3 = x.reshape(x.shape[0], x.shape[1], -1)
    d3 = d.reshape(x3.shape)
    m = x3.shape[0] * x3.shape[2]
    mean = np.einsum("ncs->c", x3) / m
    var = np.maximum(np.einsum("ncs,ncs->c", x3, x3) / m - mean * mean, 0.0)
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    out = (x3 - mean[:, None]) * (gamma * inv_std)[:, None] + beta[:, None]
    sum_d = np.einsum("ncs->c", d3)
    sum_dxhat = (np.einsum("ncs,ncs->c", d3, x3) - mean * sum_d) * inv_std
    scale = gamma * inv_std
    c2 = -(scale / m) * sum_dxhat * inv_std
    c3 = -(scale / m) * sum_d - c2 * mean
    dx = d3 * scale[:, None] + c2[:, None] * x3 + c3[:, None]
    return (out.reshape(x.shape), dx.reshape(x.shape), sum_dxhat, sum_d,
            0.9 * running_mean + 0.1 * mean, 0.9 * running_var + 0.1 * var)


# (shape, number of sample blocks): a partial last block in 2-D and 4-D, a
# batch inside one block, C*S above BN_BLOCK (one sample per block), batch 1.
BLOCK_CASES = [((5000, 8), 2), ((20, 8, 16, 16), 2), ((6, 3, 4, 5), 1),
               ((3, 4, 96, 96), 3), ((1, 5, 4, 4), 1)]


@pytest.mark.parametrize("shape,n_blocks", BLOCK_CASES)
def test_blocked_batchnorm_matches_three_pass_oracle(shape, n_blocks):
    n, c = shape[:2]
    row = int(np.prod(shape[1:]))
    assert len(_sample_blocks(n, row)) == n_blocks
    rng = np.random.default_rng(32)
    bshape = (1, c) + (1,) * (len(shape) - 2)
    x = rng.normal(size=c).reshape(bshape) \
        + rng.uniform(0.5, 2.0, c).reshape(bshape) * rng.normal(size=shape)
    d = rng.normal(size=shape)
    g = graph_of(shape, [{"op": "batch_norm", "channels": c}], [], seed=33)
    vx = randomize_bn(g, 34).vertices[0]
    p = vx.params
    want = three_pass_batchnorm(x, d, p.gamma, p.beta, p.running_mean, p.running_var)
    out, vcache = vx.kind.forward(p, [x], "train")
    grads = {"gamma": np.zeros(c), "beta": np.zeros(c)}
    dx, = vx.kind.backward(p, vcache, d, grads)
    got = (out, dx, grads["gamma"], grads["beta"], p.running_mean, p.running_var)
    for name, a, b in zip(("out", "dx", "gamma", "beta", "mean", "var"), got, want):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max()), name


def test_train_batchnorm_backward_allocates_one_full_size_array():
    """dx is the backward's only full-size allocation: c2 * x goes through
    one block-sized temporary."""
    shape = (128, 32, 16, 16)
    kind = BatchNorm(channels=32)
    p = kind.default_params()
    rng = np.random.default_rng(35)
    x, d = rng.normal(size=shape), rng.normal(size=shape)
    _, vcache = kind.forward(p, [x], "train")
    grads = {"gamma": np.zeros(32), "beta": np.zeros(32)}
    tracemalloc.start()
    try:
        dx, = kind.backward(p, vcache, d, grads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= dx.nbytes + 2 ** 20, f"peak {peak} bytes for a {dx.nbytes}-byte dx"


def test_batchnorms_reading_one_tensor_share_byte_identical_sums(monkeypatch):
    """demo_net's BN2 and BN3 read one tensor and get one gradient array from
    the Add after them, so each of their sum passes runs once. The step is
    byte-identical to one where every BatchNorm sums on its own."""
    shared = randomize_bn(demo_net(seed=9), 36)
    unshared = copy.deepcopy(shared)
    rng = np.random.default_rng(37)
    x = rng.normal(size=(6, 3, 16, 16))
    y = rng.integers(0, 10, size=6)
    calls = []
    sums = ops._channel_sums
    monkeypatch.setattr(ops, "_channel_sums", lambda *a: calls.append(1) or sums(*a))

    def step(g):
        calls.clear()
        out, cache = forward(g, x, mode="train")
        _, grads = backward(g, cache, "cross_entropy", y)
        return len(calls), out, grads

    n_shared, out, grads = step(shared)
    fwd, bwd = BatchNorm.forward, BatchNorm.backward
    monkeypatch.setattr(BatchNorm, "forward", lambda self, p, xs, mode, src=None, memo=None:
                        fwd(self, p, xs, mode, src))
    monkeypatch.setattr(BatchNorm, "backward", lambda self, p, c, d, gr, need_dx=True, memo=None:
                        bwd(self, p, c, d, gr, need_dx))
    n_unshared, want_out, want_grads = step(unshared)
    assert (n_shared, n_unshared) == (6, 8)
    assert out.tobytes() == want_out.tobytes()
    for vid, roles in want_grads.items():
        for role, want in roles.items():
            assert grads[vid][role].tobytes() == want.tobytes(), (vid, role)
    for vid, vx in unshared.vertices.items():
        if vx.params is not None and vx.params.running_mean is not None:
            got = shared.vertices[vid].params
            assert got.running_mean.tobytes() == vx.params.running_mean.tobytes()
            assert got.running_var.tobytes() == vx.params.running_var.tobytes()


def test_batchnorm_memo_entry_of_another_array_is_not_used():
    """A backward memo entry keyed by dout's id but made for another array (a
    dead one whose id was reused, say) is recomputed, not read."""
    kind = BatchNorm(channels=3)
    p = kind.default_params()
    rng = np.random.default_rng(38)
    x, d = rng.normal(size=(4, 3, 2, 2)), rng.normal(size=(4, 3, 2, 2))
    _, cache = kind.forward(p, [x], "train", src=0)
    want_grads = {"gamma": np.zeros(3), "beta": np.zeros(3)}
    want, = kind.backward(p, cache, d, want_grads)
    other = d.copy()
    memo = {("bn", 0, id(d)): (weakref.ref(other), np.full(3, np.nan), np.full(3, np.nan))}
    grads = {"gamma": np.zeros(3), "beta": np.zeros(3)}
    got, = kind.backward(p, cache, d, grads, memo=memo)
    assert got.tobytes() == want.tobytes()
    assert all(grads[r].tobytes() == want_grads[r].tobytes() for r in grads)
