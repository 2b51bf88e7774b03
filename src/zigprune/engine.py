"""Forward/reverse execution engine for the graph IR.

Double precision throughout. ``forward`` evaluates the graph on a batch and
returns an activation cache; ``backward`` turns a loss into per-vertex
parameter gradients averaged over the batch. Training mode uses batch
statistics in BatchNorm (and updates running statistics in place, momentum
0.1); eval mode is a pure function of (params, input).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GraphError, ShapeMismatch
from .graph import (
    Add,
    AvgPool,
    BatchNorm,
    ComputationGraph,
    Concat,
    Conv2d,
    Flatten,
    GraphOutput,
    Linear,
    MaxPool,
    Mul,
    ReLU,
    Unknown,
)

BN_EPS = 1e-5
BN_MOMENTUM = 0.1

# GradientStore: vertex id -> role -> array, mirroring ParameterSet layouts.
GradientStore = dict[int, dict[str, np.ndarray]]


def _as_batch_list(g: ComputationGraph, inputs) -> list[np.ndarray]:
    if isinstance(inputs, np.ndarray):
        inputs = [inputs]
    if len(inputs) != len(g.input_shapes):
        raise ShapeMismatch(
            f"graph takes {len(g.input_shapes)} inputs, got {len(inputs)}"
        )
    arrays = []
    batch = None
    for arr, shape in zip(inputs, g.input_shapes):
        arr = np.asarray(arr, dtype=float)
        if arr.shape[1:] != shape[1:]:
            raise ShapeMismatch(f"input shape {arr.shape} incompatible with {shape}")
        if batch is None:
            batch = arr.shape[0]
        elif arr.shape[0] != batch:
            raise ShapeMismatch("graph inputs disagree on batch size")
        arrays.append(arr)
    return arrays


# ---------------------------------------------------------------------------
# convolution plumbing
# ---------------------------------------------------------------------------

def _im2col(x: np.ndarray, k: int, stride: int, pad: int):
    """Patches as one (N*Ho*Wo, C*k*k) matrix so the conv is a single GEMM."""
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    ho, wo = win.shape[2], win.shape[3]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5))
    return cols.reshape(n * ho * wo, c * k * k), ho, wo


def _col2im(dcols: np.ndarray, x_shape, k: int, stride: int, pad: int, ho: int, wo: int):
    """Scatter-add (N*Ho*Wo, C*k*k) patch gradients back onto the input."""
    n, c, h, w = x_shape
    dxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    d = np.ascontiguousarray(
        dcols.reshape(n, ho, wo, c, k, k).transpose(0, 3, 4, 5, 1, 2))
    for i in range(k):
        for j in range(k):
            dxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += d[:, :, i, j]
    if pad:
        return dxp[:, :, pad:pad + h, pad:pad + w]
    return dxp


def _pool_windows(x: np.ndarray, k: int, stride: int):
    win = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    return win  # (n, c, ho, wo, k, k)


def _pool_scatter(dwin: np.ndarray, x_shape, k: int, stride: int, ho: int, wo: int):
    """Scatter-add per-window gradients (n, c, ho, wo, k, k) onto the input."""
    dx = np.zeros(x_shape)
    for i in range(k):
        for j in range(k):
            dx[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += dwin[:, :, :, :, i, j]
    return dx


def _tiles(kind, x_shape) -> bool:
    """True when the pooling windows tile the input exactly (no overlap, no rest)."""
    k = kind.kernel
    return kind.stride == k and x_shape[2] % k == 0 and x_shape[3] % k == 0


def _bn_view(x: np.ndarray) -> np.ndarray:
    """(N, C) or (N, C, H, W) as (N, C, S): BatchNorm reduces over axes 0 and 2."""
    return x.reshape(x.shape[0], x.shape[1], -1)


# ---------------------------------------------------------------------------
# per-vertex forward
# ---------------------------------------------------------------------------

def _forward_vertex(vx, xs: list[np.ndarray], mode: str, src=None, cols_memo=None):
    """``src`` names the tensor a single-input vertex reads; convolutions that
    read one ``src`` with one geometry share an im2col result in ``cols_memo``."""
    kind = vx.kind
    if isinstance(kind, Conv2d):
        x, = xs
        key = (src, kind.kernel, kind.stride, kind.padding)
        memo = {} if cols_memo is None else cols_memo
        if key not in memo:
            memo[key] = _im2col(x, kind.kernel, kind.stride, kind.padding)
        cols, ho, wo = memo[key]
        out = cols @ vx.params.weight.T
        if vx.params.bias is not None:
            out += vx.params.bias
        out = np.ascontiguousarray(
            out.reshape(x.shape[0], ho, wo, kind.out_channels).transpose(0, 3, 1, 2))
        return out, {"cols": cols, "x_shape": x.shape, "ho": ho, "wo": wo}
    if isinstance(kind, Linear):
        x, = xs
        out = x @ vx.params.weight.T
        if vx.params.bias is not None:
            out = out + vx.params.bias
        return out, {"x": x}
    if isinstance(kind, BatchNorm):
        x, = xs
        p = vx.params
        x3 = _bn_view(x)
        if mode == "train":
            m = x3.shape[0] * x3.shape[2]
            mean = np.einsum("ncs->c", x3) / m
            var = np.einsum("ncs,ncs->c", x3, x3) / m - mean * mean
            np.maximum(var, 0.0, out=var)
            p.running_mean *= 1.0 - BN_MOMENTUM
            p.running_mean += BN_MOMENTUM * mean
            p.running_var *= 1.0 - BN_MOMENTUM
            p.running_var += BN_MOMENTUM * var
        else:
            mean, var = p.running_mean.copy(), p.running_var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        scale = p.gamma * inv_std
        out = x3 - mean[:, None]
        out *= scale[:, None]
        out += p.beta[:, None]
        return out.reshape(x.shape), {"x": x3, "mean": mean, "inv_std": inv_std,
                                      "mode": mode}
    if isinstance(kind, ReLU):
        x, = xs
        mask = x > 0
        return x * mask, {"mask": mask}
    if isinstance(kind, MaxPool):
        x, = xs
        win = _pool_windows(x, kind.kernel, kind.stride)
        n, c, ho, wo = win.shape[:4]
        flat = win.reshape(n, c, ho, wo, -1)
        arg = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
        return out, {"arg": arg, "x_shape": x.shape, "ho": ho, "wo": wo}
    if isinstance(kind, AvgPool):
        x, = xs
        k = kind.kernel
        if _tiles(kind, x.shape):
            out = x[:, :, ::k, ::k].copy()
            for i in range(k):
                for j in range(k):
                    if i or j:
                        out += x[:, :, i::k, j::k]
            out /= k * k
        else:
            out = _pool_windows(x, k, kind.stride).mean(axis=(-2, -1))
        return out, {"x_shape": x.shape, "ho": out.shape[2], "wo": out.shape[3]}
    if isinstance(kind, Flatten):
        x, = xs
        return x.reshape(x.shape[0], -1), {"x_shape": x.shape}
    if isinstance(kind, Add):
        out = xs[0].copy()
        for x in xs[1:]:
            out += x
        return out, {"n": len(xs)}
    if isinstance(kind, Mul):
        out = xs[0].copy()
        for x in xs[1:]:
            out *= x
        return out, {"xs": xs}
    if isinstance(kind, Concat):
        widths = [x.shape[1] for x in xs]
        return np.concatenate(xs, axis=1), {"widths": widths}
    if isinstance(kind, GraphOutput):
        return xs[0], {}
    if isinstance(kind, Unknown):
        raise GraphError(f"cannot execute unknown op {kind.opname!r}")
    raise GraphError(f"no forward rule for {kind.op!r}")


def _backward_vertex(vx, vcache, dout: np.ndarray, grads_out: dict,
                     need_dx: bool = True):
    """Returns gradients w.r.t. the vertex inputs (in input order).

    With ``need_dx`` False (a vertex that reads the graph input) Conv2d,
    Linear and BatchNorm accumulate their parameter gradients and return None.
    """
    kind = vx.kind
    if isinstance(kind, Conv2d):
        n = dout.shape[0]
        dflat = np.ascontiguousarray(dout.transpose(0, 2, 3, 1)).reshape(
            -1, kind.out_channels)
        grads_out["weight"] += dflat.T @ vcache["cols"]
        if vx.params.bias is not None:
            grads_out["bias"] += dflat.sum(axis=0)
        if not need_dx:
            return None
        dcols = dflat @ vx.params.weight
        dx = _col2im(dcols, vcache["x_shape"], kind.kernel, kind.stride,
                     kind.padding, vcache["ho"], vcache["wo"])
        return [dx]
    if isinstance(kind, Linear):
        grads_out["weight"] += dout.T @ vcache["x"]
        if vx.params.bias is not None:
            grads_out["bias"] += dout.sum(axis=0)
        if not need_dx:
            return None
        return [dout @ vx.params.weight]
    if isinstance(kind, BatchNorm):
        # With xhat = (x - mean) * inv_std and a = gamma * inv_std:
        # sum(d * xhat) = (sum(d * x) - mean * sum(d)) * inv_std, and in train
        # mode dx = a * (d - sum(d) / m - xhat * sum(d * xhat) / m), which is
        # a * d + c2 * x + c3 with per-channel c2 and c3.
        x3, mean, inv_std = vcache["x"], vcache["mean"], vcache["inv_std"]
        d3 = _bn_view(dout)
        sum_d = np.einsum("ncs->c", d3)
        sum_dxhat = (np.einsum("ncs,ncs->c", d3, x3) - mean * sum_d) * inv_std
        grads_out["gamma"] += sum_dxhat
        grads_out["beta"] += sum_d
        if not need_dx:
            return None
        scale = vx.params.gamma * inv_std
        dx = d3 * scale[:, None]
        if vcache["mode"] == "train":
            m = d3.shape[0] * d3.shape[2]
            c2 = -(scale / m) * sum_dxhat * inv_std
            c3 = -(scale / m) * sum_d - c2 * mean
            dx += c2[:, None] * x3
            dx += c3[:, None]
        return [dx.reshape(dout.shape)]
    if isinstance(kind, ReLU):
        return [dout * vcache["mask"]]
    if isinstance(kind, MaxPool):
        n, c, ho, wo = dout.shape
        kk = kind.kernel * kind.kernel
        onehot = np.zeros((n, c, ho, wo, kk))
        np.put_along_axis(onehot, vcache["arg"][..., None], 1.0, axis=-1)
        dwin = (onehot * dout[..., None]).reshape(n, c, ho, wo, kind.kernel, kind.kernel)
        return [_pool_scatter(dwin, vcache["x_shape"], kind.kernel, kind.stride, ho, wo)]
    if isinstance(kind, AvgPool):
        n, c, ho, wo = dout.shape
        k = kind.kernel
        if _tiles(kind, vcache["x_shape"]):
            return [np.repeat(np.repeat(dout / (k * k), k, axis=2), k, axis=3)]
        dwin = np.broadcast_to((dout / (k * k))[..., None, None], (n, c, ho, wo, k, k))
        return [_pool_scatter(dwin, vcache["x_shape"], kind.kernel, kind.stride, ho, wo)]
    if isinstance(kind, Flatten):
        return [dout.reshape(vcache["x_shape"])]
    if isinstance(kind, Add):
        return [dout] * vcache["n"]
    if isinstance(kind, Mul):
        xs = vcache["xs"]
        dins = []
        for i in range(len(xs)):
            d = dout.copy()
            for j, x in enumerate(xs):
                if j != i:
                    d *= x
            dins.append(d)
        return dins
    if isinstance(kind, Concat):
        splits = np.cumsum(vcache["widths"])[:-1]
        return list(np.split(dout, splits, axis=1))
    if isinstance(kind, GraphOutput):
        return [dout]
    raise GraphError(f"no backward rule for {kind.op!r}")


# ---------------------------------------------------------------------------
# graph-level passes
# ---------------------------------------------------------------------------

def forward(g: ComputationGraph, inputs, mode: str = "train"):
    """Evaluate the graph; returns (output array, cache for backward)."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be train or eval, got {mode!r}")
    xs = _as_batch_list(g, inputs)
    acts: dict[int, np.ndarray] = {}
    vcaches: dict[int, dict] = {}
    cols_memo: dict = {}
    for vid in g.topo_order:
        if vid in g.input_binding:
            src = ("input", g.input_binding[vid])
            vin = [xs[src[1]]]
        else:
            src = g.preds[vid][0]
            vin = [acts[p] for p in g.preds[vid]]
        acts[vid], vcaches[vid] = _forward_vertex(g.vertices[vid], vin, mode,
                                                  src, cols_memo)
    out_id = g.output_id if g.output_id is not None else g.topo_order[-1]
    cache = {"acts": acts, "vcaches": vcaches, "mode": mode, "out_id": out_id}
    return acts[out_id], cache


def _loss_and_grad(out: np.ndarray, loss: str, targets: np.ndarray):
    n = out.shape[0]
    if loss == "cross_entropy":
        targets = np.asarray(targets, dtype=int)
        z = out - out.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        value = -logp[np.arange(n), targets].mean()
        dout = np.exp(logp)
        dout[np.arange(n), targets] -= 1.0
        return value, dout / n
    if loss == "mse":
        targets = np.asarray(targets, dtype=float)
        r = out - targets
        return 0.5 * (r * r).sum() / n, r / n
    raise ValueError(f"unsupported loss {loss!r}")


def evaluate_loss(out: np.ndarray, loss: str, targets) -> float:
    return _loss_and_grad(out, loss, targets)[0]


def zero_gradients(g: ComputationGraph) -> GradientStore:
    grads: GradientStore = {}
    for vid, vx in g.vertices.items():
        if vx.params is not None:
            grads[vid] = {role: np.zeros_like(arr)
                          for role, arr in vx.params.trainable_items()}
    return grads


def backward(g: ComputationGraph, cache, loss: str, targets):
    """Compute (loss value, parameter gradients) from a train-mode cache."""
    out = cache["acts"][cache["out_id"]]
    value, dout = _loss_and_grad(out, loss, targets)
    grads = zero_gradients(g)
    dacts: dict[int, np.ndarray] = {cache["out_id"]: dout}
    for vid in reversed(g.topo_order):
        if vid not in dacts:
            continue  # dead-end vertex: no path to the loss
        bound = vid in g.input_binding
        dins = _backward_vertex(g.vertices[vid], cache["vcaches"][vid],
                                dacts.pop(vid), grads.get(vid, {}), need_dx=not bound)
        if bound:
            continue
        for p, d in zip(g.preds[vid], dins):
            if p in dacts:
                dacts[p] = dacts[p] + d
            else:
                dacts[p] = d
    return value, grads


def accuracy(out: np.ndarray, targets) -> float:
    return float((out.argmax(axis=1) == np.asarray(targets)).mean())
