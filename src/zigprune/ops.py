"""Op kinds of the graph IR: one frozen dataclass per op.

A kind's fields are its document attributes (a field with a default is
optional; its annotation, bound included, is what a value must be). Its
methods, documented on ``OpKind``, are all the rest of the system knows
about the op: shape, FLOPs, parameters, execution and surgery.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, fields, replace
from typing import Iterator, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (Count, FlattenWithoutKnownSpatialDims, GraphError, ShapeMismatchAtSDJoint,
                     Size)

# Vertex categories.
STEM = "stem"
ACCESSORY = "accessory"
SD_JOINT = "sd_joint"
SID_JOINT = "sid_joint"
UNKNOWN = "unknown"
OUTPUT = "output"

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
# Train-mode BatchNorm works on blocks of whole samples of about this many
# doubles (256 KiB), so that a block of x, its output and one temporary stay
# together in a core's 2 MiB L2 cache between passes.
BN_BLOCK = 32768

TRAINABLE_ROLES = ("weight", "bias", "gamma", "beta")


@dataclass
class ParameterSet:
    """Trainable tensors of one vertex.

    ``weight`` is 2-D with one row per output channel/feature; for Conv2d row j
    is the flattened jth 3-D filter laid out channel-major, so the k*k columns
    of input channel c occupy columns [c*k*k, (c+1)*k*k).
    """

    weight: Optional[np.ndarray] = None
    bias: Optional[np.ndarray] = None
    gamma: Optional[np.ndarray] = None
    beta: Optional[np.ndarray] = None
    running_mean: Optional[np.ndarray] = None
    running_var: Optional[np.ndarray] = None

    def trainable_items(self) -> Iterator[tuple[str, np.ndarray]]:
        for role in TRAINABLE_ROLES:
            arr = getattr(self, role)
            if arr is not None:
                yield role, arr

    def trainable_count(self) -> int:
        return sum(arr.size for _, arr in self.trainable_items())

    def copy(self) -> "ParameterSet":
        kw = {}
        for f in fields(self):
            arr = getattr(self, f.name)
            kw[f.name] = None if arr is None else arr.copy()
        return ParameterSet(**kw)


# ---------------------------------------------------------------------------
# convolution and pooling plumbing
# ---------------------------------------------------------------------------

def _conv_out(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise GraphError(f"spatial size {size} too small for kernel {kernel}")
    return out


def _windows(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    """(N, C, Ho, Wo, k, k) view of the k x k windows of x at ``stride``."""
    return sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]


def _im2col(x: np.ndarray, k: int, stride: int, pad: int):
    """Patches as (N, C*k*k + 1, Ho*Wo) columns, so ``[weight | bias] @ cols``
    is the conv output already in NCHW order. Row c*k*k + i*k + j of image n
    holds input channel c at kernel offset (i, j) for every output pixel, Wo
    innermost; the last row is all ones, the bias's input."""
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = _windows(x, k, stride)
    ho, wo = win.shape[2], win.shape[3]
    cols = np.empty((n, c * k * k + 1, ho * wo))
    # splitting both axes of the slice is a view, so this writes into cols
    cols[:, :-1].reshape(n, c, k, k, ho, wo)[...] = win.transpose(0, 1, 4, 5, 2, 3)
    cols[:, -1] = 1.0
    return cols, ho, wo


def _col2im(dwin: np.ndarray, x_shape, stride: int, pad: int) -> np.ndarray:
    """Scatter-add window gradients shaped (N, C, k, k, Ho, Wo) back onto the
    input: one strided (N, C, Ho, Wo) slice per kernel offset."""
    n, c, h, w = x_shape
    k, ho, wo = dwin.shape[3:]
    dxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    for i in range(k):
        for j in range(k):
            dxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += dwin[:, :, i, j]
    if pad:
        return dxp[:, :, pad:pad + h, pad:pad + w]
    return dxp


def _conv_columns(in_map: list[int], kernel: int) -> np.ndarray:
    kk = kernel * kernel
    return np.concatenate([np.arange(c * kk, (c + 1) * kk) for c in in_map]) \
        if in_map else np.empty(0, dtype=int)


def _narrow_stem(params: ParameterSet, keep_rows: list[int], cols) -> None:
    """Keep the weight's rows ``keep_rows`` and columns ``cols``, and the
    bias at ``keep_rows``."""
    params.weight = params.weight[np.ix_(keep_rows, cols)]
    if params.bias is not None:
        params.bias = params.bias[keep_rows]


def _tiles(kind, x_shape) -> bool:
    """True when the pooling windows tile the input exactly (no overlap, no rest)."""
    k = kind.kernel
    return kind.stride == k and x_shape[2] % k == 0 and x_shape[3] % k == 0


def _bn_view(x: np.ndarray) -> np.ndarray:
    """(N, C) or (N, C, H, W) as (N, C, S): BatchNorm reduces over axes 0 and 2.
    S is spelled out, not -1, so that N may be 0."""
    return x.reshape(*x.shape[:2], math.prod(x.shape[2:]))


def _sample_blocks(n: int, row: int) -> list[slice]:
    """Slices of whole samples of about ``BN_BLOCK`` doubles, at least one
    sample each, covering ``n`` samples of ``row`` doubles."""
    step = max(1, BN_BLOCK // row)
    return [slice(i, i + step) for i in range(0, n, step)]


def _channel_sums(blocks, a3, b3):
    """Per-channel sum of ``a3`` and of ``a3 * b3`` over (N, C, S) arrays,
    accumulated one sample block at a time."""
    total = np.zeros(a3.shape[1])
    dot = np.zeros(a3.shape[1])
    for blk in blocks:
        total += np.einsum("ncs->c", a3[blk])
        dot += np.einsum("ncs,ncs->c", a3[blk], b3[blk])
    return total, dot


def _numel(out_shape) -> int:
    return int(np.prod(out_shape[1:]))


# ---------------------------------------------------------------------------
# op kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OpKind:
    """Defaults: a single-input, shape-preserving, free accessory without
    parameters that passes its input and gradient through unchanged.
    Subclasses set ``op`` and, unless they are accessories, ``category``."""

    op = ""
    category = ACCESSORY

    def infer_shape(self, in_shapes: list[tuple[int, ...]], vid: int) -> tuple[int, ...]:
        return in_shapes[0]

    def flops(self, out_shape: tuple[int, ...], n_inputs: int) -> int:
        return 0

    def default_params(self) -> Optional[ParameterSet]:
        return None

    def width(self) -> Optional[int]:
        """Output channels or features of a stem; None for other kinds."""
        return None

    def label(self) -> str:
        return ""

    def forward(self, params, xs: list[np.ndarray], mode: str, src=None, memo=None,
                own=False):
        """Returns (output, cache for ``backward``); the engine drops an
        eval-mode cache unread. ``src`` names the tensor a single-input
        vertex reads. ``memo`` is a dict that lives for one forward pass:
        ops that read one ``src`` keep there what they would otherwise
        compute alike from it (im2col columns, BatchNorm sums). With
        ``own`` True (eval mode only) nothing else reads ``xs[0]`` or shares
        its memory, so the op may write its output into it; an op that does
        must compute the same values it computes without ``own``."""
        return xs[0], {}

    def backward(self, params, cache, dout: np.ndarray, grads: dict, need_dx: bool = True,
                 memo=None):
        """Accumulates parameter gradients into ``grads`` and returns the
        gradients w.r.t. the inputs, in input order. With ``need_dx`` False (a
        vertex that reads the graph input) kinds with parameters may return
        None instead. ``memo`` is a dict that lives for one backward pass, as
        ``forward``'s does for one forward pass."""
        return [dout]

    def narrow(self, params, keep_rows: list[int], in_map: Optional[list[int]]):
        """(kind, params) keeping output rows ``keep_rows`` and the input
        channels ``in_map`` (None: all); ``params`` is a private copy, or
        None to narrow the kind alone."""
        return self, params

    def channel_codes(self, codes: np.ndarray, in_shape: tuple[int, ...]) -> np.ndarray:
        """An accessory's channel codes (see ``partition._channel_origins``),
        one per output channel or feature, from its input's, whose shape is
        ``in_shape``."""
        return codes


@dataclass(frozen=True)
class Conv2d(OpKind):
    kernel: Size
    stride: Size
    padding: Count
    in_channels: Size
    out_channels: Size
    has_bias: bool = True

    op = "conv2d"
    category = STEM

    def infer_shape(self, in_shapes, vid):
        (n, c, h, w), = in_shapes
        if c != self.in_channels:
            raise GraphError(
                f"vertex {vid}: conv expects {self.in_channels} channels, got {c}"
            )
        return (n, self.out_channels,
                _conv_out(h, self.kernel, self.stride, self.padding),
                _conv_out(w, self.kernel, self.stride, self.padding))

    def flops(self, out_shape, n_inputs):
        _, _, ho, wo = out_shape
        flops = 2 * self.kernel ** 2 * self.in_channels * self.out_channels * ho * wo
        return flops + _numel(out_shape) if self.has_bias else flops

    def default_params(self):
        cols = self.kernel * self.kernel * self.in_channels
        return ParameterSet(
            weight=np.zeros((self.out_channels, cols)),
            bias=np.zeros(self.out_channels) if self.has_bias else None,
        )

    def width(self):
        return self.out_channels

    def label(self):
        return f"{self.in_channels}->{self.out_channels} k{self.kernel}"

    def forward(self, params, xs, mode, src=None, memo=None, own=False):
        """One GEMM per image, ``[weight | bias] @ cols``, with a zero bias
        column when there is no bias; the columns' last row is all ones."""
        x, = xs
        key = (src, self.kernel, self.stride, self.padding)
        memo = {} if memo is None else memo
        if key not in memo:
            memo[key] = _im2col(x, self.kernel, self.stride, self.padding)
        cols, ho, wo = memo[key]
        bias = np.zeros(self.out_channels) if params.bias is None else params.bias
        out = np.column_stack((params.weight, bias)) @ cols
        out = out.reshape(x.shape[0], self.out_channels, ho, wo)
        return out, {"cols": cols, "x_shape": x.shape}

    def backward(self, params, cache, dout, grads, need_dx=True, memo=None):
        # The columns' row of ones makes the last column of the GEMM's
        # gradient the bias gradient.
        d3 = dout.reshape(dout.shape[0], self.out_channels, -1)
        dwb = (d3 @ cache["cols"].transpose(0, 2, 1)).sum(axis=0)
        grads["weight"] += dwb[:, :-1]
        if params.bias is not None:
            grads["bias"] += dwb[:, -1]
        if not need_dx:
            return None
        n, _, ho, wo = dout.shape
        k = self.kernel
        dwin = (params.weight.T @ d3).reshape(n, self.in_channels, k, k, ho, wo)
        return [_col2im(dwin, cache["x_shape"], self.stride, self.padding)]

    def narrow(self, params, keep_rows, in_map):
        if in_map is None:
            in_map = list(range(self.in_channels))
        if params is not None:
            _narrow_stem(params, keep_rows, _conv_columns(in_map, self.kernel))
        return replace(self, in_channels=len(in_map), out_channels=len(keep_rows)), params


@dataclass(frozen=True)
class Linear(OpKind):
    in_features: Size
    out_features: Size
    has_bias: bool = True

    op = "linear"
    category = STEM

    def infer_shape(self, in_shapes, vid):
        (n, f), = in_shapes
        if f != self.in_features:
            raise GraphError(
                f"vertex {vid}: linear expects {self.in_features} features, got {f}"
            )
        return (n, self.out_features)

    def flops(self, out_shape, n_inputs):
        flops = 2 * self.in_features * self.out_features
        return flops + self.out_features if self.has_bias else flops

    def default_params(self):
        return ParameterSet(
            weight=np.zeros((self.out_features, self.in_features)),
            bias=np.zeros(self.out_features) if self.has_bias else None,
        )

    def width(self):
        return self.out_features

    def label(self):
        return f"{self.in_features}->{self.out_features}"

    def forward(self, params, xs, mode, src=None, memo=None, own=False):
        x, = xs
        out = x @ params.weight.T
        if params.bias is not None:
            out += params.bias
        return out, {"x": x}

    def backward(self, params, cache, dout, grads, need_dx=True, memo=None):
        grads["weight"] += dout.T @ cache["x"]
        if params.bias is not None:
            grads["bias"] += dout.sum(axis=0)
        if not need_dx:
            return None
        return [dout @ params.weight]

    def narrow(self, params, keep_rows, in_map):
        if in_map is None:
            in_map = list(range(self.in_features))
        if params is not None:
            _narrow_stem(params, keep_rows, in_map)
        return replace(self, in_features=len(in_map), out_features=len(keep_rows)), params


@dataclass(frozen=True)
class BatchNorm(OpKind):
    channels: Size

    op = "batch_norm"

    def infer_shape(self, in_shapes, vid):
        shape, = in_shapes
        if shape[1] != self.channels:
            raise GraphError(
                f"vertex {vid}: batch_norm expects {self.channels} channels, got {shape[1]}"
            )
        return shape

    def flops(self, out_shape, n_inputs):
        return 2 * _numel(out_shape)

    def default_params(self):
        c = self.channels
        return ParameterSet(
            gamma=np.ones(c), beta=np.zeros(c),
            running_mean=np.zeros(c), running_var=np.ones(c),
        )

    def label(self):
        return f"C={self.channels}"

    def forward(self, params, xs, mode, src=None, memo=None, own=False):
        """Both modes write ``x * a + b`` with ``a = gamma * inv_std`` and
        ``b = beta - mean * a``. Train mode takes ``mean`` and ``inv_std``
        from the batch and updates the running statistics; it reads x in
        blocks of whole samples (``BN_BLOCK``), once for the per-channel sum
        and sum of squares and once for the output, against the coefficient
        rows ``np.repeat(a, S)`` and ``np.repeat(b, S)``. BatchNorms that
        read one ``src`` share the sums through ``memo``; its cache holds
        ``mean`` and ``inv_std``, which ``backward`` reads. Eval mode uses the
        running statistics in two full-size passes, through the input's
        (N, C, S) view when it ``own``s x, and keeps no cache."""
        x, = xs
        x3 = _bn_view(x)
        if mode == "train":
            n, _, s = x3.shape
            blocks = _sample_blocks(n, x3[0].size)
            memo = {} if memo is None else memo
            key = ("bn", src)
            if key not in memo:
                memo[key] = _channel_sums(blocks, x3, x3)
            total, squares = memo[key]
            mean = total / (n * s)
            var = squares / (n * s) - mean * mean
            np.maximum(var, 0.0, out=var)
            params.running_mean *= 1.0 - BN_MOMENTUM
            params.running_mean += BN_MOMENTUM * mean
            params.running_var *= 1.0 - BN_MOMENTUM
            params.running_var += BN_MOMENTUM * var
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            a = params.gamma * inv_std
            a_row = np.repeat(a, s)
            b_row = np.repeat(params.beta - mean * a, s)
            x2 = x3.reshape(n, -1)
            out = np.empty_like(x2)
            for blk in blocks:
                ob = np.multiply(x2[blk], a_row, out=out[blk])
                ob += b_row
            return out.reshape(x.shape), {"x": x3, "mean": mean, "inv_std": inv_std,
                                          "src": src}
        a = params.gamma * (1.0 / np.sqrt(params.running_var + BN_EPS))
        out = np.multiply(x3, a[:, None], out=x3 if own else None)
        out += (params.beta - params.running_mean * a)[:, None]
        return out.reshape(x.shape), {}

    def backward(self, params, cache, dout, grads, need_dx=True, memo=None):
        # With xhat = (x - mean) * inv_std and a = gamma * inv_std:
        # sum(d * xhat) = (sum(d * x) - mean * sum(d)) * inv_std, and
        # dx = a * (d - sum(d) / m - xhat * sum(d * xhat) / m), which is
        # a * d + c2 * x + c3 with per-channel c2 and c3. Both passes run in
        # sample blocks; dx is written through one block-sized temporary.
        # BatchNorms that read one src and get one dout array share sum(d)
        # and sum(d * x). The memo entry keeps a weak reference to dout: an
        # entry whose dout has died does not match a new array given its id,
        # and the pass frees each gradient as soon as it would without a memo.
        x3, mean, inv_std = cache["x"], cache["mean"], cache["inv_std"]
        d3 = _bn_view(dout)
        n, _, s = x3.shape
        blocks = _sample_blocks(n, x3[0].size)
        memo = {} if memo is None else memo
        key = ("bn", cache["src"], id(dout))
        if key not in memo or memo[key][0]() is not dout:
            memo[key] = (weakref.ref(dout), *_channel_sums(blocks, d3, x3))
        _, sum_d, sum_dx = memo[key]
        sum_dxhat = (sum_dx - mean * sum_d) * inv_std
        grads["gamma"] += sum_dxhat
        grads["beta"] += sum_d
        if not need_dx:
            return None
        scale = params.gamma * inv_std
        m = n * s
        c2 = -(scale / m) * sum_dxhat * inv_std
        c3 = -(scale / m) * sum_d - c2 * mean
        scale_row, c2_row, c3_row = (np.repeat(v, s) for v in (scale, c2, c3))
        x2, d2 = x3.reshape(n, -1), d3.reshape(n, -1)
        dx = np.empty_like(d2)
        tmp = np.empty_like(d2[blocks[0]])
        for blk in blocks:
            db = np.multiply(d2[blk], scale_row, out=dx[blk])
            tb = np.multiply(x2[blk], c2_row, out=tmp[:len(db)])
            db += tb
            db += c3_row
        return [dx.reshape(dout.shape)]

    def narrow(self, params, keep_rows, in_map):
        if in_map is None or len(in_map) == self.channels:
            return self, params
        if params is not None:
            keep = np.asarray(in_map)
            for role in ("gamma", "beta", "running_mean", "running_var"):
                setattr(params, role, getattr(params, role)[keep])
        return replace(self, channels=len(in_map)), params


@dataclass(frozen=True)
class ReLU(OpKind):
    op = "relu"

    def flops(self, out_shape, n_inputs):
        return _numel(out_shape)

    def forward(self, params, xs, mode, src=None, memo=None, own=False):
        """Train mode caches the mask ``out > 0``, not the output, so the
        output dies with its last consumer."""
        x, = xs
        out = np.maximum(x, 0.0, out=x if own else None)
        return out, {"mask": out > 0} if mode == "train" else {}

    def backward(self, params, cache, dout, grads, need_dx=True, memo=None):
        return [dout * cache["mask"]]


@dataclass(frozen=True)
class _Pool(OpKind):
    kernel: Size
    stride: Size

    def infer_shape(self, in_shapes, vid):
        (n, c, h, w), = in_shapes
        ho = (h - self.kernel) // self.stride + 1
        wo = (w - self.kernel) // self.stride + 1
        if ho < 1 or wo < 1:
            raise GraphError(f"vertex {vid}: pool kernel larger than input")
        return (n, c, ho, wo)

    def flops(self, out_shape, n_inputs):
        return self.kernel ** 2 * _numel(out_shape)


@dataclass(frozen=True)
class MaxPool(_Pool):
    op = "max_pool"

    def forward(self, params, xs, mode, src=None, memo=None, own=False):
        x, = xs
        win = _windows(x, self.kernel, self.stride)
        flat = win.reshape(*win.shape[:4], self.kernel ** 2)
        arg = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
        return out, {"arg": arg, "x_shape": x.shape}

    def backward(self, params, cache, dout, grads, need_dx=True, memo=None):
        k = self.kernel
        dwin = np.zeros((*dout.shape, k * k))
        np.put_along_axis(dwin, cache["arg"][..., None], dout[..., None], axis=-1)
        dwin = dwin.reshape(*dout.shape, k, k).transpose(0, 1, 4, 5, 2, 3)
        return [_col2im(dwin, cache["x_shape"], self.stride, 0)]


@dataclass(frozen=True)
class AvgPool(_Pool):
    op = "avg_pool"

    def forward(self, params, xs, mode, src=None, memo=None, own=False):
        x, = xs
        k = self.kernel
        if _tiles(self, x.shape):
            out = x[:, :, ::k, ::k].copy()
            for i in range(k):
                for j in range(k):
                    if i or j:
                        out += x[:, :, i::k, j::k]
            out /= k * k
        else:
            out = _windows(x, k, self.stride).mean(axis=(-2, -1))
        return out, {"x_shape": x.shape}

    def backward(self, params, cache, dout, grads, need_dx=True, memo=None):
        n, c, ho, wo = dout.shape
        k = self.kernel
        if _tiles(self, cache["x_shape"]):
            # Widen each row k-fold, then copy it to the window's k rows. One
            # 6-D broadcast copy is slower: numpy's inner loop would run over
            # just k elements.
            wide = np.repeat(dout / (k * k), k, axis=3)
            tiled = np.broadcast_to(wide[:, :, :, None, :], (n, c, ho, k, wo * k))
            return [tiled.reshape(cache["x_shape"])]
        dwin = np.broadcast_to((dout / (k * k))[:, :, None, None], (n, c, k, k, ho, wo))
        return [_col2im(dwin, cache["x_shape"], self.stride, 0)]


@dataclass(frozen=True)
class Flatten(OpKind):
    op = "flatten"

    def infer_shape(self, in_shapes, vid):
        shape, = in_shapes
        if len(shape) != 4:
            raise FlattenWithoutKnownSpatialDims(
                f"vertex {vid}: flatten needs a rank-4 input, got {shape}"
            )
        n, c, h, w = shape
        return (n, c * h * w)

    def forward(self, params, xs, mode, src=None, memo=None, own=False):
        x, = xs
        return x.reshape(x.shape[0], math.prod(x.shape[1:])), {"x_shape": x.shape}

    def backward(self, params, cache, dout, grads, need_dx=True, memo=None):
        return [dout.reshape(cache["x_shape"])]

    def channel_codes(self, codes, in_shape):
        _, _, h, w = in_shape
        return np.repeat(codes, h * w)  # channel-major, as forward flattens


@dataclass(frozen=True)
class _Elementwise(OpKind):
    """Add and Mul: equal input shapes, (n_inputs - 1) FLOPs per element."""

    category = SD_JOINT

    def infer_shape(self, in_shapes, vid):
        first = in_shapes[0]
        for s in in_shapes[1:]:
            if s != first:
                raise ShapeMismatchAtSDJoint(
                    f"vertex {vid}: {self.op} inputs {first} vs {s}"
                )
        return first

    def flops(self, out_shape, n_inputs):
        return (n_inputs - 1) * _numel(out_shape)


@dataclass(frozen=True)
class Add(_Elementwise):
    op = "add"

    def forward(self, params, xs, mode, src=None, memo=None, own=False):
        out = np.add(xs[0], xs[1], out=xs[0] if own else None)
        for x in xs[2:]:
            out += x
        return out, {"n": len(xs)}

    def backward(self, params, cache, dout, grads, need_dx=True, memo=None):
        return [dout] * cache["n"]


@dataclass(frozen=True)
class Mul(_Elementwise):
    op = "mul"

    def forward(self, params, xs, mode, src=None, memo=None, own=False):
        out = np.multiply(xs[0], xs[1], out=xs[0] if own else None)
        for x in xs[2:]:
            out *= x
        return out, {"xs": xs}

    def backward(self, params, cache, dout, grads, need_dx=True, memo=None):
        xs = cache["xs"]
        dins = []
        for i in range(len(xs)):
            d = dout.copy()
            for j, x in enumerate(xs):
                if j != i:
                    d *= x
            dins.append(d)
        return dins


@dataclass(frozen=True)
class Concat(OpKind):
    # channel/feature axis only
    op = "concat"
    category = SID_JOINT

    def infer_shape(self, in_shapes, vid):
        first = in_shapes[0]
        for s in in_shapes[1:]:
            if len(s) != len(first) or s[0] != first[0] or s[2:] != first[2:]:
                raise GraphError(
                    f"vertex {vid}: concat inputs differ outside the channel axis"
                )
        channels = sum(s[1] for s in in_shapes)
        return (first[0], channels, *first[2:])

    def forward(self, params, xs, mode, src=None, memo=None, own=False):
        widths = [x.shape[1] for x in xs]
        return np.concatenate(xs, axis=1), {"widths": widths}

    def backward(self, params, cache, dout, grads, need_dx=True, memo=None):
        splits = np.cumsum(cache["widths"])[:-1]
        return list(np.split(dout, splits, axis=1))


@dataclass(frozen=True)
class Unknown(OpKind):
    """Opaque custom op: assumed shape-preserving, never executed."""

    opname: str

    op = "unknown"
    category = UNKNOWN

    def label(self):
        return self.opname

    def forward(self, params, xs, mode, src=None, memo=None, own=False):
        raise GraphError(f"cannot execute unknown op {self.opname!r}")


@dataclass(frozen=True)
class GraphOutput(OpKind):
    op = "output"
    category = OUTPUT


KINDS = (Conv2d, Linear, BatchNorm, ReLU, MaxPool, AvgPool, Flatten,
         Add, Mul, Concat, Unknown, GraphOutput)
