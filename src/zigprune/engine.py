"""Forward/reverse execution engine for the graph IR.

Double precision throughout. ``forward`` evaluates the graph on a batch and
returns an activation cache; ``backward`` turns a loss into per-vertex
parameter gradients averaged over the batch. Training mode uses batch
statistics in BatchNorm (and updates running statistics in place, momentum
0.1); eval mode is a pure function of (params, input).
"""

from __future__ import annotations

import ctypes
import sys

import numpy as np

from .errors import ShapeMismatch
from .graph import ComputationGraph

# GradientStore: vertex id -> role -> array, mirroring ParameterSet layouts.
GradientStore = dict[int, dict[str, np.ndarray]]

# Samples per eval forward, for evaluation and the equivalence check: small
# enough that a chunk's activations and conv columns stay in a core's L2
# cache (README, "Eval in chunks").
EVAL_BATCH = 32


def _keep_freed_memory() -> None:
    """Have glibc's malloc keep freed array buffers for the next step.

    By default glibc serves large arrays with their own mmap and returns
    them, and the free top of the heap, to the kernel when freed, so every
    forward pass faulted its activations' pages in again (about 6k minor
    faults and a third of the time of a 512-sample eval of the narrowed
    demo_net).
    M_MMAP_THRESHOLD (-3) at glibc's 64-bit maximum of 32 MiB puts every
    per-step array on the heap (the largest, batch-256 conv columns, is
    about 14 MB); M_TRIM_THRESHOLD (-1) at 1 GiB keeps the heap from
    shrinking between steps. Setting either one turns off glibc's dynamic
    thresholds and leaves the other at its 128 KiB default, so both are set.
    Resident memory stays at its peak. This acts on the whole process, adds
    no setting and changes no result; it runs only on Linux where the C
    library exports ``mallopt``, and elsewhere does nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


_keep_freed_memory()


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


def forward(g: ComputationGraph, inputs, mode: str = "train"):
    """Evaluate the graph; returns (output array, cache for backward)."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be train or eval, got {mode!r}")
    xs = _as_batch_list(g, inputs)
    acts: dict[int, np.ndarray] = {}
    vcaches: dict[int, dict] = {}
    memo: dict = {}
    for vid in g.topo_order:
        if vid in g.input_binding:
            src = ("input", g.input_binding[vid])
            vin = [xs[src[1]]]
        else:
            src = g.preds[vid][0]
            vin = [acts[p] for p in g.preds[vid]]
        vx = g.vertices[vid]
        acts[vid], vcaches[vid] = vx.kind.forward(vx.params, vin, mode, src, memo)
    out_id = g.output_id if g.output_id is not None else g.topo_order[-1]
    cache = {"acts": acts, "vcaches": vcaches, "mode": mode, "out_id": out_id}
    return acts[out_id], cache


def _loss_terms(out: np.ndarray, loss: str, targets):
    """(loss value, what its gradient is built from): the log-softmax for
    cross-entropy, the residual for mse."""
    n = out.shape[0]
    if loss == "cross_entropy":
        z = out - out.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        return -logp[np.arange(n), np.asarray(targets, dtype=int)].mean(), logp
    if loss == "mse":
        r = out - np.asarray(targets, dtype=float)
        return 0.5 * (r * r).sum() / n, r
    raise ValueError(f"unsupported loss {loss!r}")


def _loss_and_grad(out: np.ndarray, loss: str, targets: np.ndarray):
    value, terms = _loss_terms(out, loss, targets)
    n = out.shape[0]
    if loss == "cross_entropy":
        dout = np.exp(terms)
        dout[np.arange(n), np.asarray(targets, dtype=int)] -= 1.0
        return value, dout / n
    return value, terms / n


def evaluate_loss(out: np.ndarray, loss: str, targets) -> float:
    """The loss value alone; no gradient is built."""
    return _loss_terms(out, loss, targets)[0]


def zero_gradients(g: ComputationGraph) -> GradientStore:
    grads: GradientStore = {}
    for vid, vx in g.vertices.items():
        if vx.params is not None:
            grads[vid] = {role: np.zeros_like(arr)
                          for role, arr in vx.params.trainable_items()}
    return grads


def backward(g: ComputationGraph, cache, loss: str, targets):
    """Compute (loss value, parameter gradients) from a forward cache.

    Both modes are supported: on a train-mode cache BatchNorm differentiates
    through the batch statistics, on an eval-mode cache through its fixed
    running statistics.
    """
    out = cache["acts"][cache["out_id"]]
    value, dout = _loss_and_grad(out, loss, targets)
    grads = zero_gradients(g)
    dacts: dict[int, np.ndarray] = {cache["out_id"]: dout}
    memo: dict = {}
    for vid in reversed(g.topo_order):
        if vid not in dacts:
            continue  # dead-end vertex: no path to the loss
        bound = vid in g.input_binding
        vx = g.vertices[vid]
        dins = vx.kind.backward(vx.params, cache["vcaches"][vid], dacts.pop(vid),
                                grads.get(vid, {}), need_dx=not bound, memo=memo)
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
