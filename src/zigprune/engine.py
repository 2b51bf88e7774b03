"""Forward/reverse execution engine for the graph IR.

Double precision throughout. ``forward`` evaluates the graph on a batch and
returns its output and, in train mode, a cache for backward; ``backward``
turns a loss into per-vertex parameter gradients averaged over the batch.
Training mode uses batch statistics in BatchNorm (and updates running
statistics in place, momentum 0.1). Eval mode is inference only, a pure
function of (params, input): it walks the batch ``EVAL_BATCH`` samples at a
time and keeps no cache, so nothing can differentiate an eval pass.
"""

from __future__ import annotations

import ctypes
import sys

import numpy as np

from .errors import ShapeMismatch
from .graph import ComputationGraph

# GradientStore: vertex id -> role -> array, mirroring ParameterSet layouts.
GradientStore = dict[int, dict[str, np.ndarray]]

# Samples per walk of an eval-mode forward: small enough that a chunk's
# activations and conv columns stay in a core's L2 cache (README, "Eval in
# chunks").
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


def _owns(vin: list[np.ndarray], xs: list[np.ndarray], acts: dict) -> bool:
    """Whether an eval op may write into its first input: no graph input,
    other input of this vertex or live activation shares its memory, so
    the walk made it and has dropped it after this vertex, its last reader.
    An empty array shares memory with nothing, so one that is a view of a
    read-only graph input is caught by the writable flag alone."""
    x = vin[0]
    return x.flags.writeable and not any(np.may_share_memory(x, y)
                                         for y in (*xs, *vin[1:], *acts.values()))


def _walk(g: ComputationGraph, xs: list[np.ndarray], out_id: int, mode: str):
    """One pass over the graph: (output, each vertex's op cache), or
    (output, None) in eval mode, which drops every op cache as the op
    returns and lets an op write into an input it ``own``s (``_owns``)."""
    pending = {vid: len(succs) for vid, succs in g.succs.items()}
    pending[out_id] += 1  # so the output is never dropped
    acts: dict[int, np.ndarray] = {}
    vcaches = {} if mode == "train" else None
    memo: dict = {}
    for vid in g.topo_order:
        if vid in g.input_binding:
            src = ("input", g.input_binding[vid])
            vin = [xs[src[1]]]
        else:
            src = g.preds[vid][0]
            vin = [acts[p] for p in g.preds[vid]]
            for p in g.preds[vid]:
                pending[p] -= 1
                if not pending[p]:
                    del acts[p]
        vx = g.vertices[vid]
        if vcaches is None:
            acts[vid], vcache = vx.kind.forward(vx.params, vin, mode, src, memo,
                                                own=_owns(vin, xs, acts))
        else:
            acts[vid], vcache = vx.kind.forward(vx.params, vin, mode, src, memo)
            vcaches[vid] = vcache
        del vin, vcache
        if not pending[vid]:
            del acts[vid]
    return acts.pop(out_id), vcaches


def forward(g: ComputationGraph, inputs, mode: str = "train"):
    """Evaluate the graph; returns (output array, cache for backward), with
    None for the cache in eval mode.

    A vertex's output is dropped as soon as the last of its consumers has
    run, counting one consumer per edge, and a dead-end vertex's at once; the
    graph output is kept. The train-mode cache holds the output and each
    op's own cache, which keeps whatever that op's backward reads, so an
    activation no op cache references is freed during the pass; ``backward``
    consumes the cache.

    A train-mode forward of an empty batch is a ShapeMismatch. Eval mode
    walks the batch ``EVAL_BATCH`` samples at a time, every graph input
    sliced alike, each walk with its own memo, and copies each walk's output
    into one array as the walk returns, so no chunk output stays live across
    walks; a batch of at most ``EVAL_BATCH`` samples is one walk with no
    copy. Each op's cache is dropped as the op returns, and an op may write
    its output into a dead input that nothing live shares (``_owns``); no
    train walk writes an activation, and no walk writes the caller's arrays.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be train or eval, got {mode!r}")
    xs = _as_batch_list(g, inputs)
    n = len(xs[0])
    if mode == "train":
        if not n:
            raise ShapeMismatch("a train-mode forward needs a sample; the batch is empty")
        out, vcaches = _walk(g, xs, g.output_id, mode)
        return out, {"out": out, "vcaches": vcaches, "out_id": g.output_id}
    if n <= EVAL_BATCH:
        return _walk(g, xs, g.output_id, mode)[0], None
    out = None
    for lo in range(0, n, EVAL_BATCH):
        chunk = _walk(g, [x[lo:lo + EVAL_BATCH] for x in xs], g.output_id, mode)[0]
        if out is None:
            out = np.empty((n, *chunk.shape[1:]), chunk.dtype)
        out[lo:lo + len(chunk)] = chunk
    return out, None


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
    """Compute (loss value, parameter gradients) from a train-mode forward
    cache; BatchNorm differentiates through the batch statistics. Raises
    ValueError given anything else: eval-mode forwards keep no cache.

    The cache is consumed: its output is dropped once the loss gradient is
    built, and each vertex's op cache as the reverse pass leaves that
    vertex, so cached activations are freed during the pass. A cache that
    an earlier backward consumed is a ValueError.
    """
    if not isinstance(cache, dict) or "vcaches" not in cache:
        raise ValueError("backward needs a train-mode forward cache; "
                         "eval-mode forwards keep no cache")
    if "out" not in cache:
        raise ValueError("this forward cache was consumed by an earlier "
                         "backward; run forward again")
    value, dout = _loss_and_grad(cache["out"], loss, targets)
    del cache["out"]
    vcaches = cache["vcaches"]
    grads = zero_gradients(g)
    dacts: dict[int, np.ndarray] = {cache["out_id"]: dout}
    memo: dict = {}
    for vid in reversed(g.topo_order):
        vcache = vcaches.pop(vid)
        if vid not in dacts:
            continue  # dead-end vertex: no path to the loss
        bound = vid in g.input_binding
        vx = g.vertices[vid]
        dins = vx.kind.backward(vx.params, vcache, dacts.pop(vid),
                                grads.get(vid, {}), need_dx=not bound, memo=memo)
        del vcache
        if bound:
            continue
        for p, d in zip(g.preds[vid], dins):
            dacts[p] = dacts[p] + d if p in dacts else d
    return value, grads


def accuracy(out: np.ndarray, targets) -> float:
    return float((out.argmax(axis=1) == np.asarray(targets)).mean())
