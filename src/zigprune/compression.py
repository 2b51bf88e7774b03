"""Compressed-graph construction from zero groups.

Removing a zero group deletes its filter rows / bias / per-channel scalars on
the producer side and erases the matching input-channel slices of every
consumer (weight column blocks for convolutions, flat-feature columns after a
Flatten, per-channel statistics for normalization), so the pruned graph
reproduces the full graph's eval-mode outputs exactly.

Surgery reads the partition's channel table (``PartitionResult.channel_groups``)
and walks no graph of its own, in index-array passes: ``build_channel_maps``
gives each vertex an array of its surviving output channels, and ``prune``
narrows every operator to its own array (output rows) and its predecessor's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (AllGroupsZeroInComponent, ConfigError, GraphError,
                     ShapeMismatchAfterPrune)
from .graph import ComputationGraph, Vertex, count_flops_params
from .partition import PartitionResult
from .engine import EVAL_BATCH, forward


@dataclass
class PruneMask:
    zero_flags: np.ndarray            # bool, aligned with partition.zigs
    survivors: dict[int, np.ndarray]  # component id -> surviving group indices, ascending

    @property
    def empty(self) -> bool:
        return not self.zero_flags.any()

    def zero_group_count(self) -> int:
        return int(np.count_nonzero(self.zero_flags))


def detect_zero_groups(g: ComputationGraph, part: PartitionResult) -> PruneMask:
    """Flag groups whose every parameter row is exactly zero.

    Row k of each grouped array of a vertex belongs to group ``owners[k]``
    of ``part.table``; each row's nonzero flag is or-ed into its owner's,
    and rows no group owns (-1) land in a spare last slot.

    Raises AllGroupsZeroInComponent when a component would lose all groups;
    a zero-width operator cannot be constructed.
    """
    nonzero = np.zeros(len(part.zigs) + 1, dtype=bool)
    for vid, owners, roles in part.table.grouped:
        for role in roles:
            arr = getattr(g.vertices[vid].params, role)
            nonzero[owners[arr.reshape(len(arr), -1).any(axis=1)]] = True
    return make_mask(part, np.flatnonzero(~nonzero[:-1]))


def make_mask(part: PartitionResult, zero_group_ids) -> PruneMask:
    """Mask that removes the groups at the given positions into part.zigs
    (an index array or list; repeats allowed). part.zigs is in (component,
    index) order: a component's survivors are the unflagged offsets in its block.

    Raises ConfigError naming the first position outside [0, len(part.zigs)),
    and AllGroupsZeroInComponent when a component would lose all groups.
    """
    ids = np.asarray(zero_group_ids, dtype=np.intp)
    bad = ids[(ids < 0) | (ids >= len(part.zigs))]
    if bad.size:
        raise ConfigError(f"group position {bad[0]} is outside [0, {len(part.zigs)})")
    flags = np.zeros(len(part.zigs), dtype=bool)
    flags[ids] = True
    survivors: dict[int, np.ndarray] = {}
    starts = np.cumsum([0] + part.widths)
    for ci, width in enumerate(part.widths):
        if width:
            kept = np.flatnonzero(~flags[starts[ci]:starts[ci] + width])
            if not kept.size:
                raise AllGroupsZeroInComponent(f"component {ci}: all {width} groups "
                                               "would be removed")
            survivors[ci] = kept
    return PruneMask(zero_flags=flags, survivors=survivors)


# ---------------------------------------------------------------------------
# channel maps and surgery
# ---------------------------------------------------------------------------

def build_channel_maps(g: ComputationGraph, part: PartitionResult,
                       mask: PruneMask) -> dict[int, np.ndarray]:
    """Per vertex: an index array of its surviving output channels.

    Channel k survives unless the group that ``part.channel_groups``
    records for it is zero; a channel no group controls (-1) reads the
    trailing True of ``keep``. Concat offsets and Flatten blocks are
    already in the table.
    """
    keep = np.append(~mask.zero_flags, True)
    return {vid: np.flatnonzero(keep[owners]) for vid, owners in part.channel_groups.items()}


def prune(g: ComputationGraph, mask: PruneMask,
          maps: dict[int, np.ndarray]) -> ComputationGraph:
    """Build the pruned graph: same topology, narrowed operators."""
    new_vertices: dict[int, Vertex] = {}
    for vid, vx in g.vertices.items():
        # a graph input has nothing pruned upstream
        in_map = maps[g.preds[vid][0]] if g.preds[vid] else None
        params = vx.params.copy() if vx.params is not None else None
        kind, params = vx.kind.narrow(params, maps[vid], in_map)
        new_vertices[vid] = Vertex(id=vid, kind=kind, name=vx.name, params=params)

    try:
        pruned = ComputationGraph(vertices=new_vertices, edges=list(g.edges),
                                  input_shapes=list(g.input_shapes),
                                  input_binding=dict(g.input_binding))
    except GraphError as exc:
        raise ShapeMismatchAfterPrune(str(exc)) from exc
    if not mask.empty:
        full, small = count_flops_params(g), count_flops_params(pruned)
        if not (small[0] < full[0] and small[1] < full[1]):
            raise ShapeMismatchAfterPrune("pruning did not reduce the graph")
    return pruned


def group_flops_savings(g: ComputationGraph, part: PartitionResult) -> list[int]:
    """Per-sample FLOPs saved by removing each group alone, aligned with
    part.zigs.

    Groups of one component have identical shapes, so each component's
    first group stands for all of them. One ``np.unique`` over every
    vertex's ``part.channel_groups`` counts the channels such a group owns;
    each vertex where it owns output channels, or its first input's, has its
    kind narrowed as ``prune`` would (``narrow`` without parameters), and the
    kind's ``flops`` before and after differ by the saving. A component of
    width 1 can never lose its only group and saves 0.
    """
    widths = np.array(part.widths, dtype=np.intp)
    first = np.full(len(part.zigs) + 1, -1)  # a component's first group -> the component
    first[(np.cumsum(widths) - widths)[widths > 1]] = np.flatnonzero(widths > 1)
    vids, tables = list(part.channel_groups), list(part.channel_groups.values())
    owners = first[np.concatenate(tables)]
    row = np.repeat(np.arange(len(vids)), [len(t) for t in tables])
    keys, counts = np.unique((row * len(widths) + owners)[owners >= 0], return_counts=True)
    owned = {vid: {} for vid in vids}  # vid -> {component: channels its first group owns}
    for key, count in zip(keys.tolist(), counts.tolist()):
        owned[vids[key // len(widths)]][key % len(widths)] = count
    saving = [0] * len(widths)
    for vid, outs in owned.items():
        vx, preds = g.vertices[vid], g.preds[vid]
        ins = owned[preds[0]] if preds else {}
        if not (outs or ins):
            continue
        full = vx.kind.flops(vx.out_shape, len(preds))
        for ci in outs.keys() | ins.keys():
            kept = vx.out_shape[1] - outs.get(ci, 0)
            in_map = range(g.vertices[preds[0]].out_shape[1] - ins.get(ci, 0)) if preds else None
            kind, _ = vx.kind.narrow(None, range(kept), in_map)
            shape = (vx.out_shape[0], kept, *vx.out_shape[2:])
            saving[ci] += full - kind.flops(shape, len(preds))
    return np.repeat(saving, widths).tolist()


def compress(g: ComputationGraph, part: PartitionResult,
             mask: Optional[PruneMask] = None) -> tuple[ComputationGraph, PruneMask]:
    """detect + map + prune in one call."""
    if mask is None:
        mask = detect_zero_groups(g, part)
    maps = build_channel_maps(g, part, mask)
    return prune(g, mask, maps), mask


# ---------------------------------------------------------------------------
# equivalence check
# ---------------------------------------------------------------------------

def verify_equivalence(full: ComputationGraph, compressed: ComputationGraph,
                       n_trials: int = 100, tol: float = 1e-9,
                       rng: Optional[np.random.Generator] = None) -> dict:
    """Max |full(x) - compressed(x)| over ``n_trials`` random eval-mode
    inputs of two samples each; the gate is absolute. ``max_rel_diff``
    divides each trial's max by that trial's max |full(x)|, which tells
    rounding from a wrong cut on deep graphs whose outputs are large.

    Each trial's inputs are drawn on their own, trial by trial and input by
    input, so the samples and the state ``rng`` is left in do not depend on
    how trials are grouped; whole trials then run ``EVAL_BATCH // 2`` to a
    forward. A NaN difference makes ``max_abs_diff`` NaN and fails the
    check.

    Raises ConfigError unless n_trials is at least 1.
    """
    if n_trials < 1:
        raise ConfigError(f"the equivalence check needs n_trials >= 1, got {n_trials}")
    rng = rng or np.random.default_rng(0)
    per_forward = EVAL_BATCH // 2
    worst = worst_rel = 0.0
    for done in range(0, n_trials, per_forward):
        trials = min(per_forward, n_trials - done)
        draws = [[rng.normal(size=(2, *shape[1:])) for shape in full.input_shapes]
                 for _ in range(trials)]
        xs = [np.concatenate(arrays) for arrays in zip(*draws)]
        y_full = forward(full, xs, mode="eval")[0]
        y_small = forward(compressed, xs, mode="eval")[0]
        if y_full.shape != y_small.shape:
            return {"n_trials": n_trials, "tol": tol, "max_abs_diff": float("inf"),
                    "max_rel_diff": float("inf"), "passed": False}
        diff = np.abs(y_full - y_small).reshape(trials, -1).max(axis=1)
        worst = float(np.maximum(worst, diff.max()))  # NaN stays NaN and fails
        hit = diff > 0
        if hit.any():
            scale = np.abs(y_full).reshape(trials, -1).max(axis=1)[hit]
            with np.errstate(divide="ignore"):
                worst_rel = max(worst_rel, float((diff[hit] / scale).max()))
    return {"n_trials": n_trials, "tol": tol, "max_abs_diff": worst,
            "max_rel_diff": worst_rel, "passed": worst < tol}
