"""Compressed-graph construction from zero groups.

Removing a zero group deletes its filter rows / bias / per-channel scalars on
the producer side and erases the matching input-channel slices of every
consumer (weight column blocks for convolutions, flat-feature columns after a
Flatten, per-channel statistics for normalization), so the pruned graph
reproduces the full graph's eval-mode outputs exactly.

Surgery reads the partition's channel table (``PartitionResult.channel_groups``)
and walks no graph of its own: ``build_channel_maps`` lists each vertex's
surviving output channels, and ``prune`` narrows every operator to its own
list (output rows) and its predecessor's list (input channels).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (AllGroupsZeroInComponent, ConfigError, GraphError,
                     ShapeMismatchAfterPrune)
from .graph import ComputationGraph, Vertex, count_flops_params, infer_shapes
from .partition import PartitionResult
from .engine import EVAL_BATCH, forward


@dataclass
class PruneMask:
    zero_flags: list[bool]            # aligned with partition.zigs
    survivors: dict[int, list[int]]   # component id -> surviving group indices

    @property
    def empty(self) -> bool:
        return not any(self.zero_flags)

    def zero_group_count(self) -> int:
        return int(sum(self.zero_flags))


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
    return make_mask(part, np.flatnonzero(~nonzero[:-1]).tolist())


def make_mask(part: PartitionResult, zero_group_ids: list[int]) -> PruneMask:
    """Mask that removes the groups at the given positions into part.zigs.

    Raises AllGroupsZeroInComponent when a component would lose all groups.
    """
    zero_ids = set(zero_group_ids)
    flags = [i in zero_ids for i in range(len(part.zigs))]
    survivors: dict[int, list[int]] = {}
    for z, flagged in zip(part.zigs, flags):
        if not flagged:
            survivors.setdefault(z.component_id, []).append(z.group_index)
    for ci, width in enumerate(part.widths):
        if width:
            kept = sorted(survivors.get(ci, []))
            if not kept:
                raise AllGroupsZeroInComponent(
                    f"component {ci}: all {width} groups would be removed"
                )
            survivors[ci] = kept
    return PruneMask(zero_flags=flags, survivors=survivors)


# ---------------------------------------------------------------------------
# channel maps and surgery
# ---------------------------------------------------------------------------

def build_channel_maps(g: ComputationGraph, part: PartitionResult,
                       mask: PruneMask) -> dict[int, list[int]]:
    """Per vertex: its surviving output channels (original numbering).

    Channel k survives unless the group that ``part.channel_groups``
    records for it is zero; a channel no group controls always survives.
    Concat offsets and Flatten blocks are already in the table.
    """
    zero = mask.zero_flags
    return {vid: [k for k, gi in enumerate(groups) if gi < 0 or not zero[gi]]
            for vid, groups in part.channel_groups.items()}


def prune(g: ComputationGraph, mask: PruneMask,
          maps: dict[int, list[int]]) -> ComputationGraph:
    """Build the pruned graph: same topology, narrowed operators."""
    new_vertices: dict[int, Vertex] = {}
    for vid, vx in g.vertices.items():
        # a graph input has nothing pruned upstream
        in_map = maps[g.preds[vid][0]] if g.preds[vid] else None
        params = vx.params.copy() if vx.params is not None else None
        kind, params = vx.kind.narrow(params, maps[vid], in_map)
        new_vertices[vid] = Vertex(id=vid, kind=kind, name=vx.name, params=params)

    pruned = ComputationGraph(
        vertices=new_vertices,
        edges=list(g.edges),
        input_shapes=list(g.input_shapes),
        input_binding=dict(g.input_binding),
    )
    try:
        infer_shapes(pruned)
    except GraphError as exc:
        raise ShapeMismatchAfterPrune(str(exc)) from exc
    if not mask.empty:
        full = count_flops_params(g)
        small = count_flops_params(pruned)
        if not (small[0] < full[0] and small[1] < full[1]):
            raise ShapeMismatchAfterPrune("pruning did not reduce the graph")
    return pruned


def group_flops_savings(g: ComputationGraph, part: PartitionResult) -> list[int]:
    """Per-sample FLOPs saved by removing each group alone, aligned with
    part.zigs.

    Groups of one component have identical shapes, so each component's
    first group stands for all of them. One pass over the vertices finds
    those whose output channels, or whose first input's channels, such a
    group owns (``part.channel_groups``), narrows each one's kind as
    ``prune`` would (``narrow`` without parameters) and takes the
    difference of the kind's ``flops`` before and after. A component of
    width 1 can never lose its only group and saves 0.
    """
    first = {z.position: z.component_id for z in part.zigs
             if z.group_index == 0 and part.widths[z.component_id] > 1}
    saving = [0] * len(part.widths)
    for vid in g.topo_order:
        vx, preds = g.vertices[vid], g.preds[vid]
        out = part.channel_groups[vid]
        ins = part.channel_groups[preds[0]] if preds else []
        touched = first.keys() & {*out, *ins}
        if not touched:
            continue
        full = vx.kind.flops(vx.out_shape, len(preds))
        for p in touched:
            kept = len(out) - out.count(p)
            in_map = range(len(ins) - ins.count(p)) if preds else None
            kind, _ = vx.kind.narrow(None, range(kept), in_map)
            shape = (vx.out_shape[0], kept, *vx.out_shape[2:])
            saving[first[p]] += full - kind.flops(shape, len(preds))
    return [saving[z.component_id] for z in part.zigs]


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
