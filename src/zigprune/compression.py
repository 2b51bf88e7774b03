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

from .errors import AllGroupsZeroInComponent, GraphError, ShapeMismatchAfterPrune
from .graph import ComputationGraph, Vertex, count_flops_params, infer_shapes
from .partition import PartitionResult
from .engine import forward


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
    """Flag groups whose every slice is exactly zero.

    Each (vertex, role) array's row-nonzero flags are prefix-summed once, so
    a slice [start, stop) is nonzero when the sum rises across it; the
    slices' answers are or-ed into their groups.

    Raises AllGroupsZeroInComponent when a component would lose all groups;
    a zero-width operator cannot be constructed.
    """
    by_array: dict[tuple[int, str], list[tuple[int, int, int]]] = {}
    for i, z in enumerate(part.zigs):
        for s in z.slices:
            by_array.setdefault((s.vertex_id, s.role), []).append((i, s.start, s.stop))
    nonzero = np.zeros(len(part.zigs), dtype=bool)
    for (vid, role), rows in by_array.items():
        arr = getattr(g.vertices[vid].params, "weight" if role == "weight_row" else role)
        seen = np.concatenate(([0], np.cumsum(arr.reshape(len(arr), -1).any(axis=1))))
        owner, start, stop = np.array(rows).T
        np.logical_or.at(nonzero, owner, seen[stop] > seen[start])
    return make_mask(part, np.flatnonzero(~nonzero).tolist())


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

    Groups of one component have identical shapes, so one group per
    component is pruned and its saving shared. A component of width 1 can
    never lose its only group and saves 0.
    """
    flops_full, _ = count_flops_params(g)
    saving: dict[int, int] = {}
    for i, z in enumerate(part.zigs):
        ci = z.component_id
        if ci in saving:
            continue
        if part.widths[ci] < 2:
            saving[ci] = 0
            continue
        small, _ = compress(g, part, make_mask(part, [i]))
        saving[ci] = flops_full - count_flops_params(small)[0]
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
                       rng: Optional[np.random.Generator] = None,
                       batch: int = 2) -> dict:
    """Max |full(x) - compressed(x)| over random eval-mode inputs."""
    rng = rng or np.random.default_rng(0)
    worst = 0.0
    for _ in range(n_trials):
        xs = [rng.normal(size=(batch, *shape[1:])) for shape in full.input_shapes]
        y_full, _ = forward(full, xs, mode="eval")
        y_small, _ = forward(compressed, xs, mode="eval")
        if y_full.shape != y_small.shape:
            return {"n_trials": n_trials, "tol": tol,
                    "max_abs_diff": float("inf"), "passed": False}
        worst = max(worst, float(np.abs(y_full - y_small).max()))
    return {"n_trials": n_trials, "tol": tol, "max_abs_diff": worst,
            "passed": worst < tol}
