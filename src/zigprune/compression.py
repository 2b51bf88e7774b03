"""Compressed-graph construction from zero groups.

Removing a zero group deletes its filter rows / bias / per-channel scalars on
the producer side and erases the matching input-channel slices of every
consumer (weight column blocks for convolutions, flat-feature columns after a
Flatten, per-channel statistics for normalization), so the pruned graph
reproduces the full graph's eval-mode outputs exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AllGroupsZeroInComponent, GraphError, ShapeMismatchAfterPrune
from .graph import (
    ACCESSORY,
    ComputationGraph,
    Flatten,
    SD_JOINT,
    SID_JOINT,
    STEM,
    Vertex,
    count_flops_params,
    infer_shapes,
)
from .partition import PartitionResult, group_is_zero
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

    Raises AllGroupsZeroInComponent when a component would lose all groups;
    a zero-width operator cannot be constructed.
    """
    return make_mask(part, [i for i, z in enumerate(part.zigs) if group_is_zero(g, z)])


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
# channel maps
# ---------------------------------------------------------------------------

def build_channel_maps(g: ComputationGraph, part: PartitionResult,
                       mask: PruneMask) -> dict[tuple[int, int], list[int]]:
    """Per edge: ordered surviving source-channel indices (original numbering).

    Concat offsets survivors by the full (unpruned) widths of earlier inputs;
    Flatten expands each surviving channel into its block of height*width flat
    indices.
    """
    stem_comp: dict[int, int] = {}
    for ci, comp in enumerate(part.components):
        for s in comp.stem_ids:
            stem_comp[s] = ci
    out_map: dict[int, list[int]] = {}
    for vid in g.topo_order:
        vx = g.vertices[vid]
        cat = vx.category
        if cat == STEM:
            ci = stem_comp.get(vid)
            if ci is not None and part.widths[ci]:
                out_map[vid] = list(mask.survivors[ci])
            else:
                out_map[vid] = list(range(vx.kind.width()))
        elif vid in g.input_binding:
            out_map[vid] = list(range(vx.out_shape[1]))
        elif cat == ACCESSORY:
            src = g.preds[vid][0]
            if isinstance(vx.kind, Flatten):
                _, _, h, w = g.vertices[src].out_shape
                out_map[vid] = [c * h * w + i for c in out_map[src] for i in range(h * w)]
            else:
                out_map[vid] = out_map[src]
        elif cat == SD_JOINT:
            ins = [out_map[p] for p in g.joint_input_order(vid)]
            if any(m != ins[0] for m in ins[1:]):
                raise ShapeMismatchAfterPrune(
                    f"SD joint {vid} inputs prune to different channel sets"
                )
            out_map[vid] = ins[0]
        elif cat == SID_JOINT:
            merged: list[int] = []
            offset = 0
            for p in g.joint_input_order(vid):
                merged.extend(c + offset for c in out_map[p])
                offset += g.vertices[p].out_shape[1]
            out_map[vid] = merged
        else:  # unknown / output: channels fixed
            src = g.preds[vid][0] if g.preds[vid] else None
            out_map[vid] = list(out_map[src]) if src is not None else []
    return {(src, dst): list(out_map[src]) for src, dst in g.edges}


# ---------------------------------------------------------------------------
# surgery
# ---------------------------------------------------------------------------

def prune(g: ComputationGraph, part: PartitionResult, mask: PruneMask,
          maps: dict[tuple[int, int], list[int]]) -> ComputationGraph:
    """Build the pruned graph: same topology, narrowed operators."""
    stem_comp: dict[int, int] = {}
    for ci, comp in enumerate(part.components):
        for s in comp.stem_ids:
            stem_comp[s] = ci

    new_vertices: dict[int, Vertex] = {}
    for vid, vx in g.vertices.items():
        ci = stem_comp.get(vid)
        keep_rows = mask.survivors[ci] if ci is not None and part.widths[ci] else None
        # a graph input has nothing pruned upstream
        in_map = maps[(g.preds[vid][0], vid)] if g.preds[vid] else None
        params = vx.params.copy() if vx.params is not None else None
        kind, params = vx.kind.narrow(params, keep_rows, in_map)
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
    return prune(g, part, mask, maps), mask


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
