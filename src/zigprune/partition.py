"""Zero-invariant group partition over the trace graph.

Pipeline: seed connected components over accessory / shape-dependent-joint /
unknown vertices, grow each component upstream until every incoming boundary
vertex is a stem or a shape-independent joint (absorbing the boundary stems as
affiliated members), merge components that intersect, then pair parameters
channel-wise inside each component. A group couples one output channel of
every stem in the component with the matching per-channel accessory scalars,
including split slices of accessories that sit downstream of a channel concat.

Components whose channels reach the graph output, directly or through a
channel concat, keep the output interface fixed and are excluded; so are
components containing unknown vertices or whose channels reach one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InconsistentStemWidths, PartitionError
from .graph import (
    ACCESSORY,
    BatchNorm,
    ComputationGraph,
    Flatten,
    OUTPUT,
    SD_JOINT,
    SID_JOINT,
    STEM,
    UNKNOWN,
)

ROLE_ORDER = {"weight_row": 0, "bias": 1, "gamma": 2, "beta": 3}


@dataclass
class DependencyComponent:
    vertex_ids: set[int]
    stem_ids: list[int] = field(default_factory=list)
    accessory_ids: list[int] = field(default_factory=list)
    contains_unknown: bool = False
    adjacent_to_output: bool = False


@dataclass(frozen=True)
class ParamSlice:
    vertex_id: int
    role: str  # weight_row | bias | gamma | beta
    start: int
    stop: int

    def __post_init__(self):
        if self.stop <= self.start:
            raise PartitionError(f"empty slice on vertex {self.vertex_id}")


@dataclass
class ZeroInvariantGroup:
    slices: list[ParamSlice]
    component_id: int
    group_index: int


@dataclass
class ExcludedComponent:
    component_id: int
    reason: str  # output-adjacent | contains-unknown | no-producer
    param_count: int = 0


@dataclass
class PartitionResult:
    components: list[DependencyComponent]
    zigs: list[ZeroInvariantGroup]
    excluded: list[ExcludedComponent]
    widths: list[int]  # groups per component (0 for stemless / excluded)
    # per vertex: position in zigs of the group controlling each output
    # channel (-1: none); surgery reads it, to_doc leaves it out
    channel_groups: dict[int, list[int]]

    def groups_of_component(self, ci: int) -> list[ZeroInvariantGroup]:
        return [z for z in self.zigs if z.component_id == ci]

    def coloring(self) -> dict[int, int]:
        out = {}
        for ci, comp in enumerate(self.components):
            for vid in comp.vertex_ids:
                out[vid] = ci
        return out

    def to_doc(self) -> dict:
        return {
            "components": [
                {
                    "id": ci,
                    "vertices": sorted(c.vertex_ids),
                    "stems": list(c.stem_ids),
                    "accessories": list(c.accessory_ids),
                    "contains_unknown": c.contains_unknown,
                    "adjacent_to_output": c.adjacent_to_output,
                    "groups": self.widths[ci],
                }
                for ci, c in enumerate(self.components)
            ],
            "groups": [
                {
                    "component": z.component_id,
                    "index": z.group_index,
                    "slices": [
                        {"vertex": s.vertex_id, "role": s.role,
                         "start": s.start, "stop": s.stop}
                        for s in z.slices
                    ],
                }
                for z in self.zigs
            ],
            "excluded_components": [
                {"component": e.component_id, "reason": e.reason,
                 "params": e.param_count}
                for e in self.excluded
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=1)


# ---------------------------------------------------------------------------
# slice access helpers
# ---------------------------------------------------------------------------

def slice_view(g: ComputationGraph, s: ParamSlice) -> np.ndarray:
    """Writable view of the parameters covered by a slice."""
    params = g.vertices[s.vertex_id].params
    if s.role == "weight_row":
        return params.weight[s.start:s.stop, :]
    return getattr(params, s.role)[s.start:s.stop]


def zero_group(g: ComputationGraph, group: ZeroInvariantGroup) -> None:
    for s in group.slices:
        slice_view(g, s)[...] = 0.0


def group_is_zero(g: ComputationGraph, group: ZeroInvariantGroup) -> bool:
    return all(not slice_view(g, s).any() for s in group.slices)


# ---------------------------------------------------------------------------
# the four passes
# ---------------------------------------------------------------------------

def seed_components(g: ComputationGraph) -> list[DependencyComponent]:
    """Connected components over accessory + SD-joint + unknown vertices."""
    eligible = {vid for vid, vx in g.vertices.items()
                if vx.category in (ACCESSORY, SD_JOINT, UNKNOWN)}
    seen: set[int] = set()
    comps = []
    for start in g.topo_order:
        if start not in eligible or start in seen:
            continue
        members = set()
        stack = [start]
        while stack:
            v = stack.pop()
            if v in members:
                continue
            members.add(v)
            for u in g.preds[v] + g.succs[v]:
                if u in eligible and u not in members:
                    stack.append(u)
        seen |= members
        comps.append(DependencyComponent(
            vertex_ids=members,
            contains_unknown=any(g.vertices[v].category == UNKNOWN for v in members),
        ))
    return comps


def grow_components(g: ComputationGraph,
                    comps: list[DependencyComponent]) -> list[DependencyComponent]:
    """Absorb incoming boundary stems as affiliated members.

    Growth stops at stem and SID-joint boundaries; an SID joint routes
    dependency without being absorbed.
    """
    topo_index = g.topo_index
    for comp in comps:
        seeded = list(comp.vertex_ids)
        for v in seeded:
            for u in g.preds[v]:
                if u in comp.vertex_ids:
                    continue
                cat = g.vertices[u].category
                if cat == STEM:
                    comp.vertex_ids.add(u)
                elif cat != SID_JOINT:
                    raise PartitionError(
                        f"vertex {u} ({cat}) escaped component seeding"
                    )
        _refresh(g, comp, topo_index)
    return comps


def _refresh(g: ComputationGraph, comp: DependencyComponent, topo_index) -> None:
    comp.stem_ids = sorted(
        (v for v in comp.vertex_ids if g.vertices[v].category == STEM),
        key=topo_index.__getitem__)
    comp.accessory_ids = sorted(
        (v for v in comp.vertex_ids if g.vertices[v].category == ACCESSORY),
        key=topo_index.__getitem__)
    comp.adjacent_to_output = any(
        g.vertices[s].category == OUTPUT
        for v in comp.vertex_ids for s in g.succs[v])


def merge_components(g: ComputationGraph,
                     comps: list[DependencyComponent]) -> list[DependencyComponent]:
    """Union components with intersecting vertex sets (flags OR on merge)."""
    parent = list(range(len(comps)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[int, int] = {}
    for ci, comp in enumerate(comps):
        for v in comp.vertex_ids:
            if v in owner:
                parent[find(ci)] = find(owner[v])
            else:
                owner[v] = ci
    merged: dict[int, DependencyComponent] = {}
    for ci, comp in enumerate(comps):
        root = find(ci)
        if root not in merged:
            merged[root] = DependencyComponent(vertex_ids=set())
        tgt = merged[root]
        tgt.vertex_ids |= comp.vertex_ids
        tgt.contains_unknown |= comp.contains_unknown
    topo_index = g.topo_index
    out = sorted(merged.values(),
                 key=lambda c: min(topo_index[v] for v in c.vertex_ids))
    for comp in out:
        _refresh(g, comp, topo_index)
    return out


def _channel_origins(g: ComputationGraph,
                     comps: list[DependencyComponent]) -> dict[int, list]:
    """Per vertex: which (component, group) produced each output channel.

    This is the one walk of channel provenance: grouping routes accessory
    slices and output/unknown exclusions by it, and surgery keeps a channel
    unless its group is zero (via ``PartitionResult.channel_groups``).
    After a Flatten, entries are per flat feature (each channel repeated
    height*width times). None marks a channel no stem controls (raw input,
    unknown op output).
    """
    stem_comp = {}
    for ci, comp in enumerate(comps):
        for s in comp.stem_ids:
            stem_comp[s] = ci
    origins: dict[int, list] = {}
    for vid in g.topo_order:
        vx = g.vertices[vid]
        cat = vx.category
        if cat == STEM:
            width = vx.kind.width()
            ci = stem_comp.get(vid)
            if ci is None:
                origins[vid] = [None] * width
            else:
                origins[vid] = [(ci, j) for j in range(width)]
        elif vid in g.input_binding:
            origins[vid] = [None] * vx.out_shape[1]
        elif cat == ACCESSORY:
            base = origins[g.preds[vid][0]]
            if isinstance(vx.kind, Flatten):
                _, _, h, w = g.vertices[g.preds[vid][0]].out_shape
                origins[vid] = [o for o in base for _ in range(h * w)]
            else:
                origins[vid] = base
        elif cat == SD_JOINT:
            ins = [origins[p] for p in g.joint_input_order(vid)]
            first = ins[0]
            if any(other != first for other in ins[1:]):
                raise PartitionError(
                    f"SD joint {vid} couples channels across group boundaries "
                    "(unsupported topology)"
                )
            origins[vid] = first
        elif cat == SID_JOINT:
            merged: list = []
            for p in g.joint_input_order(vid):
                merged.extend(origins[p])
            origins[vid] = merged
        elif cat == UNKNOWN:
            origins[vid] = [None] * (vx.out_shape[1] if vx.out_shape else 0)
        else:  # graph output
            origins[vid] = []
    return origins


def form_zigs(g: ComputationGraph,
              comps: list[DependencyComponent]) -> PartitionResult:
    """Pair per-channel parameters within each component into groups.

    Stems absorbed by no component become singleton components so that plain
    stem chains stay prunable. Output-adjacent and unknown-carrying components
    are excluded (their parameters are tallied, not grouped).
    """
    comps = list(comps)
    covered = set().union(*(c.vertex_ids for c in comps)) if comps else set()
    topo_index = g.topo_index
    singles = []
    for vid in g.topo_order:
        if g.vertices[vid].category == STEM and vid not in covered:
            comp = DependencyComponent(vertex_ids={vid})
            _refresh(g, comp, topo_index)
            singles.append(comp)
    comps = sorted(comps + singles,
                   key=lambda c: min(topo_index[v] for v in c.vertex_ids))

    stem_widths = []
    for ci, comp in enumerate(comps):
        ws = {g.vertices[s].kind.width() for s in comp.stem_ids}
        if len(ws) > 1:
            raise InconsistentStemWidths(
                f"component {ci} stems have widths {sorted(ws)}"
            )
        stem_widths.append(ws.pop() if ws else 0)

    # Channels reach the output and unknown ops through SID joints too,
    # where growth stops.
    origins = _channel_origins(g, comps)
    for vid in g.topo_order:
        cat = g.vertices[vid].category
        if cat not in (OUTPUT, UNKNOWN):
            continue
        for p in g.preds[vid]:
            for origin in set(origins[p]) - {None}:
                if cat == OUTPUT:
                    comps[origin[0]].adjacent_to_output = True
                else:
                    comps[origin[0]].contains_unknown = True

    excluded_ids: set[int] = set()
    reasons: dict[int, str] = {}
    for ci, comp in enumerate(comps):
        if comp.adjacent_to_output:
            excluded_ids.add(ci)
            reasons[ci] = "output-adjacent"
        elif comp.contains_unknown:
            excluded_ids.add(ci)
            reasons[ci] = "contains-unknown"
    widths = [0 if ci in excluded_ids else w for ci, w in enumerate(stem_widths)]

    groups: dict[int, list[ZeroInvariantGroup]] = {}
    for ci, comp in enumerate(comps):
        if widths[ci]:
            groups[ci] = [ZeroInvariantGroup([], ci, j) for j in range(widths[ci])]
            for s in comp.stem_ids:
                params = g.vertices[s].params
                for j in range(widths[ci]):
                    groups[ci][j].slices.append(ParamSlice(s, "weight_row", j, j + 1))
                    if params.bias is not None:
                        groups[ci][j].slices.append(ParamSlice(s, "bias", j, j + 1))

    # Route per-channel accessory parameters to the controlling groups. A run
    # of consecutive channels with one origin becomes a single slice (post-
    # Flatten blocks stay contiguous).
    excl_params: dict[int, int] = {ci: 0 for ci in excluded_ids}
    stray_params = 0
    comp_of_vertex: dict[int, int] = {}
    for ci, comp in enumerate(comps):
        for v in comp.vertex_ids:
            comp_of_vertex[v] = ci
    for vid in g.topo_order:
        vx = g.vertices[vid]
        if not isinstance(vx.kind, BatchNorm):
            continue
        ci = comp_of_vertex.get(vid)
        if ci in excluded_ids:
            excl_params[ci] += vx.params.trainable_count()
            continue
        chan_origin = origins[g.preds[vid][0]] if g.preds[vid] else \
            [None] * vx.kind.channels
        if vid in g.input_binding:
            chan_origin = [None] * vx.kind.channels
        start = 0
        n = len(chan_origin)
        while start < n:
            stop = start
            while stop < n and chan_origin[stop] == chan_origin[start]:
                stop += 1
            origin = chan_origin[start]
            run = stop - start
            if origin is None:
                stray_params += 2 * run
            else:
                oc, og = origin
                if oc in excluded_ids:
                    excl_params[oc] += 2 * run
                else:
                    groups[oc][og].slices.append(ParamSlice(vid, "gamma", start, stop))
                    groups[oc][og].slices.append(ParamSlice(vid, "beta", start, stop))
            start = stop

    for ci in excluded_ids:
        for s in comps[ci].stem_ids:
            excl_params[ci] += g.vertices[s].params.trainable_count()

    zigs: list[ZeroInvariantGroup] = []
    for ci in sorted(groups):
        for z in groups[ci]:
            z.slices.sort(key=lambda s: (topo_index[s.vertex_id],
                                         ROLE_ORDER[s.role], s.start))
            zigs.append(z)
    position = {(z.component_id, z.group_index): i for i, z in enumerate(zigs)}
    channel_groups = {vid: [position.get(o, -1) for o in orig]
                      for vid, orig in origins.items()}

    excluded = [ExcludedComponent(ci, reasons[ci], excl_params[ci])
                for ci in sorted(excluded_ids)]
    if stray_params:
        excluded.append(ExcludedComponent(-1, "no-producer", stray_params))
    return PartitionResult(components=comps, zigs=zigs, excluded=excluded,
                           widths=widths, channel_groups=channel_groups)


def partition(g: ComputationGraph) -> PartitionResult:
    """Full partition: seed, grow, merge, group."""
    comps = seed_components(g)
    comps = grow_components(g, comps)
    comps = merge_components(g, comps)
    return form_zigs(g, comps)
