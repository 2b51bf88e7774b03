"""Zero-invariant group partition over the trace graph.

One edge rule builds the dependency components: an edge (u, v) joins u and
v when v is an accessory, a shape-dependent (SD) joint or an unknown op, and
u is one of those or a stem. Its classes are what the paper's pipeline
computes: seed connected components over accessory / SD-joint / unknown
vertices, grow each component upstream until every incoming boundary vertex
is a stem or a shape-independent (SID) joint (absorbing the boundary stems
as affiliated members), and merge components that intersect. Parameters are
then paired channel-wise inside each component. A group couples one output
channel of every stem in the component with the matching per-channel
accessory scalars, including split slices of accessories that sit
downstream of a channel concat.

Components whose channels reach the graph output, directly or through a
channel concat, keep the output interface fixed and are excluded; so are
components containing unknown vertices or whose channels reach one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InconsistentStemWidths, PartitionError
from .graph import (
    ACCESSORY,
    ComputationGraph,
    OUTPUT,
    SD_JOINT,
    SID_JOINT,
    STEM,
    UNKNOWN,
)


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


class GroupTable:
    """The parameter rows every group of one partition owns.

    ``grouped`` lists, in topological order, each vertex whose rows are
    grouped as ``(vertex id, owners, roles)``: row k of each of its
    trainable arrays (``roles``, in ``TRAINABLE_ROLES`` order) belongs to
    the group at position ``owners[k]`` of ``PartitionResult.zigs`` (-1:
    none). These are that vertex's ``channel_groups``; a vertex of an
    excluded component is left out. ``zero_group``, ``detect_zero_groups``
    and ``ParamIndex.group_table`` (flat indices) reach groups through these
    rows alone; ``ParamSlice`` lists are made from them only for ``slices``.
    """

    def __init__(self, grouped: list[tuple[int, np.ndarray, tuple[str, ...]]], size: int):
        self.grouped = grouped
        self.size = size
        self._slices: Optional[list[list[ParamSlice]]] = None

    def slices(self) -> list[list[ParamSlice]]:
        """Per group position, its slices: one per run of rows it owns and
        role, ordered by vertex (topological), role and first row. Made on
        the first call, for every group at once."""
        if self._slices is None:
            out: list[list[ParamSlice]] = [[] for _ in range(self.size)]
            for vid, owners, roles in self.grouped:
                bounds = (np.flatnonzero(np.diff(owners)) + 1).tolist()
                starts, stops = [0] + bounds, bounds + [len(owners)]
                runs = [(start, stop, owner) for start, stop, owner
                        in zip(starts, stops, owners[starts].tolist()) if owner >= 0]
                for role in roles:
                    name = "weight_row" if role == "weight" else role
                    for start, stop, owner in runs:
                        out[owner].append(ParamSlice(vid, name, start, stop))
            self._slices = out
        return self._slices


class ZeroInvariantGroup:
    """Channel ``group_index`` of component ``component_id``, at
    ``position`` in ``PartitionResult.zigs``; its rows are in ``table``."""

    __slots__ = ("component_id", "group_index", "position", "table")

    def __init__(self, component_id: int, group_index: int, position: int, table: GroupTable):
        self.component_id = component_id
        self.group_index = group_index
        self.position = position
        self.table = table

    @property
    def slices(self) -> list[ParamSlice]:
        return self.table.slices()[self.position]

    def __repr__(self) -> str:
        return (f"ZeroInvariantGroup(component_id={self.component_id}, "
                f"group_index={self.group_index})")


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
    # per vertex: read-only index array of the position in zigs of the group
    # controlling each output channel (-1: none); to_doc leaves it out
    channel_groups: dict[int, np.ndarray]
    table: GroupTable = field(repr=False)

    def coloring(self) -> dict[int, int]:
        return {vid: ci for ci, comp in enumerate(self.components) for vid in comp.vertex_ids}

    def to_doc(self) -> dict:
        slices = self.table.slices()
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
                        for s in slices[z.position]
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


def zero_group(g: ComputationGraph, group: ZeroInvariantGroup) -> None:
    """Zero every parameter row the group owns in ``group.table``."""
    for vid, owners, roles in group.table.grouped:
        rows = owners == group.position
        for role in roles:
            getattr(g.vertices[vid].params, role)[rows] = 0.0


# ---------------------------------------------------------------------------
# the edge rule and the groups
# ---------------------------------------------------------------------------

JOINED = (ACCESSORY, SD_JOINT, UNKNOWN)


def dependency_components(g: ComputationGraph) -> list[DependencyComponent]:
    """Classes of the edge rule, ordered by their first vertex in topo order.

    The nodes are the stems, accessories, SD joints and unknown ops; an edge
    (u, v) joins u and v when v is an accessory, SD joint or unknown op and
    u is a node. This is the paper's seed, grow and merge in one union-find:
    edges among accessories, SD joints and unknown ops seed a component,
    edges from stems into it grow it upstream, and a stem feeding two seeds
    merges them. Growth stops at SID joints, which are not nodes, and a stem
    no edge joins stays alone, so plain stem chains stay prunable.
    """
    category = {vid: vx.category for vid, vx in g.vertices.items()}
    parent = {vid: vid for vid, cat in category.items() if cat == STEM or cat in JOINED}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in g.edges:
        if u in parent and category[v] in JOINED:
            parent[find(u)] = find(v)
    classes: dict[int, DependencyComponent] = {}
    for vid in g.topo_order:
        if vid not in parent:
            continue
        root = find(vid)
        if root not in classes:
            classes[root] = DependencyComponent(vertex_ids=set())
        comp = classes[root]
        comp.vertex_ids.add(vid)
        if category[vid] == STEM:
            comp.stem_ids.append(vid)
        elif category[vid] == ACCESSORY:
            comp.accessory_ids.append(vid)
    return list(classes.values())


def _channel_origins(g: ComputationGraph, comp_of: dict[int, int],
                     base: list[int]) -> dict[int, np.ndarray]:
    """Per vertex: which stem channel produced each output channel.

    This is the one walk of channel provenance: output/unknown exclusions
    follow it, and so does ``PartitionResult.channel_groups``, from which
    grouping assigns parameter rows, zero detection reads them and surgery
    keeps a channel unless its group is zero.
    A channel is an integer code: channel j of the stems of component ci is
    ``base[ci] + j``, and -1 marks a channel no stem controls (raw input,
    unknown op output). An accessory maps its input's codes to its output's
    (``OpKind.channel_codes``): after a Flatten, entries are per flat
    feature. ``comp_of`` maps each vertex to its component.
    """
    origins: dict[int, np.ndarray] = {}
    for vid in g.topo_order:
        vx = g.vertices[vid]
        cat = vx.category
        if cat == STEM:
            first = base[comp_of[vid]]
            origins[vid] = np.arange(first, first + vx.kind.width())
        elif vid in g.input_binding or cat == UNKNOWN:
            origins[vid] = np.full(vx.out_shape[1], -1)
        elif cat == ACCESSORY:
            src = g.preds[vid][0]
            origins[vid] = vx.kind.channel_codes(origins[src], g.vertices[src].out_shape)
        elif cat == SD_JOINT:
            first, *others = (origins[p] for p in g.joint_input_order(vid))
            if any(not np.array_equal(other, first) for other in others):
                raise PartitionError(
                    f"SD joint {vid} couples channels across group boundaries "
                    "(unsupported topology)"
                )
            origins[vid] = first
        elif cat == SID_JOINT:
            origins[vid] = np.concatenate([origins[p] for p in g.joint_input_order(vid)])
        else:  # graph output
            origins[vid] = np.empty(0, dtype=np.intp)
    return origins


def form_zigs(g: ComputationGraph,
              comps: list[DependencyComponent]) -> PartitionResult:
    """Pair per-channel parameters within each component into groups.

    ``comps`` are the classes of the edge rule (``dependency_components``).
    A component is output-adjacent (contains an unknown op) when it holds
    the output vertex (an unknown op) or one of that vertex's inputs, or
    when its channels reach such an input through SID joints, where the edge
    rule stops. Such components are excluded: their parameters are tallied,
    not grouped.

    Every step is an array pass over channel codes (``_channel_origins``);
    no per-group object is built but the group itself.
    """
    stem_widths = []
    for ci, comp in enumerate(comps):
        ws = {g.vertices[s].kind.width() for s in comp.stem_ids}
        if len(ws) > 1:
            raise InconsistentStemWidths(
                f"component {ci} stems have widths {sorted(ws)}"
            )
        stem_widths.append(ws.pop() if ws else 0)

    comp_of_vertex = {v: ci for ci, comp in enumerate(comps) for v in comp.vertex_ids}
    code_comp = np.repeat(np.arange(len(comps)), stem_widths)  # component of each code
    base = np.cumsum([0] + stem_widths[:-1]).tolist()
    origins = _channel_origins(g, comp_of_vertex, base)
    for vid in g.topo_order:
        cat = g.vertices[vid].category
        if cat not in (OUTPUT, UNKNOWN):
            continue
        hit = {comp_of_vertex.get(v) for v in (vid, *g.preds[vid])}
        for p in g.preds[vid]:
            codes = origins[p]
            hit.update(np.unique(code_comp[codes[codes >= 0]]).tolist())
        hit.discard(None)
        for ci in hit:
            if cat == OUTPUT:
                comps[ci].adjacent_to_output = True
            else:
                comps[ci].contains_unknown = True

    exclusions: dict[int, str] = {}  # excluded component -> reason
    for ci, comp in enumerate(comps):
        if comp.adjacent_to_output:
            exclusions[ci] = "output-adjacent"
        elif comp.contains_unknown:
            exclusions[ci] = "contains-unknown"
    widths = [0 if ci in exclusions else w for ci, w in enumerate(stem_widths)]
    # Groups are the codes of kept components in (component, channel)
    # order; code -1 reads the last entry, -1.
    kept = np.repeat(np.array(widths) > 0, stem_widths)
    code_group = np.append(np.where(kept, np.cumsum(kept) - 1, -1), -1)
    owners = {vid: code_group[orig] for vid, orig in origins.items()}
    for rows in owners.values():
        rows.flags.writeable = False

    # Every trainable array has one row per output channel, so row k of a
    # vertex belongs to group owners[vid][k]. A vertex of an excluded
    # component is tallied whole; a row no group owns is tallied to the
    # excluded component it comes from, or as no-producer.
    grouped = []
    excl_params = {ci: 0 for ci in exclusions}
    stray_params = 0
    for vid in g.topo_order:
        params = g.vertices[vid].params
        if params is None:
            continue
        ci = comp_of_vertex.get(vid)
        if ci in exclusions:
            excl_params[ci] += params.trainable_count()
            continue
        items = list(params.trainable_items())
        row_size = sum(arr[0].size for _, arr in items)
        lost = origins[vid][owners[vid] < 0]
        stray_params += row_size * int(np.count_nonzero(lost < 0))
        for origin in code_comp[lost[lost >= 0]].tolist():
            excl_params[origin] += row_size
        grouped.append((vid, owners[vid], tuple(role for role, _ in items)))

    table = GroupTable(grouped, int(kept.sum()))
    zigs = []
    for ci, w in enumerate(widths):
        zigs += [ZeroInvariantGroup(ci, j, len(zigs) + j, table) for j in range(w)]
    excluded = [ExcludedComponent(ci, exclusions[ci], excl_params[ci])
                for ci in sorted(exclusions)]
    if stray_params:
        excluded.append(ExcludedComponent(-1, "no-producer", stray_params))
    return PartitionResult(components=comps, zigs=zigs, excluded=excluded, widths=widths,
                           channel_groups=owners, table=table)


def partition(g: ComputationGraph) -> PartitionResult:
    """Full partition: the edge rule's components, then their groups."""
    return form_zigs(g, dependency_components(g))
