"""Typed computation-graph IR.

A graph is a DAG of operator vertices. Vertices are categorized as stem
(trainable, width-changing: Conv2d / Linear), accessory (single-in single-out:
BatchNorm / ReLU / pooling / Flatten), joint (multi-input aggregators: Add and
Mul require equal input shapes, Concat stacks along the channel axis), unknown
(opaque custom op), or the terminal GraphOutput marker. Each op kind, with
its shape, FLOPs, parameter, execution and surgery rules, is one class in
``ops.py``; this module re-exports the kinds and holds the graph around them.

Graph documents are plain dicts (JSON-compatible). Schema:

    {
      "input_shapes": [[1, 3, 16, 16], ...],
      "vertices": [
        {"id": 0, "op": "conv2d", "kernel": 3, "stride": 1, "padding": 1,
         "in_channels": 3, "out_channels": 16, "has_bias": true,
         "name": "conv1", "params": {"weight": [[...]], "bias": [...]}},
        {"id": 1, "op": "batch_norm", "channels": 16},
        {"id": 2, "op": "relu"},
        ...
        {"id": 9, "op": "output"}
      ],
      "edges": [[0, 1], [1, 2], ...]
    }

Vertices with no incoming edge are graph-input consumers; each carries an
optional ``"input": i`` attribute naming the ``input_shapes`` entry it reads
(default 0), so several roots may share one input. The input order of a joint
vertex is the first-appearance order of its incoming edges in the edge list
(this fixes Concat channel layout).

``build_graph`` checks every value through ``errors.check_value`` and converts
none: an op attribute against its kind's field annotation in ``ops.py`` (a
size is an integer >= 1, ``has_bias`` a bool), ids, edge ends and input dims
as integers, parameters as finite numbers. A malformed value is a GraphError
naming the vertex and the field.
"""

from __future__ import annotations

import heapq
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import (CycleDetected, DanglingEdge, GraphError, Size, UnknownKindString,
                     check_fields, check_value, field_types, read_json, write_json)
# The op kinds, their categories and ParameterSet are re-exported from here.
from .ops import (ACCESSORY, KINDS, OUTPUT, SD_JOINT, SID_JOINT, STEM,  # noqa: F401
                  TRAINABLE_ROLES, UNKNOWN, Add, AvgPool, BatchNorm, Concat, Conv2d,
                  Flatten, GraphOutput, Linear, MaxPool, Mul, OpKind, ParameterSet,
                  ReLU, Unknown)

_KIND_BY_OP = {k.op: k for k in KINDS}
_REQUIRED = {k: [f.name for f in fields(k) if f.default is MISSING] for k in KINDS}


# ---------------------------------------------------------------------------
# Vertices and graphs
# ---------------------------------------------------------------------------

@dataclass
class Vertex:
    id: int
    kind: OpKind
    name: str = ""
    params: Optional[ParameterSet] = None
    out_shape: Optional[tuple[int, ...]] = None

    @property
    def category(self) -> str:
        return self.kind.category


@dataclass
class ComputationGraph:
    """Immutable-after-construction operator DAG.

    Structure (vertices, edges, shapes) is fixed once built and shape-inferred;
    parameter values may be rewritten in place by training.
    """

    vertices: dict[int, Vertex]
    edges: list[tuple[int, int]]
    input_shapes: list[tuple[int, ...]]
    input_binding: dict[int, int] = field(default_factory=dict)
    preds: dict[int, list[int]] = field(default_factory=dict, repr=False)
    succs: dict[int, list[int]] = field(default_factory=dict, repr=False)
    topo_order: list[int] = field(default_factory=list, repr=False)
    input_ids: list[int] = field(default_factory=list, repr=False)
    output_id: Optional[int] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.preds = {v: [] for v in self.vertices}
        self.succs = {v: [] for v in self.vertices}
        for src, dst in self.edges:
            if src not in self.vertices or dst not in self.vertices:
                raise DanglingEdge(f"edge ({src}, {dst}) references a missing vertex")
            self.preds[dst].append(src)
            self.succs[src].append(dst)
        self.topo_order = self._toposort()
        self.input_ids = sorted(
            v for v in self.vertices
            if not self.preds[v] and self.vertices[v].category != OUTPUT
        )
        for v in self.input_ids:
            self.input_binding.setdefault(v, 0)
        # the vertex whose output the graph returns: the output vertex if
        # there is one, else the last in topological order
        self.output_id = next((v for v, vx in self.vertices.items() if vx.category == OUTPUT),
                              self.topo_order[-1] if self.topo_order else None)

    def _toposort(self) -> list[int]:
        indeg = {v: len(self.preds[v]) for v in self.vertices}
        ready = [v for v in sorted(self.vertices) if indeg[v] == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for w in self.succs[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(ready, w)
        if len(order) != len(self.vertices):
            raise CycleDetected("graph contains a cycle")
        return order

    def joint_input_order(self, vid: int) -> list[int]:
        """Incoming vertices in edge-list appearance order (``preds`` keeps it)."""
        return self.preds[vid]


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _kind_from_doc(vid: int, vdoc: dict) -> OpKind:
    """The vertex's kind, its attributes checked against the kind's field
    annotations; a field with a default is optional."""
    op = vdoc.get("op")
    cls = _KIND_BY_OP.get(op)
    if cls is None:
        raise UnknownKindString(f"unrecognized op string {op!r}")
    types = field_types(cls)
    attrs = {name: vdoc[name] for name in types if name in vdoc}
    return cls(**check_fields(attrs, types, f"vertex {vid}: {op} attribute", GraphError,
                              _REQUIRED[cls]))


def _params_from_doc(vid: int, kind: OpKind, pdoc: Optional[dict]) -> Optional[ParameterSet]:
    """The kind's default parameters with the tensors ``pdoc`` gives, each
    checked as finite numbers of the default's shape."""
    base = kind.default_params()
    if pdoc is None:
        return base
    tensors = {} if base is None else \
        {k: np.ndarray for k, v in vars(base).items() if v is not None}
    for key, arr in check_fields(pdoc, tensors, f"vertex {vid}: parameter", GraphError).items():
        ref = getattr(base, key)
        if arr.shape != ref.shape:
            raise GraphError(f"vertex {vid}: parameter {key!r} has shape {arr.shape}, "
                             f"expected {ref.shape}")
        setattr(base, key, arr)
    return base


def build_graph(doc: dict) -> ComputationGraph:
    """Validate a graph document and construct the typed graph.

    Raises CycleDetected, DanglingEdge or UnknownKindString on malformed
    documents, and GraphError naming the field on any other malformed
    value. Explicit ``op: "unknown"`` vertices are permitted; they are
    excluded from grouping downstream.
    """
    vertices: dict[int, Vertex] = {}
    binding: dict[int, int] = {}
    for i, vdoc in enumerate(doc.get("vertices", [])):
        if "id" not in vdoc:
            raise GraphError(f"vertices[{i}]: 'id' is required")
        vid = check_value(vdoc["id"], int, f"vertex {vdoc['id']!r}: 'id'", GraphError)
        if vid in vertices:
            raise GraphError(f"duplicate vertex id {vid}")
        kind = _kind_from_doc(vid, vdoc)
        params = _params_from_doc(vid, kind, vdoc.get("params"))
        name = check_value(vdoc.get("name", ""), str, f"vertex {vid}: 'name'", GraphError)
        vertices[vid] = Vertex(id=vid, kind=kind, name=name, params=params)
        if "input" in vdoc:
            binding[vid] = check_value(vdoc["input"], int, f"vertex {vid}: 'input'",
                                       GraphError)

    edges = []
    for i, edge in enumerate(doc.get("edges", [])):
        if not isinstance(edge, (list, tuple)) or len(edge) != 2:
            raise GraphError(f"edge {i} must be a [source, target] list, got {edge!r}")
        edges.append(tuple(check_value(v, int, f"edge {i}: {end}", GraphError)
                           for v, end in zip(edge, ("source", "target"))))
    input_shapes = []
    for i, shape in enumerate(doc.get("input_shapes", [])):
        shape = tuple(check_value(shape, list[Size], f"input_shapes[{i}]", GraphError))
        if len(shape) not in (2, 4):
            raise GraphError(f"input_shapes[{i}] {shape} must be rank 2 or 4")
        input_shapes.append(shape)

    g = ComputationGraph(vertices=vertices, edges=edges, input_shapes=input_shapes,
                         input_binding=binding)
    _validate_arity(g)
    return g


def _validate_arity(g: ComputationGraph) -> None:
    n_out = sum(v.category == OUTPUT for v in g.vertices.values())
    if n_out > 1:
        raise GraphError("at most one output vertex is supported")
    for vid, idx in g.input_binding.items():
        if vid not in g.input_ids:
            raise GraphError(f"vertex {vid} has an input binding but incoming edges")
        if not 0 <= idx < len(g.input_shapes):
            raise GraphError(f"vertex {vid} bound to missing input {idx}")
    used = {g.input_binding[v] for v in g.input_ids}
    if g.input_ids and used != set(range(len(g.input_shapes))):
        raise GraphError("every input shape must feed at least one root vertex")
    for vid, vx in g.vertices.items():
        n_in = len(g.preds[vid])
        cat = vx.category
        if cat in (SD_JOINT, SID_JOINT):
            if n_in < 2:
                raise GraphError(f"joint vertex {vid} needs >= 2 inputs, has {n_in}")
        elif cat == OUTPUT:
            if n_in != 1:
                raise GraphError(f"output vertex {vid} needs exactly 1 input, has {n_in}")
            if g.succs[vid]:
                raise GraphError(f"output vertex {vid} must be terminal")
        elif n_in > 1:
            raise GraphError(f"vertex {vid} ({vx.kind.op}) accepts a single input")


# ---------------------------------------------------------------------------
# Shape inference
# ---------------------------------------------------------------------------

def infer_shapes(g: ComputationGraph) -> ComputationGraph:
    """Fill every vertex's out_shape; idempotent.

    Raises ShapeMismatchAtSDJoint when an Add/Mul receives unequal input
    shapes and FlattenWithoutKnownSpatialDims for a Flatten on 2-D input.
    """
    batch_dims = {s[0] for s in g.input_shapes}
    if len(batch_dims) > 1:
        raise GraphError("all graph inputs must share the batch dimension")
    for vid in g.topo_order:
        vx = g.vertices[vid]
        if vid in g.input_binding:
            in_shapes = [g.input_shapes[g.input_binding[vid]]]
            if vx.category in (SD_JOINT, SID_JOINT):
                raise GraphError(f"joint vertex {vid} cannot be a graph input")
        else:
            in_shapes = [g.vertices[p].out_shape for p in g.preds[vid]]
            if any(s is None for s in in_shapes):
                raise GraphError(f"vertex {vid} has an unshaped predecessor")
        vx.out_shape = vx.kind.infer_shape(in_shapes, vid)
    return g


# ---------------------------------------------------------------------------
# FLOPs / parameter accounting
# ---------------------------------------------------------------------------

def count_flops_params(g: ComputationGraph) -> tuple[int, int]:
    """Per-sample FLOPs and trainable parameter count.

    Conventions: multiply-add = 2 FLOPs; Conv = 2*k^2*Cin*Cout*Hout*Wout,
    Linear = 2*Fin*Fout, bias one FLOP per output element, BatchNorm 2 per
    element, ReLU 1, pooling k^2 per output element, Add/Mul (n_inputs - 1)
    per element, Concat/Flatten/Unknown/output free.
    """
    flops = 0
    params = 0
    for vid in g.topo_order:
        vx = g.vertices[vid]
        if vx.out_shape is None:
            raise GraphError("count_flops_params requires inferred shapes")
        flops += vx.kind.flops(vx.out_shape, len(g.preds[vid]))
        if vx.params is not None:
            params += vx.params.trainable_count()
    return flops, params


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def graph_to_doc(g: ComputationGraph, include_params: bool = True) -> dict:
    vdocs = []
    for vid in sorted(g.vertices):
        vx = g.vertices[vid]
        vdoc: dict = {"id": vid, "op": vx.kind.op}
        if vx.name:
            vdoc["name"] = vx.name
        if g.input_binding.get(vid, 0) != 0:
            vdoc["input"] = g.input_binding[vid]
        for f in fields(vx.kind):
            vdoc[f.name] = getattr(vx.kind, f.name)
        if include_params and vx.params is not None:
            pdoc = {}
            for f in fields(vx.params):
                arr = getattr(vx.params, f.name)
                if arr is not None:
                    pdoc[f.name] = arr.tolist()
            vdoc["params"] = pdoc
        vdocs.append(vdoc)
    return {
        "input_shapes": [list(s) for s in g.input_shapes],
        "vertices": vdocs,
        "edges": [list(e) for e in g.edges],
    }


def save_graph(g: ComputationGraph, path) -> None:
    write_json(path, graph_to_doc(g))


def load_graph(path) -> ComputationGraph:
    return build_graph(read_json(path, "graph"))


# ---------------------------------------------------------------------------
# Parameter initialization
# ---------------------------------------------------------------------------

def init_params(g: ComputationGraph, rng: np.random.Generator) -> ComputationGraph:
    """He-style init: weight rows ~ N(0, 2/fan_in), biases zero, BN identity.

    Draws in ascending vertex-id order so a fixed seed yields fixed weights.
    """
    for vid in sorted(g.vertices):
        vx = g.vertices[vid]
        if vx.params is None or vx.params.weight is None:
            continue
        fan_in = vx.params.weight.shape[1]
        vx.params.weight = rng.normal(0.0, np.sqrt(2.0 / fan_in), vx.params.weight.shape)
        if vx.params.bias is not None:
            vx.params.bias = np.zeros_like(vx.params.bias)
    return g


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

_DOT_PALETTE = (
    "#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f", "#cab2d6", "#ffff99",
    "#1f78b4", "#33a02c", "#e31a1c", "#ff7f00", "#6a3d9a", "#b15928",
)


def export_dot(g: ComputationGraph, coloring: Optional[dict[int, int]] = None) -> str:
    """Render the graph as DOT; vertices sharing a coloring label share a fillcolor."""
    lines = ["digraph G {", "  node [shape=box, style=filled, fillcolor=white];"]
    coloring = coloring or {}
    for vid in sorted(g.vertices):
        vx = g.vertices[vid]
        bits = [vx.name or f"v{vid}", vx.kind.op, vx.kind.label()]
        label = "\\n".join(b for b in bits if b)
        attrs = [f'label="{label}"']
        if vid in coloring:
            color = _DOT_PALETTE[coloring[vid] % len(_DOT_PALETTE)]
            attrs.append(f'fillcolor="{color}"')
        lines.append(f"  n{vid} [{', '.join(attrs)}];")
    for src, dst in g.edges:
        lines.append(f"  n{src} -> n{dst};")
    lines.append("}")
    return "\n".join(lines)
