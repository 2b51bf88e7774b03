from dataclasses import MISSING, fields

import numpy as np
import pytest

from zigprune.builders import BUILDERS, demo_net, residual_block_net, stacked_unets_mini
from zigprune.errors import (
    CycleDetected,
    DanglingEdge,
    GraphError,
    ShapeMismatchAtSDJoint,
    UnknownKindString,
)
from zigprune.graph import (
    _KIND_BY_OP,
    Add,
    Concat,
    build_graph,
    count_flops_params,
    export_dot,
    graph_to_doc,
    infer_shapes,
)

from graphs import conv_chain, graphs_structurally_equal, random_small_dag


def single_linear_doc():
    return {
        "input_shapes": [[1, 4]],
        "vertices": [{"id": 0, "op": "linear", "in_features": 4,
                      "out_features": 2, "has_bias": False}],
        "edges": [],
    }


def test_demo_net_is_17_vertices_acyclic():
    g = demo_net()
    assert len(g.vertices) == 17
    assert len(g.topo_order) == 17  # toposort succeeds only on DAGs


def test_single_vertex_graph():
    g = build_graph(single_linear_doc())
    assert len(g.vertices) == 1
    infer_shapes(g)
    assert g.vertices[0].out_shape == (1, 2)


def test_dangling_edge_rejected():
    doc = single_linear_doc()
    doc["edges"] = [[0, 99]]
    with pytest.raises(DanglingEdge):
        build_graph(doc)


def test_cycle_rejected():
    doc = {
        "input_shapes": [],
        "vertices": [{"id": 0, "op": "relu"}, {"id": 1, "op": "relu"}],
        "edges": [[0, 1], [1, 0]],
    }
    with pytest.raises(CycleDetected):
        build_graph(doc)


def test_unknown_kind_string_rejected_but_explicit_unknown_allowed():
    doc = single_linear_doc()
    doc["vertices"][0] = {"id": 0, "op": "conv2D_typo"}
    with pytest.raises(UnknownKindString):
        build_graph(doc)
    doc["vertices"][0] = {"id": 0, "op": "unknown", "opname": "custom"}
    g = build_graph(doc)
    assert g.vertices[0].kind.opname == "custom"


def test_conv_shape_inference():
    doc = {
        "input_shapes": [[1, 3, 8, 8]],
        "vertices": [{"id": 0, "op": "conv2d", "kernel": 3, "stride": 1,
                      "padding": 1, "in_channels": 3, "out_channels": 16}],
        "edges": [],
    }
    g = infer_shapes(build_graph(doc))
    assert g.vertices[0].out_shape == (1, 16, 8, 8)


def test_concat_channel_sum():
    doc = {
        "input_shapes": [[1, 3, 8, 8]],
        "vertices": [
            {"id": 0, "op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
             "in_channels": 3, "out_channels": 16},
            {"id": 1, "op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
             "in_channels": 3, "out_channels": 16},
            {"id": 2, "op": "concat"},
        ],
        "edges": [[0, 2], [1, 2]],
    }
    g = infer_shapes(build_graph(doc))
    assert g.vertices[2].out_shape == (1, 32, 8, 8)


def test_add_shape_mismatch_raises():
    doc = {
        "input_shapes": [[1, 3, 8, 8]],
        "vertices": [
            {"id": 0, "op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
             "in_channels": 3, "out_channels": 16},
            {"id": 1, "op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
             "in_channels": 3, "out_channels": 8},
            {"id": 2, "op": "add"},
        ],
        "edges": [[0, 2], [1, 2]],
    }
    with pytest.raises(ShapeMismatchAtSDJoint):
        infer_shapes(build_graph(doc))


def test_infer_shapes_idempotent():
    g = demo_net()
    shapes = {v: g.vertices[v].out_shape for v in g.vertices}
    infer_shapes(g)
    assert shapes == {v: g.vertices[v].out_shape for v in g.vertices}


def test_flops_linear_no_bias():
    g = infer_shapes(build_graph(single_linear_doc()))
    assert count_flops_params(g) == (16, 8)


def test_flops_pointwise_conv():
    doc = {
        "input_shapes": [[1, 2, 1, 1]],
        "vertices": [{"id": 0, "op": "conv2d", "kernel": 1, "stride": 1,
                      "padding": 0, "in_channels": 2, "out_channels": 3,
                      "has_bias": False}],
        "edges": [],
    }
    g = infer_shapes(build_graph(doc))
    assert count_flops_params(g) == (12, 6)


def test_demo_net_flops_params_golden():
    # hand tally: convs 3*(221184+4096), BNs 8192*3+16384, relus 4096+32,
    # adds 2*4096, pool 8192, linear1 131104, linear2 650
    flops, params = count_flops_params(demo_net())
    assert flops == 869066
    assert params == 67402


def test_flops_invariant_under_vertex_list_order():
    doc = graph_to_doc(demo_net())
    base = count_flops_params(infer_shapes(build_graph(doc)))
    rng = np.random.default_rng(7)
    for _ in range(5):
        rng.shuffle(doc["vertices"])
        assert count_flops_params(infer_shapes(build_graph(doc))) == base


def test_builders_pass_shape_inference():
    for name, make in BUILDERS.items():
        g = make()
        assert all(v.out_shape is not None for v in g.vertices.values()), name


def test_residual_block_has_one_add():
    g = residual_block_net()
    adds = [v for v in g.vertices.values() if isinstance(v.kind, Add)]
    assert len(adds) == 1


def test_stacked_unets_two_inputs_two_concats():
    g = stacked_unets_mini()
    concats = [v for v in g.vertices.values() if isinstance(v.kind, Concat)]
    assert len(concats) >= 2
    assert len(g.input_shapes) == 2
    assert {g.input_binding[v] for v in g.input_ids} == {0, 1}


def test_serialization_round_trip_builders():
    for make in BUILDERS.values():
        g = make(seed=3)
        g2 = infer_shapes(build_graph(graph_to_doc(g)))
        assert graphs_structurally_equal(g, g2)


def test_serialization_round_trip_random_dags():
    rng = np.random.default_rng(0)
    for _ in range(100):
        g = random_small_dag(rng)
        g2 = build_graph(graph_to_doc(g))
        assert graphs_structurally_equal(g, g2)


# Document attributes per op, written out by hand; has_bias at its
# non-default value so the round trip cannot pass by falling back to it.
OP_ATTRS = {
    "conv2d": {"kernel": 3, "stride": 2, "padding": 1, "in_channels": 2,
               "out_channels": 5, "has_bias": False},
    "linear": {"in_features": 4, "out_features": 3, "has_bias": False},
    "batch_norm": {"channels": 4},
    "max_pool": {"kernel": 3, "stride": 2},
    "avg_pool": {"kernel": 2, "stride": 1},
    "unknown": {"opname": "mystery"},
}


def one_op_doc(op, attrs):
    """The op as vertex 2, fed by as many ReLU roots as its category needs."""
    cls = _KIND_BY_OP[op]
    n_in = 2 if cls.category in ("sd_joint", "sid_joint") else 1
    roots = [{"id": i, "op": "relu"} for i in range(n_in)]
    return {"input_shapes": [[1, 4]],
            "vertices": roots + [{"id": 2, "op": op, **attrs}],
            "edges": [[i, 2] for i in range(n_in)]}


@pytest.mark.parametrize("op", sorted(_KIND_BY_OP))
def test_kind_attributes_round_trip(op):
    cls = _KIND_BY_OP[op]
    attrs = OP_ATTRS.get(op, {})
    assert set(attrs) == {f.name for f in fields(cls)}
    g = build_graph(one_op_doc(op, attrs))
    assert g.vertices[2].kind == cls(**attrs)
    vdoc = graph_to_doc(g, include_params=False)["vertices"][-1]
    assert vdoc == {"id": 2, "op": op, **attrs}
    assert graphs_structurally_equal(g, build_graph(graph_to_doc(g)))
    for f in fields(cls):
        partial = {k: v for k, v in attrs.items() if k != f.name}
        if f.default is MISSING:
            with pytest.raises(GraphError, match=f.name):
                build_graph(one_op_doc(op, partial))
        else:
            kind = build_graph(one_op_doc(op, partial)).vertices[2].kind
            assert getattr(kind, f.name) == f.default


def typed_doc():
    """Conv, BatchNorm, max-pool, Flatten and linear, with numpy integers
    among its sizes and numpy and Python numbers among the conv's bias."""
    return {
        "input_shapes": [[2, np.int64(3), 8, 8]],
        "vertices": [
            {"id": 0, "op": "conv2d", "kernel": np.int32(3), "stride": 1, "padding": 1,
             "in_channels": 3, "out_channels": 4, "has_bias": True,
             "params": {"bias": [0.5, -1, np.float32(2.0), np.int64(3)]}},
            {"id": 1, "op": "batch_norm", "channels": 4},
            {"id": 2, "op": "max_pool", "kernel": 2, "stride": np.int64(2)},
            {"id": 3, "op": "flatten"},
            {"id": 4, "op": "linear", "in_features": 64, "out_features": 2,
             "has_bias": False},
        ],
        "edges": [[0, 1], [1, 2], [2, 3], [3, 4]],
    }


@pytest.mark.parametrize("path, value, named", [
    (("vertices", 0, "has_bias"), "false", "vertex 0: conv2d attribute 'has_bias'"),
    (("vertices", 4, "has_bias"), 1, "vertex 4: linear attribute 'has_bias'"),
    (("vertices", 2, "kernel"), 2.7, "vertex 2: max_pool attribute 'kernel'"),
    (("vertices", 2, "stride"), "2", "vertex 2: max_pool attribute 'stride'"),
    (("vertices", 0, "kernel"), 0, "vertex 0: conv2d attribute 'kernel'"),
    (("vertices", 0, "stride"), 0, "vertex 0: conv2d attribute 'stride'"),
    (("vertices", 0, "padding"), -1, "vertex 0: conv2d attribute 'padding'"),
    (("vertices", 0, "out_channels"), np.float64(4.0), "vertex 0: conv2d attribute 'out_channels'"),
    (("vertices", 1, "channels"), True, "vertex 1: batch_norm attribute 'channels'"),
    (("vertices", 4, "in_features"), 0, "vertex 4: linear attribute 'in_features'"),
    (("vertices", 3), {"id": 3, "op": "unknown", "opname": 5},
     "vertex 3: unknown attribute 'opname'"),
    (("vertices", 0, "id"), 0.9, "vertex 0.9: 'id'"),
    (("vertices", 0, "input"), 0.7, "vertex 0: 'input'"),
    (("input_shapes", 0, 1), 3.9, "input_shapes[0]"),
    (("edges", 0, 1), 1.2, "edge 0: target"),
    (("edges", 0), [0], "edge 0"),
    (("edges", 1), 5, "edge 1"),
    (("input_shapes", 0), 4, "input_shapes[0]"),
    (("vertices", 2), {"op": "max_pool", "kernel": 2, "stride": 2}, "vertices[2]: 'id'"),
    (("vertices", 3, "name"), 5, "vertex 3: 'name'"),
    (("vertices", 0, "params", "bias"), ["1", "2", "3", "4"], "vertex 0: parameter 'bias'"),
    (("vertices", 0, "params", "bias"), [True, False, True, False],
     "vertex 0: parameter 'bias'"),
    (("vertices", 0, "params", "bias"), [True, 1.5, 2.0, 3.0], "vertex 0: parameter 'bias'"),
    (("vertices", 0, "params", "bias"), [float("nan"), 1.0, 2.0, 3.0],
     "vertex 0: parameter 'bias'"),
    (("vertices", 1, "params"), {"running_var": [1.0, float("inf"), 1.0, 1.0]},
     "vertex 1: parameter 'running_var'"),
    (("vertices", 4, "params"), {"weight": [[0.5] * 64, [0.5] * 63 + [None]]},
     "vertex 4: parameter 'weight'"),
])
def test_graph_document_values_are_not_coerced(path, value, named):
    doc = typed_doc()
    infer_shapes(build_graph(doc))
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = value
    with pytest.raises(GraphError) as err:
        build_graph(doc)
    assert named in str(err.value)


def test_conv_chain_vertex_count():
    g = conv_chain(100)
    assert 97 <= len(g.vertices) <= 101
    assert all(v.out_shape is not None for v in g.vertices.values())


def test_export_dot_chain():
    doc = {
        "input_shapes": [[1, 4]],
        "vertices": [
            {"id": 0, "op": "linear", "in_features": 4, "out_features": 4},
            {"id": 1, "op": "relu"},
        ],
        "edges": [[0, 1]],
    }
    dot = export_dot(build_graph(doc))
    assert dot.count("n0 [") == 1 and dot.count("n1 [") == 1
    assert "n0 -> n1;" in dot
    assert dot.startswith("digraph")


def test_export_dot_coloring():
    g = demo_net()
    coloring = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1}
    dot = export_dot(g, coloring)
    import re
    colors = dict(re.findall(r'n(\d+) \[.*fillcolor="(#\w+)"', dot))
    assert colors["0"] == colors["1"] == colors["2"]
    assert colors["3"] == colors["4"]
    assert colors["0"] != colors["3"]
    # empty coloring leaves defaults only
    assert 'fillcolor="#' not in export_dot(g)
