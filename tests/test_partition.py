import numpy as np
import pytest

from zigprune.builders import demo_net, residual_block_net, stacked_unets_mini
from zigprune.compression import compress, make_mask, verify_equivalence
from zigprune.engine import forward
from zigprune.errors import GraphError, InconsistentStemWidths
from zigprune.graph import (ACCESSORY, SD_JOINT, STEM, UNKNOWN, build_graph, graph_to_doc,
                            infer_shapes, init_params)
from zigprune.paramvec import ParamIndex
from zigprune.partition import (
    DependencyComponent,
    ExcludedComponent,
    ParamSlice,
    dependency_components,
    form_zigs,
    partition,
    zero_group,
)

from graphs import random_small_dag, randomized, time_partition
from test_compression import slice_view


# Hand-written graphs. Stems whose channels reach the output or an unknown op
# through a concat, where the edge rule stops; an unknown op joined to the
# conv feeding it; a BatchNorm on the graph input (no stem controls its
# channels), feeding a conv or the output; a BatchNorm after a concat whose first half
# comes from a conv that also feeds an unknown op.
CONCAT_TO_OUTPUT = {
    "input_shapes": [[1, 4]],
    "vertices": [
        {"id": 0, "op": "linear", "in_features": 4, "out_features": 3},
        {"id": 1, "op": "linear", "in_features": 4, "out_features": 3},
        {"id": 2, "op": "concat"},
        {"id": 3, "op": "output"},
    ],
    "edges": [[0, 2], [1, 2], [2, 3]],
}

CONCAT_TO_UNKNOWN = {
    "input_shapes": [[1, 2, 4, 4]],
    "vertices": [
        {"id": 0, "op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
         "in_channels": 2, "out_channels": 3},
        {"id": 1, "op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
         "in_channels": 2, "out_channels": 3},
        {"id": 2, "op": "concat"},
        {"id": 3, "op": "unknown", "opname": "mystery"},
        {"id": 4, "op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
         "in_channels": 6, "out_channels": 2},
        {"id": 5, "op": "output"},
    ],
    "edges": [[0, 2], [1, 2], [2, 3], [3, 4], [4, 5]],
}

CONV_TO_UNKNOWN = {
    "input_shapes": [[1, 2, 4, 4]],
    "vertices": [
        {"id": 0, "op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
         "in_channels": 2, "out_channels": 4},
        {"id": 1, "op": "unknown", "opname": "mystery"},
    ],
    "edges": [[0, 1]],
}

INPUT_BN_TO_CONV = {
    "input_shapes": [[1, 3, 4, 4]],
    "vertices": [
        {"id": 0, "op": "batch_norm", "channels": 3},
        {"id": 1, "op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
         "in_channels": 3, "out_channels": 2},
        {"id": 2, "op": "output"},
    ],
    "edges": [[0, 1], [1, 2]],
}

INPUT_BN_TO_OUTPUT = {
    "input_shapes": [[1, 3, 4, 4]],
    "vertices": [
        {"id": 0, "op": "batch_norm", "channels": 3},
        {"id": 1, "op": "output"},
    ],
    "edges": [[0, 1]],
}

CONCAT_OF_UNKNOWN_FEEDER_TO_BN = {
    "input_shapes": [[1, 2, 4, 4]],
    "vertices": [
        {"id": 0, "op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
         "in_channels": 2, "out_channels": 3},
        {"id": 1, "op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
         "in_channels": 2, "out_channels": 3},
        {"id": 2, "op": "unknown", "opname": "mystery"},
        {"id": 3, "op": "concat"},
        {"id": 4, "op": "batch_norm", "channels": 6},
        {"id": 5, "op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
         "in_channels": 6, "out_channels": 2},
        {"id": 6, "op": "output"},
    ],
    "edges": [[0, 2], [0, 3], [1, 3], [3, 4], [4, 5], [5, 6]],
}

HAND_WRITTEN = (CONCAT_TO_OUTPUT, CONCAT_TO_UNKNOWN, CONV_TO_UNKNOWN, INPUT_BN_TO_CONV,
                INPUT_BN_TO_OUTPUT, CONCAT_OF_UNKNOWN_FEEDER_TO_BN)


def test_pure_stem_chain_has_no_seeds():
    doc = {
        "input_shapes": [[1, 2, 4, 4]],
        "vertices": [
            {"id": 0, "op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
             "in_channels": 2, "out_channels": 4},
            {"id": 1, "op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
             "in_channels": 4, "out_channels": 4},
            {"id": 2, "op": "output"},
        ],
        "edges": [[0, 1], [1, 2]],
    }
    g = infer_shapes(build_graph(doc))
    # no edge joins two stems: each becomes its own component
    part = partition(g)
    assert [c.vertex_ids for c in part.components] == [{0}, {1}]
    # the last conv feeds the output: excluded; the first is groupable
    assert part.widths == [4, 0]
    assert [e.reason for e in part.excluded] == ["output-adjacent"]


def test_stems_reaching_output_through_concat_are_excluded():
    # The edge rule stops at the concat, so neither linear feeds the output
    # directly, yet removing a row of either would narrow the output.
    g = infer_shapes(build_graph(CONCAT_TO_OUTPUT))
    init_params(g, np.random.default_rng(0))
    part = partition(g)
    assert part.widths == [0, 0] and part.zigs == []
    assert [e.reason for e in part.excluded] == ["output-adjacent"] * 2
    assert all(c.adjacent_to_output for c in part.components)
    small, mask = compress(g, part)
    assert mask.empty
    assert verify_equivalence(g, small, n_trials=3)["passed"]


def test_stems_reaching_unknown_through_concat_are_excluded():
    # The edge rule stops at the concat, so the unknown op's component does
    # not absorb the convs, yet removing a channel of either would narrow the
    # opaque op's input.
    g = infer_shapes(build_graph(CONCAT_TO_UNKNOWN))
    init_params(g, np.random.default_rng(0))
    part = partition(g)
    assert part.zigs == [] and not any(part.widths)
    excluded = {e.component_id: e.reason for e in part.excluded}
    for stem in (0, 1):
        ci = next(ci for ci, c in enumerate(part.components) if stem in c.stem_ids)
        assert excluded[ci] == "contains-unknown"


def test_unknown_vertex_seeds_own_component():
    g = infer_shapes(build_graph(CONV_TO_UNKNOWN))
    part = partition(g)
    assert [c.vertex_ids for c in part.components] == [{0, 1}]
    assert part.components[0].contains_unknown
    assert part.zigs == []
    assert part.excluded[0].reason == "contains-unknown"
    # the conv's 4x2 weight and 4 biases land in the excluded tally
    assert part.excluded[0].param_count == 12


def test_demo_net_grown_components():
    g = demo_net()
    comps = dependency_components(g)
    sets = {frozenset(c.vertex_ids) for c in comps}
    assert frozenset({0, 1, 2}) in sets
    assert frozenset({3, 4, 5, 6, 7, 8}) in sets
    assert frozenset({10, 11, 12}) in sets
    assert frozenset({13, 14}) in sets
    by_set = {frozenset(c.vertex_ids): c for c in comps}
    assert by_set[frozenset({3, 4, 5, 6, 7, 8})].stem_ids == [3, 4]
    assert by_set[frozenset({0, 1, 2})].stem_ids == [0]


def stem_feeding_two_chains(second_chain_end: dict) -> dict:
    # conv 0 feeds BatchNorm 1 and BatchNorm 2; BatchNorm 1 feeds conv 3,
    # BatchNorm 2 feeds vertex 4; conv 3 feeds the output
    return {
        "input_shapes": [[1, 2, 4, 4]],
        "vertices": [
            {"id": 0, "op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
             "in_channels": 2, "out_channels": 3},
            {"id": 1, "op": "batch_norm", "channels": 3},
            {"id": 2, "op": "batch_norm", "channels": 3},
            {"id": 3, "op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
             "in_channels": 3, "out_channels": 2},
            {"id": 4, **second_chain_end},
            {"id": 5, "op": "output"},
        ],
        "edges": [[0, 1], [0, 2], [1, 3], [2, 4], [3, 5]],
    }


def test_stem_feeding_two_batchnorm_chains_is_one_component():
    conv = {"op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
            "in_channels": 3, "out_channels": 2}
    part = partition(infer_shapes(build_graph(stem_feeding_two_chains(conv))))
    assert [c.vertex_ids for c in part.components] == [{0, 1, 2}, {3}, {4}]
    assert part.widths == [3, 0, 2]
    assert part.zigs[0].slices == [ParamSlice(0, "weight_row", 0, 1),
                                   ParamSlice(0, "bias", 0, 1),
                                   ParamSlice(1, "gamma", 0, 1),
                                   ParamSlice(1, "beta", 0, 1),
                                   ParamSlice(2, "gamma", 0, 1),
                                   ParamSlice(2, "beta", 0, 1)]
    # an unknown op ending one chain excludes the whole component
    unknown = {"op": "unknown", "opname": "mystery"}
    part = partition(infer_shapes(build_graph(stem_feeding_two_chains(unknown))))
    assert [c.vertex_ids for c in part.components] == [{0, 1, 2, 4}, {3}]
    assert part.zigs == []
    # the BatchNorm on the known chain is tallied with the conv feeding it
    assert part.excluded == [ExcludedComponent(0, "contains-unknown", 3 * 2 + 3 + 2 * 3 * 2),
                             ExcludedComponent(1, "output-adjacent", 2 * 3 + 2)]


def test_components_follow_the_edge_rule():
    graphs = builder_and_random_graphs(100, seed=7)
    graphs += [infer_shapes(build_graph(doc)) for doc in HAND_WRITTEN]
    nodes = (STEM, ACCESSORY, SD_JOINT, UNKNOWN)
    for g in graphs:
        comps = partition(g).components
        comp_of = {}
        for ci, c in enumerate(comps):
            for v in c.vertex_ids:
                assert v not in comp_of, (v, graph_to_doc(g))
                comp_of[v] = ci
        assert set(comp_of) == {v for v, vx in g.vertices.items() if vx.category in nodes}
        joining = [(u, v) for u, v in g.edges
                   if u in comp_of and g.vertices[v].category in nodes[1:]]
        assert all(comp_of[u] == comp_of[v] for u, v in joining)
        # each component is connected by joining edges
        adjacent = {v: set() for v in comp_of}
        for u, v in joining:
            adjacent[u].add(v)
            adjacent[v].add(u)
        for c in comps:
            start = min(c.vertex_ids)
            reached, stack = {start}, [start]
            while stack:
                for w in adjacent[stack.pop()] - reached:
                    reached.add(w)
                    stack.append(w)
            assert reached == c.vertex_ids, graph_to_doc(g)


def test_partition_of_unshaped_graph_raises_graph_error():
    g = build_graph(graph_to_doc(demo_net(), include_params=False))
    with pytest.raises(GraphError, match="requires inferred shapes"):
        partition(g)


def demo_golden_groups(part):
    by_comp = {}
    for z in part.zigs:
        by_comp.setdefault(z.component_id, []).append(z)
    return by_comp


def test_demo_net_golden_partition():
    g = demo_net()
    part = partition(g)
    comps = part.components
    # canonical order: branch A, branch B, concat-side accessories, classifier
    assert [c.stem_ids for c in comps] == [[0], [3, 4], [], [13], [15]]
    assert part.widths == [16, 16, 0, 32, 0]
    assert {e.component_id: e.reason for e in part.excluded} == {4: "output-adjacent"}
    assert part.excluded[0].param_count == 32 * 10 + 10

    by_comp = demo_golden_groups(part)
    assert sorted(by_comp) == [0, 1, 3]
    assert [len(by_comp[ci]) for ci in (0, 1, 3)] == [16, 16, 32]

    for j, z in enumerate(by_comp[0]):
        assert z.slices == [
            ParamSlice(0, "weight_row", j, j + 1),
            ParamSlice(0, "bias", j, j + 1),
            ParamSlice(1, "gamma", j, j + 1),
            ParamSlice(1, "beta", j, j + 1),
            ParamSlice(10, "gamma", j, j + 1),
            ParamSlice(10, "beta", j, j + 1),
        ]
    for j, z in enumerate(by_comp[1]):
        assert z.slices == [
            ParamSlice(3, "weight_row", j, j + 1),
            ParamSlice(3, "bias", j, j + 1),
            ParamSlice(4, "weight_row", j, j + 1),
            ParamSlice(4, "bias", j, j + 1),
            ParamSlice(6, "gamma", j, j + 1),
            ParamSlice(6, "beta", j, j + 1),
            ParamSlice(7, "gamma", j, j + 1),
            ParamSlice(7, "beta", j, j + 1),
            ParamSlice(10, "gamma", 16 + j, 17 + j),
            ParamSlice(10, "beta", 16 + j, 17 + j),
        ]
    for j, z in enumerate(by_comp[3]):
        assert z.slices == [
            ParamSlice(13, "weight_row", j, j + 1),
            ParamSlice(13, "bias", j, j + 1),
        ]


def test_residual_net_couples_add_feeders():
    g = residual_block_net()
    part = partition(g)
    stems = [c.stem_ids for c in part.components]
    assert [3, 4] in stems  # conv2 and the shortcut share a component
    assert [0] in stems


def test_stacked_unets_concat_split_and_arm_coupling():
    g = stacked_unets_mini()
    part = partition(g)
    names = {v.name: v.id for v in g.vertices.values()}
    by_stems = {tuple(c.stem_ids): ci for ci, c in enumerate(part.components)}
    head = by_stems[(names["a_conv_out"], names["b_conv_out"])]
    assert part.widths[head] == 8
    # each concat-consumer BN splits across its two producers' components
    for arm in ("a", "b"):
        mid = by_stems[(names[f"{arm}_conv_mid"],)]
        first = by_stems[(names[f"{arm}_conv_in"],)]
        bn_cat = names[f"{arm}_bn_cat"]
        mid_groups = [z for z in part.zigs if z.component_id == mid]
        first_groups = [z for z in part.zigs if z.component_id == first]
        assert any(s.vertex_id == bn_cat and s.start < 16
                   for z in mid_groups for s in z.slices)
        assert any(s.vertex_id == bn_cat and s.start >= 16
                   for z in first_groups for s in z.slices)


def builder_and_random_graphs(n_random: int, seed: int):
    rng = np.random.default_rng(seed)
    graphs = [make() for make in (demo_net, residual_block_net, stacked_unets_mini)]
    return graphs + [random_small_dag(rng) for _ in range(n_random)]


def test_channel_table_owns_every_group_slice():
    for g in builder_and_random_graphs(100, seed=4):
        part = partition(g)
        slice_owner = {}
        for i, z in enumerate(part.zigs):
            for s in z.slices:
                assert part.channel_groups[s.vertex_id][s.start:s.stop] == \
                    [i] * (s.stop - s.start)
                for k in range(s.start, s.stop):
                    slice_owner[(s.vertex_id, s.role, k)] = i
        for vid, vx in g.vertices.items():
            if vx.params is None:
                continue
            for role, _ in vx.params.trainable_items():
                role = "weight_row" if role == "weight" else role
                for k, owner in enumerate(part.channel_groups[vid]):
                    if owner >= 0:
                        assert slice_owner.get((vid, role, k)) == owner, (vid, role, k)


def test_batchnorm_on_graph_input_has_no_producer():
    # no stem controls the input's channels: the BatchNorm's 2*3 scalars are
    # grouped nowhere and tallied as no-producer
    part = partition(infer_shapes(build_graph(INPUT_BN_TO_CONV)))
    assert part.zigs == [] and part.widths == [0, 0]
    assert part.excluded == [ExcludedComponent(1, "output-adjacent", 3 * 2 + 2),
                             ExcludedComponent(-1, "no-producer", 2 * 3)]
    # a BatchNorm whose own component is excluded is tallied to it whole
    part = partition(infer_shapes(build_graph(INPUT_BN_TO_OUTPUT)))
    assert part.excluded == [ExcludedComponent(0, "output-adjacent", 2 * 3)]


def test_batchnorm_rows_tally_to_their_producers_component():
    g = infer_shapes(build_graph(CONCAT_OF_UNKNOWN_FEEDER_TO_BN))
    part = partition(g)
    comp_of = {s: ci for ci, c in enumerate(part.components) for s in c.stem_ids}
    # conv 0 feeds the unknown op: its 3x2 weight, 3 biases and the first
    # 3 channels of the BatchNorm are excluded; conv 1 keeps 3 groups that
    # own the BatchNorm's last 3 channels
    assert part.widths[comp_of[1]] == 3 and len(part.zigs) == 3
    assert part.excluded == [
        ExcludedComponent(comp_of[0], "contains-unknown", 3 * 2 + 3 + 2 * 3),
        ExcludedComponent(comp_of[5], "output-adjacent", 2 * 6 + 2)]
    assert part.channel_groups[4] == [-1, -1, -1, 0, 1, 2]
    for j, z in enumerate(part.zigs):
        assert z.slices == [ParamSlice(1, "weight_row", j, j + 1),
                            ParamSlice(1, "bias", j, j + 1),
                            ParamSlice(4, "gamma", 3 + j, 4 + j),
                            ParamSlice(4, "beta", 3 + j, 4 + j)]


def test_coverage_partition_accounts_every_parameter():
    graphs = builder_and_random_graphs(100, seed=6)
    graphs += [infer_shapes(build_graph(doc)) for doc in HAND_WRITTEN]
    for g in graphs:
        part = partition(g)
        total = ParamIndex(g).size
        in_groups = sum(
            sum((s.stop - s.start) * (g.vertices[s.vertex_id].params.weight.shape[1]
                                      if s.role == "weight_row" else 1)
                for s in z.slices)
            for z in part.zigs)
        in_excluded = sum(e.param_count for e in part.excluded)
        assert in_groups + in_excluded == total, graph_to_doc(g)


def test_partition_invariant_under_relabeling():
    g = demo_net()
    base = partition(g)
    rng = np.random.default_rng(5)
    ids = sorted(g.vertices)
    perm = dict(zip(ids, rng.permutation(ids)))
    doc = graph_to_doc(g)
    for vdoc in doc["vertices"]:
        vdoc["id"] = int(perm[vdoc["id"]])
    doc["edges"] = [[int(perm[s]), int(perm[d])] for s, d in doc["edges"]]
    g2 = infer_shapes(build_graph(doc))
    part2 = partition(g2)

    def group_keys(part, mapping):
        keys = set()
        for z in part.zigs:
            keys.add(frozenset(
                (mapping[s.vertex_id], s.role, s.start, s.stop) for s in z.slices))
        return keys

    inv = {v: k for k, v in perm.items()}
    assert group_keys(base, {i: i for i in ids}) == group_keys(part2, inv)


def test_inconsistent_stem_widths_raises():
    g = demo_net()
    comp = DependencyComponent(vertex_ids={0, 13}, stem_ids=[0, 13])
    with pytest.raises(InconsistentStemWidths):
        form_zigs(g, [comp])


def test_zero_invariance_against_compression():
    # zeroing any single group == structurally removing it; every group gets
    # exercised across 20 random parameter settings per architecture
    for make in (demo_net, residual_block_net, stacked_unets_mini):
        rng = np.random.default_rng(13)
        n_groups = len(partition(make()).zigs)
        per_setting = -(-n_groups // 20)  # ceil: all groups over 20 settings
        queue = list(range(n_groups))
        for _ in range(20):
            picks, queue = queue[:per_setting], queue[per_setting:]
            if not picks:
                break
            g = make(seed=int(rng.integers(1 << 30)))
            randomized(g, rng)
            part = partition(g)
            xs = [rng.normal(size=(2, *s[1:])) for s in g.input_shapes]
            for gi in picks:
                saved = [slice_view(g, s).copy() for s in part.zigs[gi].slices]
                zero_group(g, part.zigs[gi])
                small, _ = compress(g, part, make_mask(part, [gi]))
                y_full, _ = forward(g, xs, mode="eval")
                y_small, _ = forward(small, xs, mode="eval")
                assert np.abs(y_full - y_small).max() < 1e-12
                for s, val in zip(part.zigs[gi].slices, saved):
                    slice_view(g, s)[...] = val
        assert not queue


def test_partition_runtime_scales_linearly():
    time_partition(100)  # warm caches
    t1k = time_partition(1000)
    t3k = time_partition(3000)
    t10k = time_partition(10000)
    assert t10k / max(t1k, 1e-9) <= 15.0
    # per-vertex cost stays flat: t(n) <= c*n for c from the largest run
    c = 3.0 * t10k / 10000
    assert t1k <= c * 1000 and t3k <= c * 3000
