import json

import numpy as np
import pytest

from zigprune.builders import BUILDERS, demo_net
from zigprune.compression import (
    build_channel_maps,
    compress,
    detect_zero_groups,
    group_flops_savings,
    make_mask,
    prune,
    verify_equivalence,
)
from zigprune.engine import forward
from zigprune.errors import AllGroupsZeroInComponent
from zigprune.graph import (
    count_flops_params,
    graphs_structurally_equal,
    infer_shapes,
    load_graph,
)
from zigprune.partition import partition, slice_view, zero_group


def randomized(g, rng):
    """Non-default BN stats and biases so equivalence is a real check."""
    for vx in g.vertices.values():
        p = vx.params
        if p is None:
            continue
        if p.gamma is not None:
            p.gamma = rng.normal(1.0, 0.3, p.gamma.shape)
            p.beta = rng.normal(0.0, 0.3, p.beta.shape)
            p.running_mean = rng.normal(0.0, 0.5, p.running_mean.shape)
            p.running_var = rng.uniform(0.5, 2.0, p.running_var.shape)
        if p.bias is not None:
            p.bias = rng.normal(0.0, 0.2, p.bias.shape)
    return g


def random_mask_ids(part, rng, frac=0.5):
    """Random strict subset of each component's groups."""
    ids = []
    for ci, width in enumerate(part.widths):
        if width < 2:
            continue
        k = int(rng.integers(0, max(1, int(width * frac)) + 1))
        if k == 0:
            continue
        offset = next(i for i, z in enumerate(part.zigs) if z.component_id == ci)
        ids.extend(int(offset + j) for j in rng.choice(width, size=k, replace=False))
    return ids


def test_detect_empty_mask():
    g = demo_net(seed=1)
    part = partition(g)
    mask = detect_zero_groups(g, part)
    assert mask.empty
    small, _ = compress(g, part, mask)
    assert graphs_structurally_equal(g, small)


def test_detect_flags_exact_zero_groups_only():
    g = demo_net(seed=1)
    part = partition(g)
    zero_group(g, part.zigs[2])
    zero_group(g, part.zigs[3])
    # a denormal-small but nonzero group must not be flagged
    slice_view(g, part.zigs[4].slices[0])[...] = 0.0
    for s in part.zigs[4].slices[1:]:
        slice_view(g, s)[...] = 0.0
    slice_view(g, part.zigs[4].slices[0])[0, 0] = 1e-30
    mask = detect_zero_groups(g, part)
    assert mask.zero_flags[2] and mask.zero_flags[3]
    assert not mask.zero_flags[4]
    assert mask.survivors[0] == [j for j in range(16) if j not in (2, 3)]


def test_all_groups_zero_raises():
    g = demo_net(seed=1)
    part = partition(g)
    for z in part.zigs:
        if z.component_id == 0:
            zero_group(g, z)
    with pytest.raises(AllGroupsZeroInComponent):
        detect_zero_groups(g, part)


def test_channel_map_concat_offsets():
    doc = {
        "input_shapes": [[1, 2, 4, 4]],
        "vertices": [
            {"id": 0, "op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
             "in_channels": 2, "out_channels": 3},
            {"id": 1, "op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
             "in_channels": 2, "out_channels": 3},
            {"id": 2, "op": "concat"},
            {"id": 3, "op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
             "in_channels": 6, "out_channels": 2},
            {"id": 4, "op": "output"},
        ],
        "edges": [[0, 2], [1, 2], [2, 3], [3, 4]],
    }
    from zigprune.graph import build_graph, init_params
    g = infer_shapes(build_graph(doc))
    init_params(g, np.random.default_rng(0))
    part = partition(g)
    # components: conv0 (3 groups), conv1 (3 groups); conv3 is output-adjacent
    mask = make_mask(part, [1, 3, 5])  # conv0 keeps [0, 2]; conv1 keeps [1]
    maps = build_channel_maps(g, part, mask)
    assert maps[0] == [0, 2]
    assert maps[1] == [1]
    assert maps[2] == [0, 2, 4]


def test_channel_map_sd_add_shares_survivors():
    g = demo_net(seed=1)
    part = partition(g)
    mask = make_mask(part, [16, 18])  # branch-B groups 0 and 2
    maps = build_channel_maps(g, part, mask)
    survivors = [j for j in range(16) if j not in (0, 2)]
    assert maps[3] == survivors
    assert maps[4] == survivors
    assert maps[5] == survivors
    # concat output: full branch A then shifted branch B survivors
    assert maps[9] == list(range(16)) + [16 + j for j in survivors]


def test_channel_map_flatten_block_expansion():
    doc = {
        "input_shapes": [[1, 2, 2, 2]],
        "vertices": [
            {"id": 0, "op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
             "in_channels": 2, "out_channels": 2},
            {"id": 1, "op": "batch_norm", "channels": 2},
            {"id": 2, "op": "flatten"},
            {"id": 3, "op": "linear", "in_features": 8, "out_features": 2},
            {"id": 4, "op": "output"},
        ],
        "edges": [[0, 1], [1, 2], [2, 3], [3, 4]],
    }
    from zigprune.graph import build_graph, init_params
    g = infer_shapes(build_graph(doc))
    init_params(g, np.random.default_rng(0))
    part = partition(g)
    mask = make_mask(part, [0])  # drop channel 0 of the conv, keep [1]
    maps = build_channel_maps(g, part, mask)
    assert maps[2] == [4, 5, 6, 7]


def test_channel_table_matches_pruned_shapes():
    # every vertex's map is as wide as its pruned output, and the output's
    # predecessor keeps every channel, on the builders and random DAGs
    from zigprune.builders import random_small_dag
    rng = np.random.default_rng(41)
    graphs = [make(seed=17) for _, make in sorted(BUILDERS.items())]
    graphs += [random_small_dag(rng) for _ in range(30)]
    for g in graphs:
        part = partition(g)
        for _ in range(3):
            mask = make_mask(part, random_mask_ids(part, rng))
            maps = build_channel_maps(g, part, mask)
            small, _ = compress(g, part, mask)
            for vid, vx in small.vertices.items():
                if vid != small.output_id:
                    assert len(maps[vid]) == vx.out_shape[1], vid
            for p in g.preds[g.output_id]:
                assert maps[p] == list(range(g.vertices[p].out_shape[1]))


def test_prune_demo_net_param_arithmetic():
    g = randomized(demo_net(seed=2), np.random.default_rng(3))
    part = partition(g)
    # zero half of each prunable component's groups
    ids = list(range(0, 8)) + list(range(16, 24)) + list(range(32, 48))
    for i in ids:
        zero_group(g, part.zigs[i])
    small, mask = compress(g, part)
    assert mask.zero_group_count() == 32
    # survivors: convs 16->8 wide, linear1 32->16 wide
    _, params = count_flops_params(small)
    conv = 8 * (9 * 3) + 8
    bns = 3 * (2 * 8) + 2 * 16
    linear1 = 16 * (16 * 8 * 8) + 16
    linear2 = 10 * 16 + 10
    assert params == 3 * conv + bns + linear1 + linear2


def test_prune_fig_style_consumer_erasure():
    # zeroing a producer group erases the consumer's input slice even though
    # the consumer's own rows survive
    g = randomized(demo_net(seed=5), np.random.default_rng(6))
    part = partition(g)
    zero_group(g, part.zigs[1])  # branch-A channel 1
    small, _ = compress(g, part)
    lin = small.vertices[13]
    assert lin.kind.in_features == (32 - 1) * 8 * 8
    assert lin.kind.out_features == 32  # own rows untouched
    assert small.vertices[0].kind.out_channels == 15
    assert small.vertices[10].kind.channels == 31


def test_equivalence_random_masks_all_builders():
    rng = np.random.default_rng(7)
    for name, make in sorted(BUILDERS.items()):
        for trial in range(10):
            g = randomized(make(seed=int(rng.integers(1 << 30))), rng)
            part = partition(g)
            ids = random_mask_ids(part, rng)
            for i in ids:
                zero_group(g, part.zigs[i])
            small, _ = compress(g, part)
            report = verify_equivalence(g, small, n_trials=5, tol=1e-9, rng=rng)
            assert report["passed"], (name, trial, report)


def test_equivalence_empty_mask_exact_zero_diff():
    g = randomized(demo_net(seed=8), np.random.default_rng(9))
    part = partition(g)
    small, _ = compress(g, part)
    report = verify_equivalence(g, small, n_trials=3, rng=np.random.default_rng(1))
    assert report["max_abs_diff"] == 0.0


def test_equivalence_negative_control():
    g = randomized(demo_net(seed=8), np.random.default_rng(9))
    part = partition(g)
    zero_group(g, part.zigs[0])
    small, _ = compress(g, part)
    small.vertices[13].params.weight[0, 0] += 1.0
    report = verify_equivalence(g, small, n_trials=3, rng=np.random.default_rng(1))
    assert not report["passed"]


def test_monotone_reduction():
    g = randomized(demo_net(seed=10), np.random.default_rng(11))
    part = partition(g)
    f0, p0 = count_flops_params(g)
    zero_group(g, part.zigs[20])
    small, _ = compress(g, part)
    f1, p1 = count_flops_params(small)
    assert f1 < f0 and p1 < p0


def test_composition_of_masks():
    rng = np.random.default_rng(12)
    g = randomized(demo_net(seed=13), rng)
    part = partition(g)
    a_ids = [0, 17]
    b_ids = [5, 20, 33]

    # path 1: zero A, compress, zero B in the smaller graph, compress again
    g1 = randomized(demo_net(seed=13), np.random.default_rng(12))
    part1 = partition(g1)
    for i in a_ids:
        zero_group(g1, part1.zigs[i])
    mid, _ = compress(g1, part1)
    part_mid = partition(mid)

    def surviving_position(part_full, mask_ids, zig_id):
        z = part_full.zigs[zig_id]
        survivors = [w.group_index for w in part_full.zigs
                     if w.component_id == z.component_id
                     and part_full.zigs.index(w) not in mask_ids]
        offset = next(i for i, w in enumerate(part_mid.zigs)
                      if w.component_id == z.component_id)
        return offset + survivors.index(z.group_index)

    for i in b_ids:
        zero_group(mid, part_mid.zigs[surviving_position(part1, a_ids, i)])
    final_two_step, _ = compress(mid, part_mid)

    # path 2: zero A union B at once
    for i in a_ids + b_ids:
        zero_group(g, part.zigs[i])
    final_once, _ = compress(g, part)
    assert graphs_structurally_equal(final_two_step, final_once)


def test_idempotent_on_compressed_graph():
    g = randomized(demo_net(seed=14), np.random.default_rng(15))
    part = partition(g)
    zero_group(g, part.zigs[3])
    small, _ = compress(g, part)
    part2 = partition(small)
    again, mask2 = compress(small, part2)
    assert mask2.empty
    assert graphs_structurally_equal(small, again)


def test_equivalence_on_random_dags():
    from zigprune.builders import random_small_dag
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(30):
        g = randomized(random_small_dag(rng), rng)
        part = partition(g)
        ids = random_mask_ids(part, rng)
        if not ids:
            continue
        for i in ids:
            zero_group(g, part.zigs[i])
        small, _ = compress(g, part)
        rep = verify_equivalence(g, small, n_trials=3, tol=1e-9, rng=rng)
        assert rep["passed"], rep
        checked += 1
    assert checked >= 20


def test_group_flops_savings_match_single_group_prune():
    for name, make in sorted(BUILDERS.items()):
        g = make(seed=16)
        part = partition(g)
        full, _ = count_flops_params(g)
        savings = group_flops_savings(g, part)
        assert len(savings) == len(part.zigs)
        for i, saving in enumerate(savings):
            small, _ = compress(g, part, make_mask(part, [i]))
            assert saving == full - count_flops_params(small)[0] > 0, (name, i)


def test_group_flops_savings_width_one_component(tmp_path):
    # conv0 has one output channel, so the one-survivor floor keeps its only
    # group; conv1 (two channels) can lose one
    doc = {
        "input_shapes": [[1, 2, 4, 4]],
        "vertices": [
            {"id": 0, "op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
             "in_channels": 2, "out_channels": 1},
            {"id": 1, "op": "conv2d", "kernel": 1, "stride": 1, "padding": 0,
             "in_channels": 1, "out_channels": 2},
            {"id": 2, "op": "flatten"},
            {"id": 3, "op": "linear", "in_features": 32, "out_features": 2},
            {"id": 4, "op": "output"},
        ],
        "edges": [[0, 1], [1, 2], [2, 3], [3, 4]],
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    g = infer_shapes(load_graph(str(path)))
    part = partition(g)
    assert sorted(part.widths) == [0, 1, 2]
    full, _ = count_flops_params(g)
    savings = group_flops_savings(g, part)
    for i, z in enumerate(part.zigs):
        if part.widths[z.component_id] == 1:
            assert savings[i] == 0
        else:
            small, _ = compress(g, part, make_mask(part, [i]))
            assert savings[i] == full - count_flops_params(small)[0] > 0


def zero_at_random(g, part, rng):
    """Zero a random strict subset of each component's groups, and a strict
    subset of the slices of some other groups (those stay nonzero)."""
    ids = set(random_mask_ids(part, rng))
    for i in ids:
        zero_group(g, part.zigs[i])
    for i, z in enumerate(part.zigs):
        if i not in ids and len(z.slices) > 1 and rng.random() < 0.3:
            for j in rng.choice(len(z.slices), len(z.slices) - 1, replace=False):
                slice_view(g, z.slices[j])[...] = 0.0
    return ids


def test_detect_zero_groups_matches_group_is_zero():
    from zigprune.builders import random_small_dag
    from zigprune.partition import group_is_zero
    rng = np.random.default_rng(31)
    graphs = [make(seed=s) for make in BUILDERS.values() for s in range(5)]
    graphs += [random_small_dag(rng) for _ in range(200)]
    flagged = 0
    for g in graphs:
        randomized(g, rng)  # biases nonzero, so a partly zeroed group is not zero
        part = partition(g)
        zero_at_random(g, part, rng)
        want = [group_is_zero(g, z) for z in part.zigs]
        assert detect_zero_groups(g, part).zero_flags == want
        flagged += sum(want)
    assert flagged > 100


def test_detect_zero_groups_on_benchmark_wide_graph(monkeypatch):
    import os
    from zigprune.graph import build_graph, init_params
    from zigprune.partition import group_is_zero
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    from workloads import DhspgManyGroups, wide_doc
    w = DhspgManyGroups
    g = infer_shapes(build_graph(wide_doc(w.GROUPS, w.VARS, w.CLASSES)))
    init_params(g, np.random.default_rng(2))
    part = partition(g)
    for i in range(0, len(part.zigs), 2):
        zero_group(g, part.zigs[i])
    flags = detect_zero_groups(g, part).zero_flags
    assert flags == [group_is_zero(g, z) for z in part.zigs]
    assert sum(flags) == w.GROUPS // 2
