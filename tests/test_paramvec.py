import tracemalloc

import numpy as np
import pytest

from zigprune.builders import BUILDERS
from zigprune.graph import build_graph, init_params
from zigprune.paramvec import ParamIndex
from zigprune.partition import partition

from graphs import conv_chain, random_small_dag

# input (8) -> linear (no bias) -> relu -> linear (no bias) -> output: the
# first linear's 4000 rows are 4000 groups of 8 variables in one component
WIDE_LINEAR = {
    "input_shapes": [[1, 8]],
    "vertices": [
        {"id": 0, "op": "linear", "in_features": 8, "out_features": 4000, "has_bias": False},
        {"id": 1, "op": "relu"},
        {"id": 2, "op": "linear", "in_features": 4000, "out_features": 4, "has_bias": False},
        {"id": 3, "op": "output"},
    ],
    "edges": [[0, 1], [1, 2], [2, 3]],
}


def flat_layout(g) -> dict:
    """(vertex, role) -> (offset, shape), walked here: vertices by id, each
    vertex's trainable arrays in role order."""
    layout, offset = {}, 0
    for vid in sorted(g.vertices):
        if g.vertices[vid].params is not None:
            for role, arr in g.vertices[vid].params.trainable_items():
                layout[(vid, role)] = (offset, arr.shape)
                offset += arr.size
    return layout


def slice_walk_indices(layout, group) -> np.ndarray:
    """Test-only oracle: a group's flat indices from its slices, one
    ``arange`` per slice, concatenated in slice order."""
    parts = []
    for s in group.slices:
        role = "weight" if s.role == "weight_row" else s.role
        off, shape = layout[(s.vertex_id, role)]
        cols = shape[1] if s.role == "weight_row" else 1
        parts.append(np.arange(off + s.start * cols, off + s.stop * cols))
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)


def identity_graphs():
    graphs = [make(seed=3) for make in BUILDERS.values()]
    rng = np.random.default_rng(0)
    graphs += [random_small_dag(rng) for _ in range(200)]
    graphs.append(conv_chain(50))
    wide = build_graph(WIDE_LINEAR)
    init_params(wide, np.random.default_rng(1))
    return graphs + [wide]


def test_group_indices_match_the_slice_walk():
    n_groups = 0
    for g in identity_graphs():
        part = partition(g)
        index, layout = ParamIndex(g), flat_layout(g)
        for z in part.zigs:
            got = index.group_indices(z)
            want = slice_walk_indices(layout, z)
            assert got.dtype == np.intp and np.array_equal(got, want), (z, got, want)
        n_groups += len(part.zigs)
    assert n_groups > 4000 + 200


def test_group_table_is_a_read_only_csr_of_every_group():
    g = BUILDERS["demo_net"](seed=0)
    part = partition(g)
    index = ParamIndex(g)
    idx, off = index.group_table(part.table)
    assert len(off) == len(part.zigs) + 1 and off[0] == 0 and off[-1] == idx.size
    assert np.array_equal(np.concatenate([index.group_indices(z) for z in part.zigs]), idx)
    with pytest.raises(ValueError):
        index.group_indices(part.zigs[0])[0] = 0
    # one index serves the groups of another partition of the same graph
    other = partition(g)
    assert other.table is not part.table
    for z, w in zip(part.zigs, other.zigs):
        assert np.array_equal(index.group_indices(w), index.group_indices(z))


def test_index_owns_the_parameters_in_one_buffer():
    g = BUILDERS["demo_net"](seed=0)
    index = ParamIndex(g)
    arrays = [arr for vid in sorted(g.vertices) if g.vertices[vid].params is not None
              for _, arr in g.vertices[vid].params.trainable_items()]
    assert all(np.shares_memory(arr, index.x) for arr in arrays)
    assert sum(arr.size for arr in arrays) == index.size
    # scatter writes the buffer in place: it makes no block the size of
    # even the smallest weight matrix (copying every array makes 1 MiB)
    vec = np.random.default_rng(0).normal(size=index.size)
    smallest = min(arr.nbytes for arr in arrays if arr.ndim > 1)
    tracemalloc.start()
    try:
        index.scatter(g, vec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < smallest
    assert np.array_equal(index.gather(g), vec)
    assert np.array_equal(np.concatenate([arr.ravel() for arr in arrays]), vec)
    # a second index takes the arrays over; the first one then refuses
    second = ParamIndex(g)
    assert np.array_equal(second.x, vec) and not np.shares_memory(second.x, index.x)
    with pytest.raises(ValueError, match="later ParamIndex"):
        index.scatter(g, vec)
    with pytest.raises(ValueError, match="later ParamIndex"):
        index.gather(g)
