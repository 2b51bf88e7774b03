"""The benchmark's own checks: the FLOPs counter agrees with the program, and
each check rejects a deliberately corrupted output.

    python3 -m pytest perfbench/test_checks.py
"""

import copy
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import workloads  # noqa: E402
from zigprune import (  # noqa: E402
    build_graph, compress, count_flops_params, demo_net, forward, graph_to_doc, infer_shapes,
    make_mask, residual_block_net, stacked_unets_mini,
)
from zigprune.partition import partition, zero_group  # noqa: E402


def _resnet(n_blocks=6, width=4, inner=None, seed=0):
    inner = inner or [3] * n_blocks
    doc = workloads.resnet_doc(n_blocks, width, inner, rng=np.random.default_rng(seed))
    return doc, infer_shapes(build_graph(doc))


def _half_of_each_component(part):
    ids, seen = [], {}
    for i, z in enumerate(part.zigs):
        seen[z.component_id] = seen.get(z.component_id, 0) + 1
        if seen[z.component_id] <= part.widths[z.component_id] // 2:
            ids.append(i)
    return ids


@pytest.mark.parametrize("build", [demo_net, residual_block_net, stacked_unets_mini,
                                   lambda: _resnet()[1],
                                   lambda: _resnet(5, 6, [1, 2, 3, 4, 5])[1]])
def test_doc_flops_matches_program(build):
    g = build()
    assert checks.doc_flops(graph_to_doc(g, include_params=False)) == count_flops_params(g)[0]


def test_generator_counts_and_order_one_outputs():
    doc, g = _resnet(n_blocks=100, width=4, inner=[4] * 100)
    part = partition(g)
    assert len(part.zigs) == 4 + 100 * 4
    assert sum(1 for w in part.widths if w) == 1 + 100
    out, _ = forward(g, np.random.default_rng(1).normal(size=(8, 3, 4, 4)), mode="eval")
    assert 1e-3 < np.abs(out).max() < 1e3


def _train_run_docs():
    """A run directory's documents, made by zeroing groups by hand."""
    g = demo_net(seed=0)
    part = partition(g)
    zero_ids = _half_of_each_component(part)
    for i in zero_ids:
        zero_group(g, part.zigs[i])
    small, mask = compress(g, part)
    removed = {str(ci): part.widths[ci] - len(mask.survivors.get(ci, []))
               for ci in range(len(part.widths)) if part.widths[ci]}
    return {"full": graph_to_doc(g), "small": graph_to_doc(small), "partition": part.to_doc(),
            "compression": {"removed_groups_per_component": removed,
                            "flops_compressed": count_flops_params(small)[0]},
            "target": len(zero_ids), "zero_ids": zero_ids}


def test_train_run_check_accepts_a_clean_run():
    d = _train_run_docs()
    assert checks.check_train_run(d["full"], d["small"], d["partition"], d["compression"],
                                  d["target"]) == []


def test_train_run_check_rejects_a_zero_group_made_nonzero():
    d = _train_run_docs()
    full = copy.deepcopy(d["full"])
    s = d["partition"]["groups"][d["zero_ids"][0]]["slices"][0]
    vdoc = next(v for v in full["vertices"] if v["id"] == s["vertex"])
    role = "weight" if s["role"] == "weight_row" else s["role"]
    arr = np.asarray(vdoc["params"][role])
    arr[s["start"]] = 0.5
    vdoc["params"][role] = arr.tolist()
    errors = checks.check_train_run(full, d["small"], d["partition"], d["compression"],
                                    d["target"])
    assert any("exactly zero" in e for e in errors)


def test_outputs_check_rejects_a_perturbed_compressed_weight():
    _, g = _resnet(seed=2)
    part = partition(g)
    for i in _half_of_each_component(part):
        zero_group(g, part.zigs[i])
    small, _ = compress(g, part)
    x = np.random.default_rng(3).normal(size=(4, 3, 4, 4))
    full_out = forward(g, x, mode="eval")[0]
    assert checks.check_outputs_agree(full_out, forward(small, x, mode="eval")[0], 1e-9) == []
    conv = next(v for v in small.vertices.values() if v.params is not None
                and v.params.weight is not None and v.params.weight.ndim == 2
                and v.id != 0)
    conv.params.weight[0, 0] += 1e-6
    assert checks.check_outputs_agree(full_out, forward(small, x, mode="eval")[0], 1e-9)


def test_planted_check_rejects_a_planted_group_left_nonzero():
    rng = np.random.default_rng(4)
    groups = [np.arange(8 * i, 8 * i + 8) for i in range(10)]
    planted = {1, 4, 7}
    x_star = rng.normal(size=80)
    for i in planted:
        x_star[groups[i]] = 0.0
    assert checks.check_planted_solution(x_star.copy(), x_star, groups, planted, 1e-9) == []
    x = x_star.copy()
    x[groups[4][0]] = 1e-12
    assert checks.check_planted_solution(x, x_star, groups, planted, 1e-9)


def test_zero_mask_flops_match_generator():
    doc, g = _resnet(n_blocks=4, width=4, inner=[4] * 4)
    part = partition(g)
    small, mask = compress(g, part, make_mask(part, _half_of_each_component(part)))
    want = checks.doc_flops(workloads.resnet_doc(4, 2, [2] * 4))
    assert count_flops_params(small)[0] == want
