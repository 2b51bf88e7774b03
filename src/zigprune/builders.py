"""Ready-made test architectures.

All builders return validated, shape-inferred graphs with seeded parameter
initialization.
"""

from __future__ import annotations

import numpy as np

from .graph import ComputationGraph, build_graph, infer_shapes, init_params


def _finish(doc: dict, seed: int) -> ComputationGraph:
    g = infer_shapes(build_graph(doc))
    init_params(g, np.random.default_rng(seed))
    return g


def demo_net(seed: int = 0) -> ComputationGraph:
    """Two-branch convnet with an additive branch and a channel concat.

    Branch A: Conv1 -> BN1 -> ReLU. Branch B: y = Conv2(x) + Conv3(x),
    w = BN2(y) + BN3(y). Trunk: Concat(A, w) -> BN4 -> AvgPool -> Flatten ->
    Linear1 -> ReLU -> Linear2 -> output, on (N, 3, 16, 16) input.
    """
    conv = {"op": "conv2d", "kernel": 3, "stride": 1, "padding": 1,
            "in_channels": 3, "out_channels": 16}
    doc = {
        "input_shapes": [[1, 3, 16, 16]],
        "vertices": [
            {"id": 0, "name": "conv1", **conv},
            {"id": 1, "name": "bn1", "op": "batch_norm", "channels": 16},
            {"id": 2, "name": "relu1", "op": "relu"},
            {"id": 3, "name": "conv2", **conv},
            {"id": 4, "name": "conv3", **conv},
            {"id": 5, "name": "add1", "op": "add"},
            {"id": 6, "name": "bn2", "op": "batch_norm", "channels": 16},
            {"id": 7, "name": "bn3", "op": "batch_norm", "channels": 16},
            {"id": 8, "name": "add2", "op": "add"},
            {"id": 9, "name": "concat", "op": "concat"},
            {"id": 10, "name": "bn4", "op": "batch_norm", "channels": 32},
            {"id": 11, "name": "avgpool", "op": "avg_pool", "kernel": 2, "stride": 2},
            {"id": 12, "name": "flatten", "op": "flatten"},
            {"id": 13, "name": "linear1", "op": "linear",
             "in_features": 32 * 8 * 8, "out_features": 32},
            {"id": 14, "name": "relu2", "op": "relu"},
            {"id": 15, "name": "linear2", "op": "linear",
             "in_features": 32, "out_features": 10},
            {"id": 16, "name": "out", "op": "output"},
        ],
        "edges": [
            [0, 1], [1, 2],
            [3, 5], [4, 5], [5, 6], [5, 7], [6, 8], [7, 8],
            [2, 9], [8, 9],
            [9, 10], [10, 11], [11, 12], [12, 13], [13, 14], [14, 15], [15, 16],
        ],
    }
    return _finish(doc, seed)


def residual_block_net(seed: int = 0) -> ComputationGraph:
    """Single residual block with a projection shortcut (one Add joint)."""
    doc = {
        "input_shapes": [[1, 3, 8, 8]],
        "vertices": [
            {"id": 0, "name": "conv1", "op": "conv2d", "kernel": 3, "stride": 1,
             "padding": 1, "in_channels": 3, "out_channels": 8},
            {"id": 1, "name": "bn1", "op": "batch_norm", "channels": 8},
            {"id": 2, "name": "relu1", "op": "relu"},
            {"id": 3, "name": "conv2", "op": "conv2d", "kernel": 3, "stride": 1,
             "padding": 1, "in_channels": 8, "out_channels": 8},
            {"id": 4, "name": "shortcut", "op": "conv2d", "kernel": 1, "stride": 1,
             "padding": 0, "in_channels": 3, "out_channels": 8},
            {"id": 5, "name": "add", "op": "add"},
            {"id": 6, "name": "bn2", "op": "batch_norm", "channels": 8},
            {"id": 7, "name": "relu2", "op": "relu"},
            {"id": 8, "name": "avgpool", "op": "avg_pool", "kernel": 2, "stride": 2},
            {"id": 9, "name": "flatten", "op": "flatten"},
            {"id": 10, "name": "linear", "op": "linear",
             "in_features": 8 * 4 * 4, "out_features": 4},
            {"id": 11, "name": "out", "op": "output"},
        ],
        "edges": [
            [0, 1], [1, 2], [2, 3],
            [3, 5], [4, 5],
            [5, 6], [6, 7], [7, 8], [8, 9], [9, 10], [10, 11],
        ],
    }
    return _finish(doc, seed)


def _unet_arm(base_id: int, prefix: str, pool_op: str,
              input_index: int) -> tuple[list[dict], list[list[int]], int]:
    """One encoder arm: conv block, downsample, deeper block, pooled skip concat."""
    i = base_id
    vertices = [
        {"id": i + 0, "name": f"{prefix}_conv_in", "op": "conv2d", "kernel": 3,
         "stride": 1, "padding": 1, "in_channels": 3, "out_channels": 8,
         "input": input_index},
        {"id": i + 1, "name": f"{prefix}_bn_in", "op": "batch_norm", "channels": 8},
        {"id": i + 2, "name": f"{prefix}_relu_in", "op": "relu"},
        {"id": i + 3, "name": f"{prefix}_down", "op": pool_op, "kernel": 2, "stride": 2},
        {"id": i + 4, "name": f"{prefix}_conv_mid", "op": "conv2d", "kernel": 3,
         "stride": 1, "padding": 1, "in_channels": 8, "out_channels": 16},
        {"id": i + 5, "name": f"{prefix}_bn_mid", "op": "batch_norm", "channels": 16},
        {"id": i + 6, "name": f"{prefix}_relu_mid", "op": "relu"},
        {"id": i + 7, "name": f"{prefix}_skip_down", "op": pool_op, "kernel": 2, "stride": 2},
        {"id": i + 8, "name": f"{prefix}_concat", "op": "concat"},
        {"id": i + 9, "name": f"{prefix}_bn_cat", "op": "batch_norm", "channels": 24},
        {"id": i + 10, "name": f"{prefix}_conv_out", "op": "conv2d", "kernel": 3,
         "stride": 1, "padding": 1, "in_channels": 24, "out_channels": 8},
        {"id": i + 11, "name": f"{prefix}_bn_out", "op": "batch_norm", "channels": 8},
        {"id": i + 12, "name": f"{prefix}_relu_out", "op": "relu"},
    ]
    edges = [
        [i + 0, i + 1], [i + 1, i + 2], [i + 2, i + 3], [i + 3, i + 4],
        [i + 4, i + 5], [i + 5, i + 6],
        [i + 2, i + 7],
        [i + 6, i + 8], [i + 7, i + 8],
        [i + 8, i + 9], [i + 9, i + 10], [i + 10, i + 11], [i + 11, i + 12],
    ]
    return vertices, edges, i + 12


def stacked_unets_mini(seed: int = 0) -> ComputationGraph:
    """Two miniature U-shaped arms with distinct downsamplers, added together.

    Two graph inputs, one skip concat per arm, and an Add that couples the
    arms' final convolutions.
    """
    va, ea, last_a = _unet_arm(0, "a", "max_pool", 0)
    vb, eb, last_b = _unet_arm(13, "b", "avg_pool", 1)
    head = [
        {"id": 26, "name": "merge", "op": "add"},
        {"id": 27, "name": "bn_head", "op": "batch_norm", "channels": 8},
        {"id": 28, "name": "pool_head", "op": "avg_pool", "kernel": 2, "stride": 2},
        {"id": 29, "name": "flatten", "op": "flatten"},
        {"id": 30, "name": "linear", "op": "linear",
         "in_features": 8 * 2 * 2, "out_features": 6},
        {"id": 31, "name": "out", "op": "output"},
    ]
    doc = {
        "input_shapes": [[1, 3, 8, 8], [1, 3, 8, 8]],
        "vertices": va + vb + head,
        "edges": ea + eb + [
            [last_a, 26], [last_b, 26],
            [26, 27], [27, 28], [28, 29], [29, 30], [30, 31],
        ],
    }
    return _finish(doc, seed)


BUILDERS = {
    "demo_net": demo_net,
    "residual_block_net": residual_block_net,
    "stacked_unets_mini": stacked_unets_mini,
}
