"""Graphs and timers the tests share; no ``zigprune`` run calls them.

``conv_chain`` and ``random_small_dag`` build graphs for scaling runs and
property tests, ``graphs_structurally_equal`` compares two graphs,
``randomized`` gives a graph non-default BatchNorm statistics and biases,
and ``time_partition`` and ``run_runtime_bench`` time the partition and a
training epoch for acceptance criteria 8 and 9. pytest does not collect
this module: its name does not start with ``test_``.
"""

import dataclasses
import gc
import time

import numpy as np

from zigprune.dhspg import OptimizerConfig
from zigprune.graph import ComputationGraph, build_graph, infer_shapes, init_params
from zigprune.harness import (ExperimentConfig, build_dataset, build_experiment_graph,
                              rng_streams, train_graph)
from zigprune.partition import partition


def conv_chain(n_vertices: int, seed: int = 0, channels: int = 4) -> ComputationGraph:
    """Conv/BN/ReLU chain of roughly n_vertices vertices, for scaling runs."""
    blocks = max(1, (n_vertices - 1) // 3)
    vertices = []
    edges = []
    vid = 0
    prev = None
    for b in range(blocks):
        cin = 3 if b == 0 else channels
        vertices.append({"id": vid, "op": "conv2d", "kernel": 1, "stride": 1,
                         "padding": 0, "in_channels": cin, "out_channels": channels})
        vertices.append({"id": vid + 1, "op": "batch_norm", "channels": channels})
        vertices.append({"id": vid + 2, "op": "relu"})
        if prev is not None:
            edges.append([prev, vid])
        edges.extend([[vid, vid + 1], [vid + 1, vid + 2]])
        prev = vid + 2
        vid += 3
    vertices.append({"id": vid, "op": "output"})
    edges.append([prev, vid])
    doc = {"input_shapes": [[1, 3, 2, 2]], "vertices": vertices, "edges": edges}
    g = infer_shapes(build_graph(doc))
    init_params(g, np.random.default_rng(seed))
    return g


def random_small_dag(rng: np.random.Generator) -> ComputationGraph:
    """Random valid small graph (serialization / equivalence property fodder).

    Grows a conv trunk with occasional Add/Mul branch joins and channel
    concats, then closes with pool/flatten/linear/output.
    """
    channels = int(rng.choice([2, 3, 4]))
    size = int(rng.choice([4, 6, 8]))
    vertices = [{"id": 0, "op": "conv2d", "kernel": 3, "stride": 1, "padding": 1,
                 "in_channels": channels, "out_channels": 4}]
    edges = []
    vid = 1
    # open tensors: (vertex id, channels)
    opens = [(0, 4)]
    for _ in range(int(rng.integers(2, 7))):
        roll = rng.random()
        src, c = opens[int(rng.integers(len(opens)))]
        if roll < 0.35:
            cout = int(rng.choice([2, 4, 6]))
            vertices.append({"id": vid, "op": "conv2d", "kernel": 3, "stride": 1,
                             "padding": 1, "in_channels": c, "out_channels": cout})
            edges.append([src, vid])
            opens.append((vid, cout))
            vid += 1
        elif roll < 0.6:
            vertices.append({"id": vid, "op": "batch_norm", "channels": c})
            edges.append([src, vid])
            vertices.append({"id": vid + 1, "op": "relu"})
            edges.append([vid, vid + 1])
            opens.append((vid + 1, c))
            vid += 2
        elif roll < 0.8:
            # split into two convs of equal width, rejoin with add or mul
            cout = int(rng.choice([2, 4]))
            for k in range(2):
                vertices.append({"id": vid + k, "op": "conv2d", "kernel": 1, "stride": 1,
                                 "padding": 0, "in_channels": c, "out_channels": cout})
                edges.append([src, vid + k])
            joint = "add" if rng.random() < 0.5 else "mul"
            vertices.append({"id": vid + 2, "op": joint})
            edges.extend([[vid, vid + 2], [vid + 1, vid + 2]])
            opens.append((vid + 2, cout))
            vid += 3
        else:
            other, c2 = opens[int(rng.integers(len(opens)))]
            if other == src:
                continue
            vertices.append({"id": vid, "op": "concat"})
            edges.extend([[src, vid], [other, vid]])
            opens.append((vid, c + c2))
            vid += 1
    tail, c = opens[int(rng.integers(len(opens)))]
    vertices.append({"id": vid, "op": "avg_pool", "kernel": 2, "stride": 2})
    edges.append([tail, vid])
    vertices.append({"id": vid + 1, "op": "flatten"})
    edges.append([vid, vid + 1])
    feat = c * (size // 2) ** 2
    vertices.append({"id": vid + 2, "op": "linear", "in_features": feat, "out_features": 3})
    edges.append([vid + 1, vid + 2])
    vertices.append({"id": vid + 3, "op": "output"})
    edges.append([vid + 2, vid + 3])
    doc = {"input_shapes": [[1, channels, size, size]], "vertices": vertices, "edges": edges}
    g = infer_shapes(build_graph(doc))
    init_params(g, rng)
    return g


def graphs_structurally_equal(a: ComputationGraph, b: ComputationGraph,
                              check_params: bool = True) -> bool:
    if sorted(a.vertices) != sorted(b.vertices):
        return False
    if a.edges != b.edges or a.input_shapes != b.input_shapes:
        return False
    if a.input_binding != b.input_binding:
        return False
    for vid, va in a.vertices.items():
        vb = b.vertices[vid]
        if va.kind != vb.kind:
            return False
        if check_params:
            pa, pb = va.params, vb.params
            if (pa is None) != (pb is None):
                return False
            if pa is not None:
                for f in dataclasses.fields(pa):
                    xa, xb = getattr(pa, f.name), getattr(pb, f.name)
                    if (xa is None) != (xb is None):
                        return False
                    if xa is not None and not np.array_equal(xa, xb):
                        return False
    return True


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


def time_partition(n_vertices: int, repeats: int = 3) -> float:
    """Best-of-k partition wall time on a stem chain; the collector is paused
    during the timed region so allocation sweeps do not pollute scaling."""
    g = conv_chain(n_vertices)
    best = float("inf")
    for _ in range(repeats):
        gc.disable()
        try:
            t0 = time.perf_counter()
            partition(g)
            best = min(best, time.perf_counter() - t0)
        finally:
            gc.enable()
    return best


def run_runtime_bench(builder: str = "demo_net", epochs: int = 4,
                      n_train: int = 2048, batch_size: int = 128,
                      seed: int = 0, target_fraction: float = 0.5) -> dict:
    """Per-epoch wall time, sparsity-inducing optimizer vs momentum SGD.

    Identical data, batches, and epoch count; the sparsity run uses a short
    period so its selection/projection machinery is active from epoch 1.
    The first epoch is dropped from the means (cache warm-up).
    """
    results = {}
    for mode in ("sgd", "dhspg"):
        streams = rng_streams(seed)
        cfg = ExperimentConfig(
            graph={"builder": builder},
            dataset={"kind": "synthetic-classification",
                     "n_train": n_train, "n_test": 256},
            optimizer=OptimizerConfig(mode=mode, lr_period_epochs=2,
                                      default_penalty=0.05),
            epochs=epochs, batch_size=batch_size, seed=seed,
            target_zero_fraction=target_fraction if mode == "dhspg" else None,
        )
        g = build_experiment_graph(cfg, streams["params"])
        part = partition(g)
        data = build_dataset(cfg, streams["data"])
        _, rows = train_graph(g, part, data, cfg, streams["batches"])
        results[mode] = [r["epoch_seconds"] for r in rows]
    sgd = float(np.mean(results["sgd"][1:]))
    dhspg = float(np.mean(results["dhspg"][1:]))
    return {"sgd_epoch_seconds": results["sgd"],
            "dhspg_epoch_seconds": results["dhspg"],
            "ratio": dhspg / sgd}
