"""Graphs and timers the tests share; no ``zigprune`` run calls them.

``conv_chain`` and ``random_small_dag`` build graphs for scaling runs and
property tests, ``graphs_structurally_equal`` compares two graphs,
``randomized`` gives a graph non-default BatchNorm statistics and biases,
``oracle_mask``, ``oracle_channel_maps`` and ``oracle_pruned_doc`` redo
surgery group by group and channel by channel, and ``time_partition`` and
``run_runtime_bench`` time the partition and a training epoch for
acceptance criteria 8 and 9. pytest does not collect this module: its name
does not start with ``test_``.
"""

import dataclasses
import gc
import time

import numpy as np

from zigprune.dhspg import OptimizerConfig
from zigprune.errors import AllGroupsZeroInComponent
from zigprune.graph import ComputationGraph, build_graph, graph_to_doc, init_params
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
    g = build_graph(doc)
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
    g = build_graph(doc)
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
        if va.kind != vb.kind or va.out_shape != vb.out_shape:
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


def oracle_mask(part, zero_group_ids):
    """(flags, survivors) as lists, made group by group: a flag per
    position in part.zigs, and per component its unflagged group indices
    in order. Raises AllGroupsZeroInComponent when a component keeps none."""
    zero_ids = set(zero_group_ids)
    flags = [i in zero_ids for i in range(len(part.zigs))]
    survivors = {}
    for z, flagged in zip(part.zigs, flags):
        if not flagged:
            survivors.setdefault(z.component_id, []).append(z.group_index)
    for ci, width in enumerate(part.widths):
        if width:
            kept = sorted(survivors.get(ci, []))
            if not kept:
                raise AllGroupsZeroInComponent(f"component {ci}: all {width} groups")
            survivors[ci] = kept
    return flags, survivors


def oracle_channel_maps(part, flags):
    """Per vertex, the list of its output channels whose group (from
    part.channel_groups) is unflagged or absent, channel by channel."""
    return {vid: [k for k, gi in enumerate(groups.tolist()) if gi < 0 or not flags[gi]]
            for vid, groups in part.channel_groups.items()}


def oracle_pruned_doc(g, maps):
    """graph_to_doc of g cut to ``maps`` (per vertex, its surviving output
    channels), narrowed in the document channel by channel: a stem keeps its
    rows and the weight columns of its input's surviving channels (k*k per
    channel for a convolution), a BatchNorm its input's channels."""
    doc = graph_to_doc(g)
    for vdoc in doc["vertices"]:
        vid, params = vdoc["id"], vdoc.get("params")
        ins = maps[g.preds[vid][0]] if g.preds[vid] else None
        if vdoc["op"] in ("conv2d", "linear"):
            n_in, n_out = (("in_channels", "out_channels") if vdoc["op"] == "conv2d"
                           else ("in_features", "out_features"))
            ins = list(range(vdoc[n_in])) if ins is None else ins
            kk = vdoc.get("kernel", 1) ** 2
            cols = [c * kk + j for c in ins for j in range(kk)]
            rows = maps[vid]
            params["weight"] = [[params["weight"][r][c] for c in cols] for r in rows]
            if "bias" in params:
                params["bias"] = [params["bias"][r] for r in rows]
            vdoc[n_in], vdoc[n_out] = len(ins), len(rows)
        elif vdoc["op"] == "batch_norm" and ins is not None:
            for role in ("gamma", "beta", "running_mean", "running_var"):
                params[role] = [params[role][c] for c in ins]
            vdoc["channels"] = len(ins)
    return doc


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
