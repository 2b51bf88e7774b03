"""Correctness checks that do not trust the program's own bookkeeping.

Each check compares an output of zigprune with something computed here from
graph documents and the README's conventions, or with a property the method
must have. A check returns a list of failure messages; empty means it passed.
"""

from __future__ import annotations

import math

import numpy as np


def _topo_order(doc: dict) -> tuple[list[int], dict[int, list[int]]]:
    preds = {int(v["id"]): [] for v in doc["vertices"]}
    for src, dst in doc["edges"]:
        preds[int(dst)].append(int(src))  # edge-list order is joint input order
    done: list[int] = []
    seen: set[int] = set()
    pending = sorted(preds)
    while pending:
        ready = [v for v in pending if all(p in seen for p in preds[v])]
        if not ready:
            raise ValueError("graph document has a cycle")
        done.extend(ready)
        seen.update(ready)
        pending = [v for v in pending if v not in seen]
    return done, preds


def doc_flops(doc: dict) -> int:
    """Per-sample FLOPs of a graph document, with shapes inferred here.

    Conventions (README): multiply-add = 2; Conv 2*k^2*Cin*Cout*Hout*Wout,
    Linear 2*Fin*Fout, plus one per output element for a bias; BatchNorm 2 and
    ReLU 1 per element; pooling k^2 per output element; Add/Mul one per
    element per extra input; Concat, Flatten and the output marker are free.
    """
    verts = {int(v["id"]): v for v in doc["vertices"]}
    order, preds = _topo_order(doc)
    shapes: dict[int, tuple[int, ...]] = {}
    flops = 0
    for vid in order:
        v = verts[vid]
        op = v["op"]
        if preds[vid]:
            ins = [shapes[p] for p in preds[vid]]
        else:
            ins = [tuple(doc["input_shapes"][v.get("input", 0)][1:])]
        x = ins[0]
        bias = v.get("has_bias", True)
        if op == "conv2d":
            k, s, p = v["kernel"], v["stride"], v["padding"]
            _, h, w = x
            out = (v["out_channels"], (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1)
            flops += 2 * k * k * v["in_channels"] * math.prod(out)
            flops += math.prod(out) if bias else 0
        elif op == "linear":
            out = (v["out_features"],)
            flops += 2 * v["in_features"] * v["out_features"]
            flops += v["out_features"] if bias else 0
        elif op == "batch_norm":
            out = x
            flops += 2 * math.prod(out)
        elif op == "relu":
            out = x
            flops += math.prod(out)
        elif op in ("max_pool", "avg_pool"):
            k, s = v["kernel"], v["stride"]
            c, h, w = x
            out = (c, (h - k) // s + 1, (w - k) // s + 1)
            flops += k * k * math.prod(out)
        elif op == "flatten":
            out = (math.prod(x),)
        elif op in ("add", "mul"):
            out = x
            flops += (len(ins) - 1) * math.prod(out)
        elif op == "concat":
            out = (sum(i[0] for i in ins), *x[1:])
        else:  # unknown (shape-preserving) and output: free
            out = x
        shapes[vid] = out
    return flops


def stem_width(vdoc: dict) -> int:
    return vdoc["out_channels"] if vdoc["op"] == "conv2d" else vdoc["out_features"]


def doc_zero_groups(graph_doc: dict, partition_doc: dict) -> list[int]:
    """Indices of partition groups whose every slice is exactly zero in the
    graph document's parameters."""
    params = {int(v["id"]): v.get("params", {}) for v in graph_doc["vertices"]}
    zero = []
    for gi, group in enumerate(partition_doc["groups"]):
        all_zero = True
        for s in group["slices"]:
            role = "weight" if s["role"] == "weight_row" else s["role"]
            arr = np.asarray(params[s["vertex"]][role], dtype=float)
            if arr[s["start"]:s["stop"]].any():
                all_zero = False
                break
        if all_zero:
            zero.append(gi)
    return zero


def check_train_run(full_doc: dict, small_doc: dict, partition_doc: dict,
                    compression_doc: dict, target: int) -> list[str]:
    """A finished train-once run directory: zero groups, FLOPs, widths."""
    errors = []
    zero = doc_zero_groups(full_doc, partition_doc)
    if len(zero) != target:
        errors.append(f"{len(zero)} groups are exactly zero in graph_full.json, target {target}")
    flops = doc_flops(small_doc)
    if flops != compression_doc["flops_compressed"]:
        errors.append(f"own FLOPs count {flops} != flops_compressed "
                      f"{compression_doc['flops_compressed']}")
    small_verts = {int(v["id"]): v for v in small_doc["vertices"]}
    removed = compression_doc["removed_groups_per_component"]
    for comp in partition_doc["components"]:
        if not comp["groups"]:
            continue
        want = comp["groups"] - removed[str(comp["id"])]
        for stem in comp["stems"]:
            got = stem_width(small_verts[stem])
            if got != want:
                errors.append(f"component {comp['id']} stem {stem}: width {got}, "
                              f"expected {comp['groups']} - {removed[str(comp['id'])]}")
    zero_per_comp: dict[int, int] = {}
    for gi in zero:
        ci = partition_doc["groups"][gi]["component"]
        zero_per_comp[ci] = zero_per_comp.get(ci, 0) + 1
    for ci, n in removed.items():
        if n != zero_per_comp.get(int(ci), 0):
            errors.append(f"component {ci}: removed {n} groups, "
                          f"{zero_per_comp.get(int(ci), 0)} are zero")
    return errors


def check_same_predictions(full_out: np.ndarray, small_out: np.ndarray) -> list[str]:
    diff = int((full_out.argmax(axis=1) != small_out.argmax(axis=1)).sum())
    return [f"compressed model changes {diff} of {len(full_out)} predictions"] if diff else []


def check_outputs_agree(full_out: np.ndarray, small_out: np.ndarray, tol: float) -> list[str]:
    if full_out.shape != small_out.shape:
        return [f"output shapes differ: {full_out.shape} vs {small_out.shape}"]
    worst = float(np.abs(full_out - small_out).max())
    return [f"outputs differ by {worst:.3g} > {tol:g}"] if not worst <= tol else []


def check_planted_solution(x: np.ndarray, x_star: np.ndarray, groups: list[np.ndarray],
                           planted: set[int], rel_tol: float) -> list[str]:
    """Exactly the planted groups are bit-zero; every other group is within
    rel_tol of the planted optimum, relative to its norm."""
    errors = []
    zero = {i for i, ix in enumerate(groups) if not x[ix].any()}
    if zero != planted:
        errors.append(f"{len(zero)} groups are zero, {len(planted)} planted; "
                      f"{len(zero - planted)} unplanted zero, "
                      f"{len(planted - zero)} planted nonzero")
    worst = 0.0
    for i, ix in enumerate(groups):
        if i not in planted:
            gap = np.linalg.norm(x[ix] - x_star[ix]) / np.linalg.norm(x_star[ix])
            worst = max(worst, float(gap))
    if not worst <= rel_tol:
        errors.append(f"a kept group is {worst:.3g} (relative) from the planted optimum, "
                      f"tolerance {rel_tol:g}")
    return errors
