"""The benchmark's workloads: the two that BENCHMARK.json lists, and
deep_resnet_surgery, which runs by hand (see README.md).

Every workload has the same shape: ``setup()`` builds what the rounds need,
and ``run_round(state, j)`` performs one operation of the workload: train,
cut the zero groups, check the result, and evaluate the compressed model.
A round returns its timings, counts and check failures. The inputs of
set-up and of round ``j`` depend only on the seed and ``j``.

zigprune is always reached through its modules (``compression.compress``,
not a name imported from it), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from zigprune import compression, dhspg, engine, graph, harness, paramvec

import checks
import refclock

# the package re-exports the function partition() under the module's name
partitioning = importlib.import_module("zigprune.partition")


@dataclass
class Round:
    errors: list[str] = field(default_factory=list)  # failed checks
    # figures that do not depend on speed; a run reports their median
    values: dict[str, float] = field(default_factory=dict)
    # timings, one figure per timed repeat (a rate, or seconds per
    # operation); a run reports the median of all its rounds' repeats
    timings: dict[str, list[float]] = field(default_factory=dict)


def _surgery(full, part, trials: int, seed_key: list[int]):
    """What surgery_s times: compress (detect + maps + prune) and
    verify_equivalence. Returns the compressed graph and the check's
    failures."""
    small, _ = compression.compress(full, part)
    equiv = compression.verify_equivalence(full, small, n_trials=trials,
                                           rng=np.random.default_rng(seed_key))
    errors = [] if equiv["passed"] else [
        f"verify_equivalence failed: max |diff| {equiv['max_abs_diff']:.3g}"]
    return small, errors


# ---------------------------------------------------------------------------
# train_once_demo_net
# ---------------------------------------------------------------------------

class TrainOnceDemoNet:
    """run_pipeline with DHSPG on demo_net, then the benchmark's own surgery
    timing and an eval pass of the compressed graph over the test set.

    The schedule (2048 samples x 16 epochs at batch 128, warm-up and
    projection from step 16, no learning-rate decay, magnitude-only salience)
    reaches the 25% target (16 of 64 groups) by epoch 12 on every seed tried;
    see README.md.
    """

    name = "train_once_demo_net"
    N_TRAIN = 2048
    N_TEST = 512
    EPOCHS = 16
    BATCH = 128
    WARMUP_STEPS = 16
    TARGET_FRACTION = 0.25
    REPEATS = 20  # one round per run: time surgery and eval 20 times each, alternating
    SETUP_REPEATS = 25  # set-up takes tens of ms

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def config(self, output_dir: str) -> harness.ExperimentConfig:
        return harness.ExperimentConfig(
            graph={"builder": "demo_net"},
            dataset={"kind": "synthetic-classification",
                     "n_train": self.N_TRAIN, "n_test": self.N_TEST},
            optimizer=dhspg.OptimizerConfig(
                learning_rate=0.1, lr_period_epochs=100, default_penalty=1.0,
                penalty_amplify=16.0, warmup_steps=self.WARMUP_STEPS,
                project_start_step=self.WARMUP_STEPS,
                salience_cos_weight=0.0, salience_mag_weight=1.0),
            epochs=self.EPOCHS, batch_size=self.BATCH, seed=self.seed,
            target_zero_fraction=self.TARGET_FRACTION, output_dir=output_dir)

    def setup(self):
        """What run_pipeline does before its first training step."""
        cfg = self.config(self.workdir)
        streams = harness.rng_streams(cfg.seed)
        g = harness.build_experiment_graph(cfg, streams["params"])
        part = partitioning.partition(g)
        data = harness.build_dataset(cfg, streams["data"])
        compression.group_flops_savings(g, part)
        return {"data": data, "n_groups": len(part.zigs)}

    def run_round(self, state, j: int) -> Round:
        r = Round()
        out_dir = os.path.join(self.workdir, f"round{j}")
        cfg = self.config(out_dir)
        # The kernel cannot run inside run_pipeline, but train_graph calls
        # harness.evaluate_graph right after it times each epoch and before
        # it starts the next. Wrapped here, that call ticks the kernel at both
        # ends, so epoch i lies between ticks 2i and 2i + 1. The ticks add
        # about 0.4 s to the pipeline's minute.
        ticks = [refclock.tick("array")]
        evaluate = harness.evaluate_graph

        def evaluate_between_ticks(*args, **kwargs):
            ticks.append(refclock.tick("array"))
            out = evaluate(*args, **kwargs)
            ticks.append(refclock.tick("array"))
            return out

        harness.evaluate_graph = evaluate_between_ticks
        try:
            t0 = time.perf_counter()
            result = harness.run_pipeline(cfg)
            wall_s = time.perf_counter() - t0
        finally:
            harness.evaluate_graph = evaluate
        ticks.append(refclock.tick("array"))
        m = result.metrics
        epoch_s = [row["epoch_seconds"] for row in m["epochs"]]
        if len(ticks) < 2 * len(epoch_s) + 1:
            raise RuntimeError(f"{len(ticks)} kernel ticks for {len(epoch_s)} epochs: "
                               "run_pipeline no longer evaluates after every epoch")
        reference_s = refclock.KERNELS["array"][1]
        r.timings["pipeline_s"] = [wall_s * reference_s / statistics.mean(ticks)]
        # every epoch trains on all samples, so each epoch is one repeat
        epoch_s = [t * 2.0 * reference_s / (ticks[2 * i] + ticks[2 * i + 1])
                   for i, t in enumerate(epoch_s)]
        steps = math.ceil(self.N_TRAIN / cfg.batch_size)
        r.timings["train_samples_per_s"] = [self.N_TRAIN / t for t in epoch_s]
        r.timings["opt_steps_per_s"] = [steps / t for t in epoch_s]
        r.values["compressed_flops"] = m["flops_compressed"]

        docs = {}
        for name in ("graph_full", "graph_compressed", "partition", "compression"):
            with open(os.path.join(out_dir, f"{name}.json"), encoding="utf-8") as fh:
                docs[name] = json.load(fh)
        target = int(round(self.TARGET_FRACTION * state["n_groups"]))
        r.errors.extend(checks.check_train_run(docs["graph_full"], docs["graph_compressed"],
                                               docs["partition"], docs["compression"], target))
        if not result.ok:
            r.errors.append("run_pipeline reported a failed equivalence check")

        # surgery on the trained graph, timed here: detect + maps + prune + verify
        full = graph.infer_shapes(graph.build_graph(docs["graph_full"]))
        part = partitioning.partition(full)
        data = state["data"]
        surgery_s, eval_rates = [], []
        for _ in range(self.REPEATS):
            (small, errors), t = refclock.timed("array", _surgery, full, part,
                                                cfg.equivalence_trials, [self.seed, j])
            surgery_s.append(t)
            (_, acc), t = refclock.timed("array", harness.evaluate_graph, small,
                                         data.x_test, data.y_test, cfg.loss)
            eval_rates.append(len(data.x_test) / t)
        r.timings["surgery_s"] = surgery_s
        r.timings["compressed_eval_samples_per_s"] = eval_rates
        r.errors.extend(errors)
        r.values["compressed_test_accuracy"] = acc
        small_out, _ = engine.forward(small, data.x_test, mode="eval")
        full_out, _ = engine.forward(full, data.x_test, mode="eval")
        r.errors.extend(checks.check_same_predictions(full_out, small_out))
        own_acc = float((small_out.argmax(axis=1) == data.y_test).mean())
        if abs(own_acc - m["compressed_test_accuracy"]) > 1e-12 or not own_acc > 0.25:
            r.errors.append(f"compressed accuracy {own_acc} (reported "
                            f"{m['compressed_test_accuracy']}) must match and beat chance 0.25")
        shutil.rmtree(out_dir, ignore_errors=True)
        return r


# ---------------------------------------------------------------------------
# dhspg_many_groups
# ---------------------------------------------------------------------------

def wide_doc(n_hidden: int, n_in: int, n_out: int) -> dict:
    """input (n_in) -> linear (no bias) -> relu -> linear (no bias) -> output.

    The first linear's rows are the zero-invariant groups: n_hidden groups of
    n_in variables, all in one component. The second linear feeds the output
    and is excluded from grouping.
    """
    return {
        "input_shapes": [[1, n_in]],
        "vertices": [
            {"id": 0, "op": "linear", "in_features": n_in, "out_features": n_hidden,
             "has_bias": False},
            {"id": 1, "op": "relu"},
            {"id": 2, "op": "linear", "in_features": n_hidden, "out_features": n_out,
             "has_bias": False},
            {"id": 3, "op": "output"},
        ],
        "edges": [[0, 1], [1, 2], [2, 3]],
    }


class DhspgManyGroups:
    """DHSPG on a planted group-sparse quadratic over thousands of groups.

    The quadratic f(x) = 1/2 sum_i d_i (x_i - x*_i)^2 lives on the first
    layer of a wide two-layer graph; its gradient is computed here. Half of
    the groups are planted at zero, the others have norms in [0.5, 1.5].
    With learning rate 0.5, no momentum and curvatures d in [0.5, 1.5], a
    warm-up of 50 steps shrinks planted groups by 0.75^50, so magnitude-only
    salience ranks them first and one projection step zeroes all of them.
    """

    name = "dhspg_many_groups"
    GROUPS = 4000
    VARS = 8
    CLASSES = 4
    WARMUP = 50
    STEPS = 200
    CHUNK = 10  # steps timed together, about 0.1 s
    N_EVAL = 2048
    EQUIV_TRIALS = 5
    REPEATS = 5  # surgery and eval take tens of ms: time each five times, alternating
    SETUP_REPEATS = 25  # set-up takes under 0.1 s

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self):
        rng = np.random.default_rng([self.seed, 1])
        g = graph.infer_shapes(graph.build_graph(wide_doc(self.GROUPS, self.VARS, self.CLASSES)))
        graph.init_params(g, rng)
        part = partitioning.partition(g)
        index = paramvec.ParamIndex(g)
        groups = [index.group_indices(z) for z in part.zigs]
        x0 = index.gather(g)
        planted = set(int(i) for i in rng.choice(len(groups), len(groups) // 2, replace=False))
        x_star = x0.copy()
        for i, ix in enumerate(groups):
            if i in planted:
                x_star[ix] = 0.0
            else:
                v = rng.normal(size=len(ix))
                x_star[ix] = v * rng.uniform(0.5, 1.5) / np.linalg.norm(v)
        curvature = np.zeros_like(x0)
        grouped = np.concatenate(groups)
        curvature[grouped] = rng.uniform(0.5, 1.5, size=len(grouped))
        x_eval = rng.normal(size=(self.N_EVAL, self.VARS))
        index.scatter(g, x_star)
        teacher_out, _ = engine.forward(g, x_eval, mode="eval")
        index.scatter(g, x0)
        return {"g": g, "part": part, "index": index, "groups": groups, "x0": x0,
                "x_star": x_star, "planted": planted, "curvature": curvature,
                "x_eval": x_eval, "labels": teacher_out.argmax(axis=1)}

    def run_round(self, s, j: int) -> Round:
        r = Round()
        cfg = dhspg.OptimizerConfig(
            learning_rate=0.5, lr_decay=1.0, momentum=0.0, target_zero_groups=len(s["planted"]),
            warmup_steps=self.WARMUP, project_start_step=self.WARMUP,
            default_penalty=1.0, salience_cos_weight=0.0, salience_mag_weight=1.0)
        opt, train_s = refclock.timed(
            "python", dhspg.DhspgOptimizer, s["x0"], s["groups"], cfg,
            group_components=[z.component_id for z in s["part"].zigs])
        x_star, d = s["x_star"], s["curvature"]

        def steps():
            for _ in range(self.CHUNK):
                opt.step(d * (opt.x - x_star))

        # the machine's speed shifts within a round: time it in chunks
        for _ in range(self.STEPS // self.CHUNK):
            train_s += refclock.timed("python", steps)[1]
        r.timings["opt_steps_per_s"] = [self.STEPS / train_s]
        r.timings["train_samples_per_s"] = [self.STEPS * len(x_star) / train_s]
        r.errors.extend(checks.check_planted_solution(opt.x, x_star, s["groups"],
                                                      s["planted"], 1e-6))

        g = s["g"]
        s["index"].scatter(g, opt.x)
        surgery_s, eval_rates = [], []
        for _ in range(self.REPEATS):
            (small, errors), t = refclock.timed("python", _surgery, g, s["part"],
                                                self.EQUIV_TRIALS, [self.seed, 2, j])
            surgery_s.append(t)
            (_, acc), t = refclock.timed("array", harness.evaluate_graph, small,
                                         s["x_eval"], s["labels"], "cross_entropy")
            eval_rates.append(self.N_EVAL / t)
        r.timings["surgery_s"] = surgery_s
        r.timings["compressed_eval_samples_per_s"] = eval_rates
        r.errors.extend(errors)
        kept = self.GROUPS - len(s["planted"])
        r.errors.extend(_flops_agree(small, wide_doc(kept, self.VARS, self.CLASSES)))
        r.values["compressed_flops"] = graph.count_flops_params(small)[0]
        r.values["compressed_test_accuracy"] = acc
        if not acc >= 0.99:
            r.errors.append(f"compressed model agrees with the planted teacher on {acc:.4f} < 0.99")
        r.timings["pipeline_s"] = [train_s + surgery_s[0] + self.N_EVAL / eval_rates[0]]
        s["index"].scatter(g, s["x0"])
        return r


def _flops_agree(small, reference_doc: dict) -> list[str]:
    """The program's FLOPs of a compressed graph against two counts made
    here: over its own document, and over the generator's document at the
    widths the plant implies."""
    got = graph.count_flops_params(small)[0]
    own = checks.doc_flops(graph.graph_to_doc(small, include_params=False))
    ref = checks.doc_flops(reference_doc)
    if got == own == ref:
        return []
    return [f"compressed FLOPs: program {got}, own count {own}, generator {ref}"]


# ---------------------------------------------------------------------------
# deep_resnet_surgery
# ---------------------------------------------------------------------------

def resnet_doc(n_blocks: int, width: int, inner: list[int], size: int = 4,
               n_classes: int = 4, rng: np.random.Generator | None = None) -> dict:
    """Residual network of n_blocks Add-joined blocks, as a graph document.

    stem conv(3 -> width) - BN - ReLU, then per block b
    conv(width -> inner[b]) - BN - ReLU - conv(inner[b] -> width) - BN,
    added to the block input and passed through ReLU; head avg-pool -
    flatten - linear - output. The trunk (stem conv and every block's second
    conv, joined by the Adds) is one component of ``width`` groups; each
    block's first conv is a component of ``inner[b]`` groups; the head
    linear feeds the output and is excluded.

    With ``rng`` the document carries parameters: He-normal conv weights,
    small biases, running statistics away from (0, 1), and second-BN scales
    of about 1/n_blocks so that outputs stay of order one at any depth.
    """
    conv = {"op": "conv2d", "kernel": 3, "stride": 1, "padding": 1}
    verts: list[dict] = []
    edges: list[list[int]] = []

    def add(vdoc: dict, src: int | None) -> int:
        vid = len(verts)
        verts.append({"id": vid, **vdoc})
        if src is not None:
            edges.append([src, vid])
        return vid

    def bn(c: int, scale: float) -> dict:
        vdoc = {"op": "batch_norm", "channels": c}
        if rng is not None:
            vdoc["params"] = {
                "gamma": (scale * rng.uniform(0.5, 1.5, c)).tolist(),
                "beta": rng.normal(0.0, 0.1, c).tolist(),
                "running_mean": rng.normal(0.0, 0.1, c).tolist(),
                "running_var": rng.uniform(0.5, 1.5, c).tolist()}
        return vdoc

    def cv(cin: int, cout: int) -> dict:
        vdoc = {**conv, "in_channels": cin, "out_channels": cout}
        if rng is not None:
            vdoc["params"] = {
                "weight": rng.normal(0.0, math.sqrt(2.0 / (9 * cin)), (cout, 9 * cin)).tolist(),
                "bias": rng.normal(0.0, 0.1, cout).tolist()}
        return vdoc

    x = add(cv(3, width), None)
    x = add(bn(width, 1.0), x)
    x = add({"op": "relu"}, x)
    for b in range(n_blocks):
        h = add(cv(width, inner[b]), x)
        h = add(bn(inner[b], 1.0), h)
        h = add({"op": "relu"}, h)
        h = add(cv(inner[b], width), h)
        h = add(bn(width, 1.0 / n_blocks), h)
        joint = add({"op": "add"}, x)
        edges.append([h, joint])
        x = add({"op": "relu"}, joint)
    x = add({"op": "avg_pool", "kernel": size, "stride": size}, x)
    x = add({"op": "flatten"}, x)
    head = {"op": "linear", "in_features": width, "out_features": n_classes}
    if rng is not None:
        head["params"] = {"weight": rng.normal(0.0, math.sqrt(1.0 / width),
                                               (n_classes, width)).tolist(),
                          "bias": [0.0] * n_classes}
    x = add(head, x)
    add({"op": "output"}, x)
    return {"input_shapes": [[1, 3, size, size]], "vertices": verts, "edges": edges}


class DeepResnetSurgery:
    """Set-up and surgery on a deep residual graph.

    Set-up: build_graph/infer_shapes, partition and group_flops_savings.
    Round j: a seeded mask zeroes half of every component's groups. DHSPG
    drives exactly those groups to zero on a quadratic whose optimum is the
    current weights with the mask's groups at zero (kept groups have zero
    gradient, so they stay bit-identical); then compress + verify_equivalence,
    and an eval pass of the compressed graph at batch 2.
    """

    name = "deep_resnet_surgery"
    BLOCKS = 100
    WIDTH = 4
    INNER = 4
    WARMUP = 20
    STEPS = 60
    EQUIV_TRIALS = 5
    N_EVAL = 16
    BATCH = 2
    SETUP_REPEATS = 3  # set-up takes seconds

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.doc = resnet_doc(self.BLOCKS, self.WIDTH, [self.INNER] * self.BLOCKS,
                              rng=np.random.default_rng([seed, 4]))

    def setup(self):
        g = graph.infer_shapes(graph.build_graph(self.doc))
        part = partitioning.partition(g)
        savings = compression.group_flops_savings(g, part)
        return {"g": g, "part": part, "savings": savings}

    def check_setup(self, s) -> list[str]:
        part = s["part"]
        errors = []
        n_groups = self.WIDTH + self.BLOCKS * self.INNER
        n_comps = 1 + self.BLOCKS
        got_comps = sum(1 for w in part.widths if w)
        if len(part.zigs) != n_groups or got_comps != n_comps:
            errors.append(f"partition: {len(part.zigs)} groups in {got_comps} components, "
                          f"generator implies {n_groups} in {n_comps}")
        inner = [self.INNER] * self.BLOCKS
        full = checks.doc_flops(self.doc)
        trunk = full - checks.doc_flops(resnet_doc(self.BLOCKS, self.WIDTH - 1, inner))
        block = full - checks.doc_flops(resnet_doc(self.BLOCKS, self.WIDTH,
                                                   [self.INNER - 1] + inner[1:]))
        want = [trunk if 0 in part.components[z.component_id].stem_ids else block
                for z in part.zigs]
        if s["savings"] != want:
            bad = sum(a != b for a, b in zip(s["savings"], want))
            errors.append(f"group_flops_savings differs from the own count on {bad} groups")
        return errors

    def run_round(self, s, j: int) -> Round:
        r = Round()
        g, part = s["g"], s["part"]
        rng = np.random.default_rng([self.seed, 5, j])
        by_comp: dict[int, list[int]] = {}
        for i, z in enumerate(part.zigs):
            by_comp.setdefault(z.component_id, []).append(i)
        planted = set()
        for members in by_comp.values():
            planted.update(int(i) for i in rng.choice(members, len(members) // 2, replace=False))

        def optimize():
            index = paramvec.ParamIndex(g)
            groups = [index.group_indices(z) for z in part.zigs]
            x0 = index.gather(g)
            x_star = x0.copy()
            for i in planted:
                x_star[groups[i]] = 0.0
            opt = dhspg.DhspgOptimizer(
                x0, groups, dhspg.OptimizerConfig(
                    learning_rate=0.5, lr_decay=1.0, momentum=0.0,
                    target_zero_groups=len(planted), warmup_steps=self.WARMUP,
                    project_start_step=self.WARMUP, default_penalty=1.0,
                    salience_cos_weight=0.0, salience_mag_weight=1.0),
                group_components=[z.component_id for z in part.zigs])
            for _ in range(self.STEPS):
                opt.step(opt.x - x_star)
            return index, groups, x0, x_star, opt

        (index, groups, x0, x_star, opt), train_s = refclock.timed("python", optimize)
        r.timings["opt_steps_per_s"] = [self.STEPS / train_s]
        r.timings["train_samples_per_s"] = [self.STEPS * len(x0) / train_s]
        r.errors.extend(checks.check_planted_solution(opt.x, x_star, groups, planted, 0.0))
        index.scatter(g, opt.x)

        (small, errors), seconds = refclock.timed("python", _surgery, g, part,
                                                  self.EQUIV_TRIALS, [self.seed, 6, j])
        r.timings["surgery_s"] = [seconds]
        r.errors.extend(errors)
        kept_doc = resnet_doc(self.BLOCKS, self.WIDTH - self.WIDTH // 2,
                              [self.INNER - self.INNER // 2] * self.BLOCKS)
        r.errors.extend(_flops_agree(small, kept_doc))
        r.values["compressed_flops"] = graph.count_flops_params(small)[0]

        x_eval = rng.normal(size=(self.N_EVAL, 3, 4, 4))
        full_out, _ = engine.forward(g, x_eval, mode="eval")
        small_out, _ = engine.forward(small, x_eval, mode="eval")
        r.errors.extend(checks.check_outputs_agree(full_out, small_out, 1e-9))
        (_, acc), eval_s = refclock.timed("python", harness.evaluate_graph, small, x_eval,
                                          full_out.argmax(axis=1), "cross_entropy",
                                          batch=self.BATCH)
        r.timings["compressed_eval_samples_per_s"] = [self.N_EVAL / eval_s]
        r.values["compressed_test_accuracy"] = acc
        r.timings["pipeline_s"] = [train_s + seconds + eval_s]
        index.scatter(g, x0)
        return r


WORKLOADS = {w.name: w for w in (TrainOnceDemoNet, DhspgManyGroups, DeepResnetSurgery)}
