"""End-to-end experiment driver.

One experiment = partition, train, compress, verify, report. All randomness
flows from a single seed through named substreams, in this fixed order:
params (weight init), data (dataset generation), batches (epoch shuffling),
equivalence (verification inputs), bench (timing runs). A fixed seed makes
the partition JSON, the training log (timing column aside), and the
compressed graph JSON byte-reproducible.
"""

from __future__ import annotations

import csv
import dataclasses
import gc
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .builders import BUILDERS, conv_chain
from .compression import compress, group_flops_savings, verify_equivalence
from .datasets import (
    ClassificationData,
    GroupSparseProblem,
    RegressionData,
    gen_synthetic_classification,
    gen_synthetic_regression,
    load_image_csv,
    minibatches,
)
from .dhspg import DhspgOptimizer, OptimizerConfig
from .engine import accuracy, backward, evaluate_loss, forward
from .errors import ConfigError, TrainingDiverged
from .graph import count_flops_params, infer_shapes, init_params, load_graph, save_graph
from .paramvec import ParamIndex
from .partition import PartitionResult, partition

STREAMS = ("params", "data", "batches", "equivalence", "bench")


def rng_streams(seed: int) -> dict[str, np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(len(STREAMS))
    return {name: np.random.default_rng(ss) for name, ss in zip(STREAMS, children)}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    graph: dict = field(default_factory=lambda: {"builder": "demo_net"})
    dataset: dict = field(default_factory=lambda: {"kind": "synthetic-classification"})
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    epochs: int = 30
    batch_size: int = 128
    seed: int = 0
    output_dir: str = "run"
    loss: str = "cross_entropy"
    target_zero_fraction: Optional[float] = None
    equivalence_trials: int = 100
    equivalence_tol: float = 1e-9

    @staticmethod
    def from_doc(doc: dict) -> "ExperimentConfig":
        doc = dict(doc)
        opt = OptimizerConfig(**doc.pop("optimizer", {}))
        known = {f.name for f in dataclasses.fields(ExperimentConfig)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return ExperimentConfig(optimizer=opt, **doc)

    @staticmethod
    def from_json(path: str) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            cfg = ExperimentConfig.from_doc(json.load(fh))
        env_seed = os.environ.get("ZIGPRUNE_SEED")
        if env_seed is not None:
            cfg.seed = int(env_seed)
        return cfg

    def to_doc(self) -> dict:
        doc = dataclasses.asdict(self)
        return doc


def resolve_target_groups(part: PartitionResult, cfg: ExperimentConfig) -> int:
    n_groups = len(part.zigs)
    n_components = sum(1 for w in part.widths if w > 0)
    k = cfg.optimizer.target_zero_groups
    if cfg.target_zero_fraction is not None:
        k = int(round(cfg.target_zero_fraction * n_groups))
    cap = n_groups - n_components
    if not 0 <= k <= cap:
        raise ConfigError(
            f"target of {k} zero groups violates 0 <= K <= {cap} "
            f"({n_groups} groups across {n_components} components)"
        )
    return k


def _resolve_phase_steps(opt_cfg: OptimizerConfig, steps_per_epoch: int) -> OptimizerConfig:
    """Default warm-up / projection start: half of the first decay period."""
    half_period = (opt_cfg.lr_period_epochs // 2) * steps_per_epoch
    warm = opt_cfg.warmup_steps if opt_cfg.warmup_steps is not None else half_period
    proj = opt_cfg.project_start_step if opt_cfg.project_start_step is not None else half_period
    return dataclasses.replace(opt_cfg, warmup_steps=warm, project_start_step=proj)


def build_experiment_graph(cfg: ExperimentConfig, rng_params: np.random.Generator):
    spec = cfg.graph
    if "builder" in spec:
        name = spec["builder"]
        if name not in BUILDERS:
            raise ConfigError(f"unknown builder {name!r}; have {sorted(BUILDERS)}")
        g = BUILDERS[name]()
        init_params(g, rng_params)
        return g
    if "path" in spec:
        return infer_shapes(load_graph(spec["path"]))
    raise ConfigError("graph spec needs 'builder' or 'path'")


def build_dataset(cfg: ExperimentConfig, rng_data: np.random.Generator) -> ClassificationData:
    spec = dict(cfg.dataset)
    kind = spec.pop("kind", None)
    if kind == "synthetic-classification":
        seed = int(rng_data.integers(1 << 31))
        return gen_synthetic_classification(seed=seed, **spec)
    if kind == "image-csv":
        return load_image_csv(spec["dir"])
    raise ConfigError(f"dataset kind {kind!r} is not trainable by the graph "
                      "pipeline (regression runs through the sweep tools)")


# ---------------------------------------------------------------------------
# graph training
# ---------------------------------------------------------------------------

def evaluate_graph(g, x, y, loss: str, batch: int = 256):
    total_loss = 0.0
    hits = 0.0
    n = x.shape[0]
    for lo in range(0, n, batch):
        xs = x[lo:lo + batch]
        ys = y[lo:lo + batch]
        out, _ = forward(g, xs, mode="eval")
        total_loss += evaluate_loss(out, loss, ys) * len(xs)
        if loss == "cross_entropy":
            hits += accuracy(out, ys) * len(xs)
    return total_loss / n, (hits / n if loss == "cross_entropy" else float("nan"))


def train_graph(g, part: PartitionResult, data: ClassificationData,
                cfg: ExperimentConfig, rng_batches: np.random.Generator,
                target_groups: Optional[int] = None):
    """Train the graph in place; returns (optimizer, per-epoch rows)."""
    index = ParamIndex(g)
    group_idx = [index.group_indices(z) for z in part.zigs]
    group_comps = [z.component_id for z in part.zigs]
    n_train = data.x_train.shape[0]
    steps_per_epoch = math.ceil(n_train / cfg.batch_size)
    opt_cfg = _resolve_phase_steps(cfg.optimizer, steps_per_epoch)
    if target_groups is not None:
        opt_cfg = dataclasses.replace(opt_cfg, target_zero_groups=target_groups)
    opt = DhspgOptimizer(index.gather(g), group_idx, opt_cfg,
                         steps_per_epoch=steps_per_epoch,
                         group_components=group_comps,
                         group_costs=group_flops_savings(g, part))
    rows = []
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        running = 0.0
        seen = 0
        for idx in minibatches(n_train, cfg.batch_size, rng_batches):
            index.scatter(g, opt.x)
            out, cache = forward(g, data.x_train[idx], mode="train")
            loss_val, grads = backward(g, cache, cfg.loss, data.y_train[idx])
            if not math.isfinite(loss_val):
                raise TrainingDiverged(opt.t, "loss")
            flat_grad = index.gather_grads(grads)
            if not np.isfinite(flat_grad).all():
                raise TrainingDiverged(opt.t, "gradient")
            opt.step(flat_grad)
            running += loss_val * len(idx)
            seen += len(idx)
        index.scatter(g, opt.x)
        epoch_seconds = time.perf_counter() - t0
        test_loss, test_acc = evaluate_graph(g, data.x_test, data.y_test, cfg.loss)
        stats = opt.penalty_stats()
        rows.append({
            "epoch": epoch,
            "train_loss": running / seen,
            "test_loss": test_loss,
            "test_accuracy": test_acc,
            "group_sparsity": opt.group_sparsity(),
            "zero_groups": opt.zero_group_count(),
            "learning_rate": opt.learning_rate(),
            "penalty_mean": stats["penalty_mean"],
            "epoch_seconds": epoch_seconds,
        })
    index.scatter(g, opt.x)
    return opt, rows


TRAIN_LOG_COLUMNS = ("epoch", "train_loss", "test_loss", "test_accuracy",
                     "group_sparsity", "zero_groups", "learning_rate",
                     "penalty_mean", "epoch_seconds")


def write_training_log(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=TRAIN_LOG_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

@dataclass
class PipelineResult:
    ok: bool
    metrics: dict
    output_dir: str


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def run_pipeline(cfg: ExperimentConfig) -> PipelineResult:
    """Partition, train once, compress, verify, report.

    ``ok`` needs both an equivalent compressed graph and the target number of
    zero groups; metrics.json records ``zero_groups`` and ``target_met``.

    Writes partition.json, training_log.csv, graph_full.json,
    graph_compressed.json, compression.json, equivalence.json, metrics.json
    and a copy of the config into the output directory.
    """
    os.makedirs(cfg.output_dir, exist_ok=True)
    streams = rng_streams(cfg.seed)
    _write_json(os.path.join(cfg.output_dir, "config.json"), cfg.to_doc())

    g = build_experiment_graph(cfg, streams["params"])
    part = partition(g)
    with open(os.path.join(cfg.output_dir, "partition.json"), "w",
              encoding="utf-8") as fh:
        fh.write(part.to_json())

    target = resolve_target_groups(part, cfg)
    data = build_dataset(cfg, streams["data"])

    opt, rows = train_graph(g, part, data, cfg, streams["batches"],
                            target_groups=target)
    write_training_log(os.path.join(cfg.output_dir, "training_log.csv"), rows)
    save_graph(g, os.path.join(cfg.output_dir, "graph_full.json"))

    flops_full, params_full = count_flops_params(g)
    small, mask = compress(g, part)
    save_graph(small, os.path.join(cfg.output_dir, "graph_compressed.json"))
    flops_small, params_small = count_flops_params(small)
    removed = {
        str(ci): part.widths[ci] - len(mask.survivors.get(ci, []))
        for ci in range(len(part.widths)) if part.widths[ci]
    }
    _write_json(os.path.join(cfg.output_dir, "compression.json"), {
        "removed_groups_per_component": removed,
        "flops_full": flops_full, "params_full": params_full,
        "flops_compressed": flops_small, "params_compressed": params_small,
    })

    equiv = verify_equivalence(g, small, n_trials=cfg.equivalence_trials,
                               tol=cfg.equivalence_tol,
                               rng=streams["equivalence"])
    _write_json(os.path.join(cfg.output_dir, "equivalence.json"), equiv)

    zero_groups = mask.zero_group_count()
    target_met = zero_groups >= target
    test_loss_small, test_acc_small = evaluate_graph(
        small, data.x_test, data.y_test, cfg.loss)
    metrics = {
        "flops_full": flops_full,
        "params_full": params_full,
        "flops_compressed": flops_small,
        "params_compressed": params_small,
        "flops_ratio": flops_small / flops_full,
        "params_ratio": params_small / params_full,
        "target_zero_groups": target,
        "zero_groups": zero_groups,
        "target_met": target_met,
        "group_sparsity": opt.group_sparsity(),
        "final_test_loss": rows[-1]["test_loss"] if rows else float("nan"),
        "final_test_accuracy": rows[-1]["test_accuracy"] if rows else float("nan"),
        "compressed_test_loss": test_loss_small,
        "compressed_test_accuracy": test_acc_small,
        "mean_epoch_seconds": float(np.mean([r["epoch_seconds"] for r in rows]))
        if rows else 0.0,
        "equivalence": equiv,
        "epochs": rows,
    }
    _write_json(os.path.join(cfg.output_dir, "metrics.json"), metrics)
    return PipelineResult(ok=bool(equiv["passed"]) and target_met, metrics=metrics,
                          output_dir=cfg.output_dir)


# ---------------------------------------------------------------------------
# regression bed: training, sweep, oracle comparison
# ---------------------------------------------------------------------------

def train_regression(data: RegressionData, opt_cfg: OptimizerConfig,
                     epochs: int = 40, batch_size: int = 64,
                     seed: int = 0) -> DhspgOptimizer:
    m, n = data.X.shape
    steps_per_epoch = math.ceil(m / batch_size)
    opt_cfg = _resolve_phase_steps(opt_cfg, steps_per_epoch)
    opt = DhspgOptimizer(np.full(n, 0.1), data.groups, opt_cfg,
                         steps_per_epoch=steps_per_epoch)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        for idx in minibatches(m, batch_size, rng):
            r = data.X[idx] @ opt.x - data.y[idx]
            opt.step(data.X[idx].T @ r / len(idx))
    return opt


def zero_groups_of(opt: DhspgOptimizer) -> list[int]:
    return opt.zero_group_ids()


def run_ablation_dhspg_vs_hspg(problem: GroupSparseProblem,
                               lambda_sweep: list[float],
                               target_zero_groups: int,
                               seed: int = 0, epochs: int = 40,
                               batch_size: int = 64,
                               opt_base: Optional[OptimizerConfig] = None) -> dict:
    """Same bed, same schedule: exact-count control vs a coefficient sweep."""
    base = opt_base or OptimizerConfig(learning_rate=0.05, momentum=0.9,
                                       lr_period_epochs=max(epochs, 1),
                                       default_penalty=0.1)
    data = gen_synthetic_regression(problem, seed)
    rows = []

    cfg = dataclasses.replace(base, mode="dhspg",
                              target_zero_groups=target_zero_groups)
    opt = train_regression(data, cfg, epochs, batch_size, seed + 1)
    zeros = zero_groups_of(opt)
    rows.append({
        "method": "dhspg", "setting": f"K={target_zero_groups}",
        "zero_groups": len(zeros), "zero_group_ids": zeros,
        "objective": data.objective(opt.x),
        "support_recovered": sorted(set(range(problem.n_groups)) - set(zeros))
        == data.support,
    })
    for lam in lambda_sweep:
        cfg = dataclasses.replace(base, mode="hspg", global_penalty=float(lam))
        opt = train_regression(data, cfg, epochs, batch_size, seed + 1)
        zeros = zero_groups_of(opt)
        rows.append({
            "method": "hspg", "setting": f"lambda={lam:g}",
            "zero_groups": len(zeros), "zero_group_ids": zeros,
            "objective": data.objective(opt.x),
            "support_recovered": sorted(set(range(problem.n_groups)) - set(zeros))
            == data.support,
        })
    return {"rows": rows, "oracle_objective": data.oracle_objective,
            "support": data.support}


# ---------------------------------------------------------------------------
# timing benches
# ---------------------------------------------------------------------------

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
        )
        g = build_experiment_graph(cfg, streams["params"])
        part = partition(g)
        data = build_dataset(cfg, streams["data"])
        target = resolve_target_groups(part, dataclasses.replace(
            cfg, target_zero_fraction=target_fraction)) if mode == "dhspg" else 0
        _, rows = train_graph(g, part, data, cfg, streams["batches"],
                              target_groups=target)
        results[mode] = [r["epoch_seconds"] for r in rows]
    sgd = float(np.mean(results["sgd"][1:]))
    dhspg = float(np.mean(results["dhspg"][1:]))
    return {"sgd_epoch_seconds": results["sgd"],
            "dhspg_epoch_seconds": results["dhspg"],
            "ratio": dhspg / sgd}
