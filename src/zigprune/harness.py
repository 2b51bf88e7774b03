"""End-to-end experiment driver.

One experiment = partition, train, compress, verify, report. All randomness
flows from a single seed through named substreams, in this fixed order:
params (weight init), data (dataset generation), batches (epoch shuffling),
equivalence (verification inputs). A fixed seed makes the partition JSON,
the training log (timing column aside), and the compressed graph JSON
byte-reproducible.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
import time
from dataclasses import dataclass, field
from numbers import Real
from typing import Annotated, Optional

import numpy as np

from .builders import BUILDERS
from .compression import (build_channel_maps, compress, group_flops_savings, make_mask,
                          prune, verify_equivalence)
from .datasets import (
    ClassificationData,
    GroupSparseProblem,
    RegressionData,
    dataset_spec,
    gen_synthetic_classification,
    gen_synthetic_regression,
    load_image_csv,
    minibatches,
)
from .dhspg import DhspgOptimizer, OptimizerConfig
from .engine import accuracy, backward, evaluate_loss, forward
from .errors import (AllGroupsZeroInComponent, ConfigError, Count, NonNegative, Size,
                     TrainingDiverged, check_fields, check_value, field_types, read_json,
                     write_json)
from .graph import STEM, build_graph, count_flops_params, init_params, save_graph
from .paramvec import ParamIndex
from .partition import PartitionResult, partition

STREAMS = ("params", "data", "batches", "equivalence")


def rng_streams(seed: int) -> dict[str, np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(len(STREAMS))
    return {name: np.random.default_rng(ss) for name, ss in zip(STREAMS, children)}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

LOSSES = ("cross_entropy", "mse")
GRAPH_SPEC = {"builder": Annotated[str, tuple(BUILDERS)], "path": str}


@dataclass
class ExperimentConfig:
    graph: dict = field(default_factory=lambda: {"builder": "demo_net"})
    dataset: dict = field(default_factory=lambda: {"kind": "synthetic-classification"})
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    epochs: Count = 30
    batch_size: Size = 128
    seed: Count = 0
    output_dir: str = "run"
    loss: Annotated[str, LOSSES] = "cross_entropy"
    target_zero_fraction: Optional[Annotated[float, "[0, 1]"]] = None
    equivalence_trials: Size = 100
    equivalence_tol: NonNegative = 1e-9

    @staticmethod
    def from_doc(doc: dict) -> "ExperimentConfig":
        """The config in ``doc``, each value checked against its field's
        annotation and not converted; a ConfigError names the key at fault.
        The graph and dataset specs are checked where they are built."""
        doc = check_fields(doc, {**field_types(ExperimentConfig), "optimizer": dict}, "config")
        optimizer = check_fields(doc.pop("optimizer", {}), OptimizerConfig, "optimizer")
        cfg = ExperimentConfig(optimizer=OptimizerConfig(**optimizer), **doc)
        cfg.optimizer.validate()
        return cfg

    @staticmethod
    def from_json(path: str) -> "ExperimentConfig":
        cfg = ExperimentConfig.from_doc(read_json(path, "config"))
        env_seed = os.environ.get("ZIGPRUNE_SEED")
        if env_seed is not None:
            try:
                seed = int(env_seed)
            except ValueError:  # not an integer: check_value names it
                seed = env_seed
            cfg.seed = check_value(seed, Count, "ZIGPRUNE_SEED")
        return cfg

    def to_doc(self) -> dict:
        return dataclasses.asdict(self)


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


def build_experiment_graph(cfg: ExperimentConfig, rng_params: np.random.Generator):
    spec = check_fields(cfg.graph, GRAPH_SPEC, "graph")
    if len(spec) != 1:
        raise ConfigError(f"graph spec needs exactly one of 'builder' and 'path', "
                          f"got {sorted(spec)}")
    if "builder" in spec:
        g = BUILDERS[spec["builder"]]()
        init_params(g, rng_params)
        return g
    doc = read_json(spec["path"], "graph")
    g = build_graph(doc)
    for vdoc in doc.get("vertices", []):
        vx = g.vertices[vdoc["id"]]
        if vx.category == STEM and "weight" not in (vdoc.get("params") or {}):
            raise ConfigError(f"config 'graph' path {spec['path']!r}: vertex {vx.id} "
                              f"({vx.kind.op}) gives no 'weight' to train from")
    return g


def build_dataset(cfg: ExperimentConfig, rng_data: np.random.Generator) -> ClassificationData:
    """The configured dataset. Raises ConfigError for a spec its kind
    rejects, a kind the pipeline cannot train on, or when the train or the
    test split is empty."""
    kind, spec = dataset_spec(cfg.dataset)
    if kind == "synthetic-classification":
        seed = int(rng_data.integers(1 << 31))
        data = gen_synthetic_classification(seed=seed, **spec)
    elif kind == "image-csv":
        data = load_image_csv(spec["dir"])
    else:
        raise ConfigError(f"dataset kind {kind!r} is not trainable by the graph "
                          "pipeline (regression runs through the sweep tools)")
    for split, x in (("train", data.x_train), ("test", data.x_test)):
        if len(x) == 0:
            raise ConfigError(f"the {kind} dataset's {split} split is empty")
    return data


# ---------------------------------------------------------------------------
# graph training
# ---------------------------------------------------------------------------

def evaluate_graph(g, x, y, loss: str, batch=None):
    """(mean loss, accuracy) of g on (x, y) from one eval-mode forward;
    accuracy is nan unless the loss is cross-entropy. ``batch`` has no
    effect: perfbench's deep_resnet_surgery workload still passes it."""
    out = forward(g, x, mode="eval")[0]
    acc = accuracy(out, y) if loss == "cross_entropy" else float("nan")
    return evaluate_loss(out, loss, y), acc


def _narrowed_copy(g, part: PartitionResult, index: ParamIndex, x: np.ndarray,
                   frozen_ids: np.ndarray):
    """A copy of g without the given groups, to train on in g's place.

    Returns (copy, channel maps, keep, the copy's ParamIndex): keep[i] is
    the position in g's buffer ``index.x`` of coordinate i of the copy's. g
    and the copy then hold the iterate x. Raises AllGroupsZeroInComponent,
    leaving g as it was, when the groups would empty a component.
    """
    mask = make_mask(part, frozen_ids)
    maps = build_channel_maps(g, part, mask)
    # Each coordinate tagged with its flat position: pruning keeps the tags
    # of the survivors, in the copy's layout.
    index.x[...] = np.arange(index.size)
    try:
        small = prune(g, mask, maps)
    finally:
        index.x[...] = x
    small_index = ParamIndex(small)
    keep = small_index.x.astype(np.intp)
    small_index.x[...] = x[keep]
    return small, maps, keep, small_index


def _write_back_running_stats(g, small, maps: dict[int, np.ndarray]) -> None:
    """Copy the training copy's BatchNorm running statistics into g at the
    channels the copy kept; a removed channel keeps its last value."""
    for vid, vx in small.vertices.items():
        if vx.params is not None and vx.params.running_mean is not None:
            full = g.vertices[vid].params
            full.running_mean[maps[vid]] = vx.params.running_mean
            full.running_var[maps[vid]] = vx.params.running_var


def train_graph(g, part: PartitionResult, data: ClassificationData,
                cfg: ExperimentConfig, rng_batches: np.random.Generator):
    """Train the graph in place; returns (optimizer, per-epoch rows).

    The optimizer targets ``resolve_target_groups(part, cfg)`` zero groups
    and owns the full flat iterate. Forward and backward run on a
    copy of g without the optimizer's frozen groups, rebuilt at each epoch
    boundary where the frozen set has grown (inside that epoch's timing).
    The copy's arrays are views into its ``ParamIndex`` buffer, which each
    step overwrites with the iterate at ``keep``; the copy's gradient
    enters the full vector at ``keep`` and is zero elsewhere. Frozen
    coordinates' gradients are never read, and the consumer columns a
    frozen group feeds get exactly zero at full width too, so the optimizer
    takes the same steps up to rounding. When the frozen set would empty a
    component the copy keeps its width. Each row's ``train_flops`` is the
    per-sample FLOPs of the graph that epoch trained.
    """
    if len(g.input_shapes) != 1:
        raise ConfigError(
            f"graph takes {len(g.input_shapes)} inputs but the dataset holds 1 "
            "input array; only single-input graphs can be trained")
    index = ParamIndex(g)
    n_train = data.x_train.shape[0]
    steps_per_epoch = math.ceil(n_train / cfg.batch_size)
    opt_cfg = dataclasses.replace(cfg.optimizer,
                                  target_zero_groups=resolve_target_groups(part, cfg))
    opt = DhspgOptimizer(index.x, [index.group_indices(z) for z in part.zigs], opt_cfg,
                         steps_per_epoch=steps_per_epoch,
                         group_components=[z.component_id for z in part.zigs],
                         group_costs=group_flops_savings(g, part))
    small, maps, keep, small_index = _narrowed_copy(g, part, index, opt.x, [])
    train_flops = count_flops_params(small)[0]
    n_frozen = 0
    rows = []
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        frozen = np.flatnonzero(opt.frozen)
        if len(frozen) > n_frozen:
            n_frozen = len(frozen)
            _write_back_running_stats(g, small, maps)
            try:
                small, maps, keep, small_index = _narrowed_copy(g, part, index, opt.x, frozen)
            except AllGroupsZeroInComponent:
                pass  # train on at the current width; surgery reports it
            train_flops = count_flops_params(small)[0]
        running = 0.0
        seen = 0
        for idx in minibatches(n_train, cfg.batch_size, rng_batches):
            _, cache = forward(small, data.x_train[idx], mode="train")
            loss_val, grads = backward(small, cache, cfg.loss, data.y_train[idx])
            if not math.isfinite(loss_val):
                raise TrainingDiverged(opt.t, "loss")
            small_grad = small_index.gather_grads(grads)
            if not np.isfinite(small_grad).all():
                raise TrainingDiverged(opt.t, "gradient")
            flat_grad = np.zeros(index.size)
            flat_grad[keep] = small_grad
            opt.step(flat_grad)
            # in place: "clip" takes no buffer, and keep is always in range
            np.take(opt.x, keep, out=small_index.x, mode="clip")
            # no step's arrays may be held while the next forward runs
            del cache, grads, small_grad, flat_grad
            running += loss_val * len(idx)
            seen += len(idx)
        epoch_seconds = time.perf_counter() - t0
        test_loss, test_acc = evaluate_graph(small, data.x_test, data.y_test, cfg.loss)
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
            "train_flops": train_flops,
            "epoch_seconds": epoch_seconds,
        })
    _write_back_running_stats(g, small, maps)
    index.scatter(g, opt.x)
    return opt, rows


TRAIN_LOG_COLUMNS = ("epoch", "train_loss", "test_loss", "test_accuracy",
                     "group_sparsity", "zero_groups", "learning_rate",
                     "penalty_mean", "train_flops", "epoch_seconds")


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


def check_equivalence(g, small, cfg: ExperimentConfig) -> dict:
    """``verify_equivalence`` of g and its compressed graph with the run's
    trials, tolerance and equivalence stream."""
    return verify_equivalence(g, small, n_trials=cfg.equivalence_trials,
                              tol=cfg.equivalence_tol,
                              rng=rng_streams(cfg.seed)["equivalence"])


def compress_and_verify(g, part: PartitionResult, cfg: ExperimentConfig, output_dir: str):
    """Cut g's zero groups and check the cut against g.

    Writes graph_compressed.json, compression.json and equivalence.json
    into output_dir. Returns (compressed graph, mask, the compression.json
    document, the equivalence.json document).
    """
    flops_full, params_full = count_flops_params(g)
    small, mask = compress(g, part)
    save_graph(small, os.path.join(output_dir, "graph_compressed.json"))
    flops_small, params_small = count_flops_params(small)
    removed = {str(ci): part.widths[ci] - len(kept) for ci, kept in mask.survivors.items()}
    sizes = {
        "removed_groups_per_component": removed,
        "flops_full": flops_full, "params_full": params_full,
        "flops_compressed": flops_small, "params_compressed": params_small,
    }
    write_json(os.path.join(output_dir, "compression.json"), sizes)
    equiv = check_equivalence(g, small, cfg)
    write_json(os.path.join(output_dir, "equivalence.json"), equiv)
    return small, mask, sizes, equiv


# metrics.json as run_pipeline writes it, every key required; a Real may be
# NaN (no epoch ran) or infinite (a diff that overflowed), as json writes them.
EQUIVALENCE_DOC = {"n_trials": Size, "tol": NonNegative, "max_abs_diff": Real,
                   "max_rel_diff": Real, "passed": bool}
EPOCH_ROW = {**dict.fromkeys(TRAIN_LOG_COLUMNS, Real),
             "epoch": Count, "zero_groups": Count, "train_flops": Count}
METRICS_DOC = {
    "flops_full": Count, "params_full": Count, "flops_compressed": Count,
    "params_compressed": Count, "flops_ratio": Real, "params_ratio": Real,
    "target_zero_groups": Count, "zero_groups": Count, "target_met": bool,
    "group_sparsity": Real, "final_test_loss": Real, "final_test_accuracy": Real,
    "compressed_test_loss": Real, "compressed_test_accuracy": Real,
    "mean_epoch_seconds": Real, "equivalence": dict, "epochs": list[dict],
}


def check_metrics(doc) -> dict:
    """``doc`` checked as a metrics.json document; a ConfigError names the
    first key missing or of the wrong type, in ``equivalence`` and in each
    ``epochs`` row too."""
    doc = check_fields(doc, METRICS_DOC, "metrics", required=tuple(METRICS_DOC))
    check_fields(doc["equivalence"], EQUIVALENCE_DOC, "metrics 'equivalence'",
                 required=tuple(EQUIVALENCE_DOC))
    for i, row in enumerate(doc["epochs"]):
        check_fields(row, EPOCH_ROW, f"metrics 'epochs'[{i}]", required=tuple(EPOCH_ROW))
    return doc


def run_pipeline(cfg: ExperimentConfig) -> PipelineResult:
    """Partition, train once, compress, verify, report.

    ``ok`` needs both an equivalent compressed graph and the target number of
    zero groups; metrics.json records ``zero_groups`` and ``target_met``.

    Writes partition.json, training_log.csv, graph_full.json,
    graph_compressed.json, compression.json, equivalence.json, metrics.json
    and a copy of the config into the output directory, which is made only
    once the config is checked, the graph, target and dataset are built, the
    labels fit the graph's output and the warm-up and projection steps are
    resolved. The loss must be cross-entropy: no dataset kind it trains on
    holds the per-output targets mse needs.
    """
    cfg = ExperimentConfig.from_doc(cfg.to_doc())
    if cfg.loss != "cross_entropy":
        raise ConfigError(f"config 'loss' {cfg.loss!r} needs per-output targets, "
                          "which no trainable dataset kind holds")
    streams = rng_streams(cfg.seed)
    g = build_experiment_graph(cfg, streams["params"])
    part = partition(g)
    target = resolve_target_groups(part, cfg)
    data = build_dataset(cfg, streams["data"])
    width = g.vertices[g.output_id].out_shape[1]
    if data.n_classes > width:
        raise ConfigError(f"config 'dataset' has {data.n_classes} classes, more than the "
                          f"{width} outputs of config 'graph'")
    cfg.optimizer.resolved(math.ceil(len(data.x_train) / cfg.batch_size))  # checks the steps

    os.makedirs(cfg.output_dir, exist_ok=True)
    write_json(os.path.join(cfg.output_dir, "config.json"), cfg.to_doc())
    write_json(os.path.join(cfg.output_dir, "partition.json"), part.to_doc())
    opt, rows = train_graph(g, part, data, cfg, streams["batches"])
    write_training_log(os.path.join(cfg.output_dir, "training_log.csv"), rows)
    save_graph(g, os.path.join(cfg.output_dir, "graph_full.json"))

    small, mask, sizes, equiv = compress_and_verify(g, part, cfg, cfg.output_dir)
    flops_full, params_full = sizes["flops_full"], sizes["params_full"]
    flops_small, params_small = sizes["flops_compressed"], sizes["params_compressed"]

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
    write_json(os.path.join(cfg.output_dir, "metrics.json"), metrics)
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
    opt = DhspgOptimizer(np.full(n, 0.1), data.groups, opt_cfg,
                         steps_per_epoch=steps_per_epoch)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        for idx in minibatches(m, batch_size, rng):
            r = data.X[idx] @ opt.x - data.y[idx]
            opt.step(data.X[idx].T @ r / len(idx))
    return opt


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

    def row(setting: str, **changes) -> dict:
        cfg = dataclasses.replace(base, **changes)
        opt = train_regression(data, cfg, epochs, batch_size, seed + 1)
        zeros = opt.zero_group_ids()
        return {
            "method": cfg.mode, "setting": setting,
            "zero_groups": len(zeros), "zero_group_ids": zeros,
            "objective": data.objective(opt.x),
            "support_recovered": sorted(set(range(problem.n_groups)) - set(zeros))
            == data.support,
        }

    rows = [row(f"K={target_zero_groups}", mode="dhspg", target_zero_groups=target_zero_groups)]
    rows += [row(f"lambda={lam:g}", mode="hspg", global_penalty=float(lam))
             for lam in lambda_sweep]
    return {"rows": rows, "oracle_objective": data.oracle_objective,
            "support": data.support}
