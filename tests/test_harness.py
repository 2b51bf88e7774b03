import csv
import json
import os
import tracemalloc

import numpy as np
import pytest

from zigprune.dhspg import OptimizerConfig
from zigprune.datasets import ClassificationData, GroupSparseProblem
from zigprune.engine import accuracy, backward, evaluate_loss, forward
from zigprune.errors import ConfigError, TrainingDiverged
from zigprune.graph import load_graph
from zigprune.harness import (
    ExperimentConfig,
    evaluate_graph,
    resolve_target_groups,
    run_ablation_dhspg_vs_hspg,
    run_pipeline,
    rng_streams,
    train_graph,
)
from zigprune.partition import partition
from zigprune.builders import demo_net, residual_block_net

from graphs import graphs_structurally_equal, time_partition


def small_cfg(tmp_path, name, **over):
    """128 steps; at seed 3 a 25% target (16 of 64 groups) is met after the
    fifth of the eight epochs."""
    base = dict(
        graph={"builder": "demo_net"},
        dataset={"kind": "synthetic-classification", "n_train": 1024, "n_test": 128},
        optimizer=OptimizerConfig(learning_rate=0.1, lr_period_epochs=100,
                                  default_penalty=1.0, penalty_amplify=16.0,
                                  warmup_steps=16, project_start_step=16,
                                  salience_cos_weight=0.0, salience_mag_weight=1.0),
        epochs=8, batch_size=64, seed=3,
        output_dir=str(tmp_path / name),
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_pipeline_artifacts_and_gate(tmp_path):
    cfg = small_cfg(tmp_path, "run", target_zero_fraction=0.25)
    result = run_pipeline(cfg)
    assert result.ok
    for name in ("config.json", "partition.json", "training_log.csv",
                 "graph_full.json", "graph_compressed.json",
                 "compression.json", "equivalence.json", "metrics.json"):
        assert os.path.exists(os.path.join(cfg.output_dir, name)), name
    m = result.metrics
    assert m["target_met"] and m["zero_groups"] == m["target_zero_groups"] == 16
    assert m["equivalence"]["max_abs_diff"] < 1e-9
    assert m["flops_compressed"] < m["flops_full"]
    with open(os.path.join(cfg.output_dir, "metrics.json"), encoding="utf-8") as fh:
        written = json.load(fh)
    assert (written["zero_groups"], written["target_met"]) == (16, True)
    # each epoch row records the FLOPs it trained at: full width until
    # groups freeze, then never rising
    flops = [row["train_flops"] for row in written["epochs"]]
    assert flops[0] == m["flops_full"] > flops[-1] >= m["flops_compressed"]
    assert all(b <= a for a, b in zip(flops, flops[1:]))
    with open(os.path.join(cfg.output_dir, "training_log.csv"), newline="",
              encoding="utf-8") as fh:
        assert [int(r["train_flops"]) for r in csv.DictReader(fh)] == flops


def test_missed_target_fails_the_run(tmp_path):
    # Projection from step 4 of 16 zeroes none of the 16 target groups.
    cfg = small_cfg(tmp_path, "miss", target_zero_fraction=0.25,
                    dataset={"kind": "synthetic-classification",
                             "n_train": 512, "n_test": 128},
                    optimizer=OptimizerConfig(learning_rate=0.1, lr_period_epochs=2,
                                              default_penalty=0.5),
                    epochs=4, batch_size=128)
    result = run_pipeline(cfg)
    m = result.metrics
    assert m["equivalence"]["passed"]
    assert m["zero_groups"] < m["target_zero_groups"] == 16
    assert not m["target_met"] and not result.ok


def test_divergence_raises_with_step(tmp_path):
    # The first step sees the finite initial weights; the update it makes
    # overflows, so the loss of step 1 is the first non-finite value.
    cfg = small_cfg(tmp_path, "div", epochs=1,
                    optimizer=OptimizerConfig(learning_rate=1e300))
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as info:
        run_pipeline(cfg)
    assert info.value.step == 1


def test_pipeline_k_zero_keeps_graph(tmp_path):
    cfg = small_cfg(tmp_path, "k0")
    result = run_pipeline(cfg)
    assert result.ok
    full = load_graph(os.path.join(cfg.output_dir, "graph_full.json"))
    small = load_graph(os.path.join(cfg.output_dir, "graph_compressed.json"))
    assert graphs_structurally_equal(full, small)
    assert result.metrics["flops_ratio"] == 1.0


def test_invalid_target_rejected_before_training(tmp_path):
    part = partition(demo_net())
    cap = len(part.zigs) - sum(1 for w in part.widths if w > 0)
    cfg = small_cfg(tmp_path, "bad")
    cfg.optimizer.target_zero_groups = cap + 1
    with pytest.raises(ConfigError):
        resolve_target_groups(part, cfg)
    assert resolve_target_groups(part, small_cfg(tmp_path, "ok")) == 0


def read_csv_without_timing(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("epoch_seconds")
    return [tuple(v for i, v in enumerate(r) if i != drop) for r in rows]


def test_fixed_seed_reproduces_artifacts(tmp_path):
    cfg_a = small_cfg(tmp_path, "a", target_zero_fraction=0.25)
    cfg_b = small_cfg(tmp_path, "b", target_zero_fraction=0.25)
    run_pipeline(cfg_a)
    run_pipeline(cfg_b)

    def read(run, name):
        with open(os.path.join(str(tmp_path), run, name), "rb") as fh:
            return fh.read()

    assert read("a", "partition.json") == read("b", "partition.json")
    assert read("a", "graph_compressed.json") == read("b", "graph_compressed.json")
    assert read_csv_without_timing(str(tmp_path / "a" / "training_log.csv")) == \
        read_csv_without_timing(str(tmp_path / "b" / "training_log.csv"))


def test_env_seed_override(tmp_path, monkeypatch):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"seed": 1, "epochs": 2}), encoding="utf-8")
    monkeypatch.setenv("ZIGPRUNE_SEED", "42")
    assert ExperimentConfig.from_json(str(path)).seed == 42
    monkeypatch.delenv("ZIGPRUNE_SEED")
    assert ExperimentConfig.from_json(str(path)).seed == 1


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_doc({"epoochs": 3})
    with pytest.raises(ConfigError, match="unknown optimizer keys: \\['learning_rat'\\]"):
        ExperimentConfig.from_doc({"optimizer": {"learning_rat": 0.1}})


def test_regression_dataset_not_trainable_by_pipeline(tmp_path):
    cfg = small_cfg(tmp_path, "reg",
                    dataset={"kind": "synthetic-regression"})
    with pytest.raises(ConfigError):
        run_pipeline(cfg)


def test_multi_input_graph_rejected_before_training(tmp_path):
    cfg = small_cfg(tmp_path, "two_inputs", graph={"builder": "stacked_unets_mini"},
                    dataset={"kind": "synthetic-classification", "n_train": 64,
                             "n_test": 16}, epochs=1)
    with pytest.raises(ConfigError, match="graph takes 2 inputs but the dataset holds 1"):
        run_pipeline(cfg)
    assert not os.path.exists(os.path.join(cfg.output_dir, "training_log.csv"))


@pytest.mark.parametrize("split", ["n_train", "n_test"])
def test_empty_split_rejected_before_training(tmp_path, split):
    dataset = {"kind": "synthetic-classification", "n_train": 64, "n_test": 16, split: 0}
    cfg = small_cfg(tmp_path, split, dataset=dataset, epochs=1)
    with pytest.raises(ConfigError, match="split is empty"):
        run_pipeline(cfg)
    assert not os.path.exists(os.path.join(cfg.output_dir, "training_log.csv"))


def test_ablation_contrast():
    problem = GroupSparseProblem(n_samples=300, n_groups=8, group_size=4,
                                 support_size=3, noise=0.01)
    table = run_ablation_dhspg_vs_hspg(problem, [0.0, 10.0],
                                       target_zero_groups=3, seed=5,
                                       epochs=25, batch_size=64)
    rows = {("dhspg", r["setting"]) if r["method"] == "dhspg"
            else ("hspg", r["setting"]): r for r in table["rows"]}
    assert rows[("dhspg", "K=3")]["zero_groups"] == 3
    assert rows[("hspg", "lambda=0")]["zero_groups"] == 0
    sparsities = {r["zero_groups"] for r in table["rows"] if r["method"] == "hspg"}
    assert len(sparsities) >= 2


def test_rng_streams_distinct_and_reproducible():
    a = rng_streams(9)
    b = rng_streams(9)
    seqs = {name: gen.normal(size=4) for name, gen in a.items()}
    for name, gen in b.items():
        assert np.array_equal(seqs[name], gen.normal(size=4))
    vals = np.concatenate(list(seqs.values()))
    assert len(np.unique(np.round(vals, 12))) == len(vals)


def test_time_partition_returns_positive():
    assert time_partition(50, repeats=1) > 0


@pytest.mark.parametrize("builder", [demo_net, residual_block_net])
def test_evaluate_graph_matches_one_sample_forwards(builder):
    g = builder(seed=4)
    rng = np.random.default_rng(5)
    for vx in g.vertices.values():
        if vx.params is not None and vx.params.running_mean is not None:
            c = vx.params.running_mean.shape[0]
            vx.params.running_mean = rng.normal(size=c)
            vx.params.running_var = rng.uniform(0.5, 2.0, c)
    n = 300  # 300 = 9 * 32 + 12: a ragged last eval chunk
    x = rng.normal(size=(n, *g.input_shapes[0][1:]))
    y = rng.integers(0, g.vertices[g.topo_order[-1]].out_shape[1], size=n)
    outs = [forward(g, x[i:i + 1], mode="eval")[0] for i in range(n)]
    want_loss = np.mean([evaluate_loss(out, "cross_entropy", y[i:i + 1])
                         for i, out in enumerate(outs)])
    loss, acc = evaluate_graph(g, x, y, "cross_entropy")
    assert abs(loss - want_loss) < 1e-12
    assert acc == accuracy(np.concatenate(outs), y)


def test_train_graph_resolves_its_target(tmp_path):
    """train_graph takes K from the config's fraction, as run_pipeline does."""
    g = demo_net(seed=0)
    rng = np.random.default_rng(6)
    data = ClassificationData(rng.normal(size=(64, 3, 16, 16)), rng.integers(0, 10, size=64),
                              rng.normal(size=(8, 3, 16, 16)), rng.integers(0, 10, size=8), 10)
    cfg = small_cfg(tmp_path, "k", target_zero_fraction=0.25, epochs=0)
    opt, rows = train_graph(g, partition(g), data, cfg, np.random.default_rng(7))
    assert opt.cfg.target_zero_groups == 16 and rows == []


def test_no_train_step_array_outlives_its_step():
    """A train_graph epoch of four batch-128 steps on demo_net peaks less
    than 6 MiB above one forward and backward: no step's forward cache
    (about 29 MiB) or gradients are held while the next forward runs."""
    g = demo_net(seed=0)
    rng = np.random.default_rng(57)
    x, y = rng.normal(size=(128, 3, 16, 16)), rng.integers(0, 10, size=128)

    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def step():
        _, cache = forward(g, x, mode="train")
        backward(g, cache, "cross_entropy", y)

    step()  # warm-up
    step_peak = traced_peak(step)
    data = ClassificationData(rng.normal(size=(512, 3, 16, 16)), rng.integers(0, 10, size=512),
                              rng.normal(size=(32, 3, 16, 16)), rng.integers(0, 10, size=32), 10)
    cfg = ExperimentConfig(graph={"builder": "demo_net"}, epochs=1, batch_size=128,
                           optimizer=OptimizerConfig(warmup_steps=2, project_start_step=2))
    part = partition(g)
    epoch_peak = traced_peak(lambda: train_graph(g, part, data, cfg, np.random.default_rng(58)))
    excess = (epoch_peak - step_peak) / 2 ** 20
    assert excess < 6, f"a 4-step epoch peaks {excess:.1f} MiB above one step"
