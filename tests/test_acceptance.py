"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with `pytest -s tests/test_acceptance.py` to see one line per criterion;
`pytest -m "not acceptance"` runs every other test.
"""

import dataclasses
import json
import os
import time

import numpy as np
import pytest

from zigprune.builders import BUILDERS, demo_net
from zigprune.compression import compress, verify_equivalence
from zigprune.datasets import GroupSparseProblem, gen_synthetic_regression
from zigprune.dhspg import OptimizerConfig
from zigprune.harness import (
    ExperimentConfig,
    run_ablation_dhspg_vs_hspg,
    run_pipeline,
    run_runtime_bench,
    time_partition,
    train_regression,
)
from zigprune.partition import ParamSlice, partition, zero_group
from zigprune.probes import default_probe, run_lemma_probes

from test_compression import random_mask_ids, randomized
from test_engine import finite_difference_check

pytestmark = pytest.mark.acceptance


def report(name, elapsed, budget, detail=""):
    print(f"\nPASS {name}: {detail} ({elapsed:.2f}s, budget {budget:.0f}s)")


REGRESSION_OPT = OptimizerConfig(
    learning_rate=0.05, momentum=0.9, lr_period_epochs=40,
    default_penalty=0.1, warmup_steps=8, project_start_step=8,
    salience_cos_weight=0.25, salience_mag_weight=0.75)


def train_reg(problem, k, seed):
    data = gen_synthetic_regression(problem, seed)
    cfg = dataclasses.replace(REGRESSION_OPT, mode="dhspg", target_zero_groups=k)
    opt = train_regression(data, cfg, epochs=40, batch_size=64, seed=seed + 1)
    return data, opt


def test_criterion_1_golden_partition():
    t0 = time.time()
    part = partition(demo_net())
    assert [c.stem_ids for c in part.components] == [[0], [3, 4], [], [13], [15]]
    assert part.widths == [16, 16, 0, 32, 0]
    assert {e.component_id: e.reason for e in part.excluded} == {4: "output-adjacent"}
    groups = {ci: [z for z in part.zigs if z.component_id == ci] for ci in (0, 1, 3)}
    for j, z in enumerate(groups[0]):
        assert z.slices == [
            ParamSlice(0, "weight_row", j, j + 1), ParamSlice(0, "bias", j, j + 1),
            ParamSlice(1, "gamma", j, j + 1), ParamSlice(1, "beta", j, j + 1),
            ParamSlice(10, "gamma", j, j + 1), ParamSlice(10, "beta", j, j + 1),
        ]
    for j, z in enumerate(groups[1]):
        assert z.slices == [
            ParamSlice(3, "weight_row", j, j + 1), ParamSlice(3, "bias", j, j + 1),
            ParamSlice(4, "weight_row", j, j + 1), ParamSlice(4, "bias", j, j + 1),
            ParamSlice(6, "gamma", j, j + 1), ParamSlice(6, "beta", j, j + 1),
            ParamSlice(7, "gamma", j, j + 1), ParamSlice(7, "beta", j, j + 1),
            ParamSlice(10, "gamma", 16 + j, 17 + j),
            ParamSlice(10, "beta", 16 + j, 17 + j),
        ]
    for j, z in enumerate(groups[3]):
        assert z.slices == [ParamSlice(13, "weight_row", j, j + 1),
                            ParamSlice(13, "bias", j, j + 1)]
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report("criterion-1 golden-partition", elapsed, 1,
           "64 groups, classifier head excluded, exact structural match")


def test_criterion_2_output_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(20)
    worst = 0.0
    for name, make in sorted(BUILDERS.items()):
        for _ in range(100):
            g = randomized(make(seed=int(rng.integers(1 << 30))), rng)
            part = partition(g)
            for i in random_mask_ids(part, rng):
                zero_group(g, part.zigs[i])
            small, _ = compress(g, part)
            rep = verify_equivalence(g, small, n_trials=2, tol=1e-9, rng=rng)
            worst = max(worst, rep["max_abs_diff"])
            assert rep["passed"], (name, rep)
    elapsed = time.time() - t0
    assert elapsed < 120
    report("criterion-2 output-equivalence", elapsed, 120,
           f"3 builders x 100 parameterizations, max |diff| {worst:.2e} < 1e-9")


def test_criterion_3_exact_sparsity_control():
    t0 = time.time()
    problem = GroupSparseProblem(n_samples=500, n_groups=10, group_size=5,
                                 support_size=4, noise=0.01)
    for k in (2, 4, 6):
        for seed in (0, 1, 2):
            _, opt = train_reg(problem, k, seed)
            assert opt.zero_group_count() == k, (k, seed)
    sweep = run_ablation_dhspg_vs_hspg(problem, [1e-3, 1e-2, 1e-1, 1e0, 1e1],
                                       target_zero_groups=4, seed=0,
                                       epochs=40, batch_size=64,
                                       opt_base=REGRESSION_OPT)
    hspg_levels = {r["zero_groups"] for r in sweep["rows"] if r["method"] == "hspg"}
    assert len(hspg_levels) >= 2
    elapsed = time.time() - t0
    assert elapsed < 300
    report("criterion-3 exact-sparsity-control", elapsed, 300,
           f"K in (2,4,6) x 3 seeds exact; sweep sparsity levels {sorted(hspg_levels)}")


def test_criterion_4_oracle_recovery():
    # exact-count training must zero precisely the off-support groups and
    # land within 5% of the support-restricted least-squares objective;
    # checked for both (support 4, K 6) and (support 6, K 4)
    t0 = time.time()
    details = []
    for support_size, k in ((4, 6), (6, 4)):
        problem = GroupSparseProblem(n_samples=500, n_groups=10, group_size=5,
                                     support_size=support_size, noise=0.01)
        data, opt = train_reg(problem, k, seed=0)
        zeros = opt.zero_group_ids()
        support = sorted(set(range(problem.n_groups)) - set(zeros))
        assert support == data.support, (support_size, k)
        obj = data.objective(opt.x)
        assert obj <= 1.05 * data.oracle_objective, (support_size, k, obj)
        details.append(f"|S*|={support_size}: obj/oracle={obj / data.oracle_objective:.3f}")
    elapsed = time.time() - t0
    assert elapsed < 300
    report("criterion-4 oracle-recovery", elapsed, 300, "; ".join(details))


def test_criterion_5_lemma_suite():
    t0 = time.time()
    results = run_lemma_probes(default_probe(), trials=100, seed=0)
    for name, r in results.items():
        assert r["passed"], r
    assert results["norm_update_identity"]["max_violation"] < 1e-10
    elapsed = time.time() - t0
    assert elapsed < 60
    report("criterion-5 lemma-suite", elapsed, 60,
           "descent, magnitude, identity (<1e-10), contraction all hold x100")


def test_criterion_6_gradient_correctness():
    t0 = time.time()
    worst = worst_ratio = 0.0
    for name in sorted(BUILDERS):
        for loss in ("cross_entropy", "mse"):
            g = BUILDERS[name](seed=21)
            err, ratio = finite_difference_check(g, loss, n_coords=50, seed=22)
            worst = max(worst, err)
            worst_ratio = max(worst_ratio, ratio)
            assert err < 1e-5, (name, loss, err)
    elapsed = time.time() - t0
    assert elapsed < 120
    report("criterion-6 gradient-correctness", elapsed, 120,
           f"50 coords x 3 builders x 2 losses, worst rel err {worst:.2e}, "
           f"worst |diff|/allowance {worst_ratio:.2e}")


def _classification_cfg(tmp_path, mode, name):
    return ExperimentConfig(
        graph={"builder": "demo_net"},
        dataset={"kind": "synthetic-classification", "n_train": 8000,
                 "n_test": 2000},
        optimizer=OptimizerConfig(
            learning_rate=0.1, lr_period_epochs=10, mode=mode,
            default_penalty=0.5, penalty_amplify=8.0,
            warmup_steps=126, project_start_step=126,
            salience_cos_weight=0.25, salience_mag_weight=0.75),
        epochs=30, batch_size=128, seed=0,
        target_zero_fraction=0.5 if mode == "dhspg" else None,
        output_dir=str(tmp_path / name),
    )


def test_criterion_7_scaled_compression_run(tmp_path):
    t0 = time.time()
    pruned = run_pipeline(_classification_cfg(tmp_path, "dhspg", "pruned"))
    dense = run_pipeline(_classification_cfg(tmp_path, "sgd", "dense"))
    assert pruned.ok and dense.ok
    flops_ratio = pruned.metrics["flops_ratio"]
    acc_pruned = pruned.metrics["compressed_test_accuracy"]
    acc_dense = dense.metrics["final_test_accuracy"]
    with open(os.path.join(pruned.output_dir, "compression.json"),
              encoding="utf-8") as fh:
        removed = json.load(fh)["removed_groups_per_component"]
    assert flops_ratio <= 0.60, (
        f"flops_ratio {flops_ratio} > 0.60; removed groups per component "
        f"{removed}; zero groups {pruned.metrics['zero_groups']} "
        f"of target {pruned.metrics['target_zero_groups']}")
    assert abs(acc_dense - acc_pruned) <= 0.03, (acc_dense, acc_pruned)
    elapsed = time.time() - t0
    assert elapsed < 1200
    report("criterion-7 scaled-compression-run", elapsed, 1200,
           f"flops {flops_ratio:.1%}, acc pruned {acc_pruned:.3f} "
           f"vs dense {acc_dense:.3f}")


def test_criterion_8_linear_time_partition():
    t0 = time.time()
    time_partition(100)
    t1k = time_partition(1000)
    t10k = time_partition(10000)
    ratio = t10k / max(t1k, 1e-9)
    assert ratio <= 15.0, ratio
    elapsed = time.time() - t0
    assert elapsed < 60
    report("criterion-8 linear-time-partition", elapsed, 60,
           f"t(10k)/t(1k) = {ratio:.1f} <= 15")


def test_criterion_9_runtime_parity():
    t0 = time.time()
    bench = run_runtime_bench(builder="demo_net", epochs=4, n_train=2048,
                              batch_size=128, seed=0, target_fraction=0.5)
    assert bench["ratio"] <= 1.5, bench
    elapsed = time.time() - t0
    assert elapsed < 600
    report("criterion-9 runtime-parity", elapsed, 600,
           f"sparse/SGD epoch-time ratio {bench['ratio']:.2f} <= 1.5")
