"""Shrink-as-you-train against the full-width training loop it replaced.

``reference_train_graph`` is train_graph as it was before it trained a
narrowed copy: every step runs forward and backward on the full graph. Both
loops see the same graph, data and batches; the optimizer must take the same
steps up to rounding.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from zigprune import harness
from zigprune.builders import demo_net, residual_block_net, stacked_unets_mini
from zigprune.compression import compress, detect_zero_groups, group_flops_savings, make_mask
from zigprune.datasets import ClassificationData, minibatches
from zigprune.dhspg import DhspgOptimizer, OptimizerConfig
from zigprune.engine import backward, forward
from zigprune.errors import AllGroupsZeroInComponent
from zigprune.graph import (Conv2d, build_graph, count_flops_params, graph_to_doc,
                            infer_shapes, init_params)
from zigprune.paramvec import ParamIndex
from zigprune.partition import partition, zero_group

from test_compression import group_is_zero


def reference_train_graph(g, part, data, cfg, rng_batches):
    """The full-width loop: scatter the iterate into g, forward and backward
    on g, step on its gradient."""
    index = ParamIndex(g)
    group_idx = [index.group_indices(z) for z in part.zigs]
    n_train = data.x_train.shape[0]
    steps_per_epoch = math.ceil(n_train / cfg.batch_size)
    opt_cfg = dataclasses.replace(cfg.optimizer,
                                  target_zero_groups=harness.resolve_target_groups(part, cfg))
    opt = DhspgOptimizer(index.gather(g), group_idx, opt_cfg,
                         steps_per_epoch=steps_per_epoch,
                         group_components=[z.component_id for z in part.zigs],
                         group_costs=group_flops_savings(g, part))
    rows = []
    for _ in range(cfg.epochs):
        for idx in minibatches(n_train, cfg.batch_size, rng_batches):
            index.scatter(g, opt.x)
            out, cache = forward(g, data.x_train[idx], mode="train")
            _, grads = backward(g, cache, cfg.loss, data.y_train[idx])
            opt.step(index.gather_grads(grads))
        index.scatter(g, opt.x)
        test_loss, _ = harness.evaluate_graph(g, data.x_test, data.y_test, cfg.loss)
        rows.append({"zero_groups": opt.zero_group_count(), "test_loss": test_loss})
    return opt, rows


def one_input_unets():
    """stacked_unets_mini with both arms reading one input, so the
    single-array datasets of train_graph can feed it."""
    doc = graph_to_doc(stacked_unets_mini())
    doc["input_shapes"] = doc["input_shapes"][:1]
    for v in doc["vertices"]:
        v.pop("input", None)
    return infer_shapes(build_graph(doc))


def conv_bn_linear_with_a_zero_group():
    """conv -> BatchNorm -> pool -> linear, no ReLU, with its first group
    zeroed: the zero channel still passes gradient to the BatchNorm shift,
    so plain SGD moves the group off zero. It is zero without being frozen."""
    g = infer_shapes(build_graph({
        "input_shapes": [[1, 3, 8, 8]],
        "vertices": [
            {"id": 0, "op": "conv2d", "kernel": 3, "stride": 1, "padding": 1,
             "in_channels": 3, "out_channels": 4},
            {"id": 1, "op": "batch_norm", "channels": 4},
            {"id": 2, "op": "avg_pool", "kernel": 2, "stride": 2},
            {"id": 3, "op": "flatten"},
            {"id": 4, "op": "linear", "in_features": 64, "out_features": 4},
            {"id": 5, "op": "output"}],
        "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]]}))
    init_params(g, np.random.default_rng(0))
    zero_group(g, partition(g).zigs[0])
    return g


def blobs(g, n_train, n_test, seed):
    """Noise plus a class-dependent mean per input channel, one class per
    output of g."""
    rng = np.random.default_rng(seed)
    n_classes = g.vertices[g.preds[g.output_id][0]].out_shape[1]
    shape = g.input_shapes[0][1:]
    means = rng.normal(size=(n_classes, shape[0]))

    def draw(n):
        y = rng.integers(0, n_classes, size=n)
        return rng.normal(size=(n, *shape)) + 0.5 * means[y][:, :, None, None], y

    return ClassificationData(*draw(n_train), *draw(n_test), n_classes)


# name: (graph, mode, target fraction, penalty, epochs, n_train, batch, seed).
# Each run freezes groups over more than one epoch, so the copy is rebuilt
# more than once; the hspg run narrows at epoch 2 and at epoch 3 freezes a
# whole component.
CASES = {
    "demo_net": (demo_net, "dhspg", 0.25, 1.0, 6, 512, 64, 0),
    "residual_block_net": (residual_block_net, "dhspg", 0.3, 2.0, 8, 256, 32, 0),
    "stacked_unets_mini": (one_input_unets, "dhspg", 0.3, 2.0, 7, 256, 32, 0),
    "residual_block_net-hspg": (residual_block_net, "hspg", 0.0, 2.0, 4, 256, 32, 4),
    "sgd": (conv_bn_linear_with_a_zero_group, "sgd", 0.0, 2.0, 3, 256, 32, 0),
}


def run(trainer, case, monkeypatch):
    make, mode, fraction, penalty, epochs, n_train, batch, seed = CASES[case]
    g = make()
    part = partition(g)
    data = blobs(g, n_train, 64, seed)
    cfg = harness.ExperimentConfig(
        optimizer=OptimizerConfig(learning_rate=0.1, lr_period_epochs=100,
                                  default_penalty=penalty, global_penalty=penalty,
                                  penalty_amplify=16.0, warmup_steps=8,
                                  project_start_step=8, salience_cos_weight=0.0,
                                  salience_mag_weight=1.0, mode=mode),
        epochs=epochs, batch_size=batch, seed=seed, target_zero_fraction=fraction)
    froze_at: dict[int, int] = {}
    evals = []
    step, evaluate = DhspgOptimizer.step, harness.evaluate_graph

    def recording_step(self, grad):
        step(self, grad)
        for i in np.flatnonzero(self.frozen):
            froze_at.setdefault(int(i), self.t)

    def counting_evaluate(*args, **kwargs):
        evals.append(args[0])
        return evaluate(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(DhspgOptimizer, "step", recording_step)
        m.setattr(harness, "evaluate_graph", counting_evaluate)
        opt, rows = trainer(g, part, data, cfg, np.random.default_rng(seed))
    return SimpleNamespace(g=g, part=part, opt=opt, rows=rows, froze_at=froze_at,
                           evals=evals, epochs=epochs)


def dead_columns(g, part, frozen: set[int]):
    """(vertex, weight columns) fed by the channels of the given groups."""
    out = []
    for vid in g.topo_order:
        vx = g.vertices[vid]
        if vx.category != "stem" or vid in g.input_binding:
            continue
        fed = part.channel_groups[g.preds[vid][0]]
        per = vx.kind.kernel ** 2 if isinstance(vx.kind, Conv2d) else 1
        cols = [c * per + j for c, gi in enumerate(fed) if gi in frozen for j in range(per)]
        if cols:
            out.append((vid, cols))
    return out


def assert_same_training(ref, new):
    opt = new.opt
    frozen = set(np.flatnonzero(opt.frozen).tolist())
    assert frozen, "nothing froze: the run never narrows"
    assert opt.penalized.tolist() == ref.opt.penalized.tolist()
    assert opt.frozen.tolist() == ref.opt.frozen.tolist()
    assert new.froze_at == ref.froze_at
    assert [r["zero_groups"] for r in new.rows] == [r["zero_groups"] for r in ref.rows]
    assert np.abs(opt.x - ref.opt.x).max() <= 1e-10
    for got, want in zip(new.rows, ref.rows):
        assert abs(got["test_loss"] - want["test_loss"]) <= 1e-10
    assert np.array_equal(ParamIndex(new.g).gather(new.g), opt.x)
    assert not opt.x[opt.idx[opt.frozen[opt.seg]]].any()

    cols = dead_columns(new.g, new.part, frozen)
    assert any(new.g.vertices[vid].params.weight[:, c].any() for vid, c in cols)
    for vid, c in cols:
        got = new.g.vertices[vid].params.weight[:, c]
        want = ref.g.vertices[vid].params.weight[:, c]
        assert np.abs(got - want).max() <= 1e-10, vid

    n_bn = 0
    for vid, vx in new.g.vertices.items():
        if vx.params is None or vx.params.running_mean is None:
            continue
        live = [k for k, gi in enumerate(new.part.channel_groups[vid]) if gi not in frozen]
        for role in ("running_mean", "running_var"):
            got = getattr(vx.params, role)[live]
            want = getattr(ref.g.vertices[vid].params, role)[live]
            assert np.abs(got - want).max(initial=0.0) <= 1e-10, (vid, role)
        n_bn += 1
    assert n_bn

    assert len(new.evals) == new.epochs
    flops = [r["train_flops"] for r in new.rows]
    assert flops[0] == count_flops_params(new.g)[0]
    assert all(b <= a for a, b in zip(flops, flops[1:])), flops
    assert flops[-1] < flops[0]
    assert count_flops_params(new.evals[-1])[0] == flops[-1]


@pytest.mark.parametrize("case", ["demo_net", "residual_block_net", "stacked_unets_mini"])
def test_shrinking_matches_full_width_reference(case, monkeypatch):
    ref = run(reference_train_graph, case, monkeypatch)
    new = run(harness.train_graph, case, monkeypatch)
    assert_same_training(ref, new)
    frozen = np.flatnonzero(new.opt.frozen).tolist()
    small, _ = compress(new.g, new.part, make_mask(new.part, frozen))
    assert count_flops_params(small)[0] <= new.rows[-1]["train_flops"]


def test_frozen_set_that_empties_a_component_keeps_the_width(monkeypatch):
    # hspg freezes every group that leaves its half-space, with no floor
    ref = run(reference_train_graph, "residual_block_net-hspg", monkeypatch)
    new = run(harness.train_graph, "residual_block_net-hspg", monkeypatch)
    assert_same_training(ref, new)
    with pytest.raises(AllGroupsZeroInComponent):
        make_mask(new.part, np.flatnonzero(new.opt.frozen).tolist())
    flops = [r["train_flops"] for r in new.rows]
    assert flops[0] > flops[2] == flops[3]
    # surgery fails where it failed at full width
    for g in (ref.g, new.g):
        with pytest.raises(AllGroupsZeroInComponent):
            compress(g, new.part)


def test_sgd_run_is_bit_identical_to_full_width(monkeypatch):
    # only frozen groups are removed: a zero group that sgd moves stays in
    ref = run(reference_train_graph, "sgd", monkeypatch)
    new = run(harness.train_graph, "sgd", monkeypatch)
    assert detect_zero_groups(CASES["sgd"][0](), new.part).zero_flags[0]
    assert not group_is_zero(new.g, new.part.zigs[0])
    assert np.array_equal(new.opt.x, ref.opt.x)
    for vid, vx in new.g.vertices.items():
        if vx.params is not None and vx.params.running_mean is not None:
            assert np.array_equal(vx.params.running_mean, ref.g.vertices[vid].params.running_mean)
            assert np.array_equal(vx.params.running_var, ref.g.vertices[vid].params.running_var)
    assert [r["test_loss"] for r in new.rows] == [r["test_loss"] for r in ref.rows]
    assert {r["train_flops"] for r in new.rows} == {count_flops_params(new.g)[0]}


def test_narrowed_copy_prunes_once(monkeypatch):
    """A rebuild prunes g once, with each coordinate tagged by its flat
    position; the copy then takes x[keep], and g is left holding x."""
    g = demo_net(seed=5)
    part = partition(g)
    index = ParamIndex(g)
    x = np.random.default_rng(6).normal(size=index.size)
    frozen = [i for i, z in enumerate(part.zigs)
              if z.group_index == 0 and part.widths[z.component_id] > 1]
    calls = []
    prune = harness.prune

    def counting_prune(*args):
        calls.append(args)
        return prune(*args)

    monkeypatch.setattr(harness, "prune", counting_prune)
    result = harness._narrowed_copy(g, part, index, x, frozen)
    assert len(calls) == 1
    small, maps, keep, small_index = result
    assert np.array_equal(small_index.gather(small), x[keep])
    assert np.array_equal(index.gather(g), x)
    want = prune(g, make_mask(part, frozen), maps)
    assert np.array_equal(ParamIndex(want).gather(want), x[keep])
    assert count_flops_params(small)[0] < count_flops_params(g)[0]
