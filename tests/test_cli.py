import json
import os
import re
import shutil

import pytest

from zigprune.builders import demo_net
from zigprune.cli import main
from zigprune.compression import detect_zero_groups
from zigprune.graph import graph_to_doc, load_graph, save_graph
from zigprune.partition import partition, zero_group


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "graph.json"
    save_graph(demo_net(seed=4), str(path))
    return str(path)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A run directory written by ``zigprune train``, and its exit code."""
    tmp_path = tmp_path_factory.mktemp("cli")
    doc = {
        "graph": {"builder": "demo_net"},
        "dataset": {"kind": "synthetic-classification",
                    "n_train": 1024, "n_test": 128},
        "optimizer": {"learning_rate": 0.1, "lr_period_epochs": 100,
                      "default_penalty": 1.0, "penalty_amplify": 16.0,
                      "warmup_steps": 16, "project_start_step": 16,
                      "salience_cos_weight": 0.0, "salience_mag_weight": 1.0},
        "epochs": 8,
        "batch_size": 64,
        "seed": 0,
        "target_zero_fraction": 0.25,
        "output_dir": str(tmp_path / "run"),
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["train", str(path)])
    return str(tmp_path / "run"), code


def test_partition_command(graph_file, tmp_path, capsys):
    out = tmp_path / "part.json"
    assert main(["partition", graph_file, "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert len(doc["groups"]) == 64
    assert doc["excluded_components"][0]["reason"] == "output-adjacent"


def test_viz_command(graph_file, capsys):
    """Each component of the graph's partition gets one fill colour."""
    assert main(["viz", graph_file]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph")
    fill = dict(re.findall(r'^  n(\d+) \[.*fillcolor="(#\w+)"', dot, re.MULTILINE))
    components = partition(load_graph(graph_file)).to_doc()["components"]
    assert components
    for comp in components:
        assert len({fill[str(v)] for v in comp["vertices"]}) == 1, comp["id"]


def test_train_compress_eval_report_cycle(trained_run, tmp_path, capsys):
    src, code = trained_run
    assert code == 0
    run_dir = str(tmp_path / "run")
    shutil.copytree(src, run_dir)
    assert os.path.exists(os.path.join(run_dir, "metrics.json"))

    assert main(["compress", run_dir]) == 0
    assert main(["eval", run_dir]) == 0
    capsys.readouterr()
    assert main(["report", run_dir]) == 0
    out = capsys.readouterr().out
    assert "FLOPs" in out and "equivalence" in out
    assert "trained narrowed from epoch" in out and "relative" in out


def test_compress_rewrites_compression_record(trained_run, tmp_path):
    # zero one more surviving group by hand: compress must count it removed
    run_dir = str(tmp_path / "run")
    shutil.copytree(trained_run[0], run_dir)
    full_path = os.path.join(run_dir, "graph_full.json")
    g = load_graph(full_path)
    part = partition(g)
    survivors = detect_zero_groups(g, part).survivors
    ci = next(ci for ci, kept in survivors.items() if len(kept) >= 2)
    zero_group(g, next(z for z in part.zigs
                        if z.component_id == ci and z.group_index == survivors[ci][0]))
    save_graph(g, full_path)
    record = os.path.join(run_dir, "compression.json")
    with open(record, encoding="utf-8") as fh:
        before = json.load(fh)["removed_groups_per_component"]

    assert main(["compress", run_dir]) == 0
    with open(record, encoding="utf-8") as fh:
        after = json.load(fh)["removed_groups_per_component"]
    assert after == {**before, str(ci): before[str(ci)] + 1}


def test_ablate_command(tmp_path, capsys):
    doc = {
        "dataset": {"kind": "synthetic-regression", "n_samples": 300,
                    "n_groups": 8, "group_size": 4, "support_size": 3,
                    "noise": 0.01, "lambda_sweep": [0.0, 1.0]},
        "optimizer": {"learning_rate": 0.05, "lr_period_epochs": 25,
                      "default_penalty": 0.1, "target_zero_groups": 3},
        "epochs": 25,
        "batch_size": 64,
        "seed": 5,
        "output_dir": str(tmp_path / "ablate"),
    }
    path = tmp_path / "ab.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["ablate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "dhspg" in out and "hspg" in out and "oracle" in out
    table = json.loads((tmp_path / "ablate" / "ablation.json").read_text())
    assert table["rows"][0]["zero_groups"] == 3


@pytest.mark.parametrize("dataset, named", [
    ({"kind": "synthetic-regression", "n_sampels": 300}, "n_sampels"),
    ({"kind": "synthetic-classification"}, "synthetic-regression"),
    ({"kind": "synthetic-regression", "n_groups": "10"}, "'n_groups'"),
    ({"kind": "synthetic-regression", "lambda_sweep": "x"}, "'lambda_sweep'"),
])
def test_ablate_rejects_a_bad_dataset_with_a_config_error(tmp_path, capsys, dataset, named):
    path = tmp_path / "ab.json"
    path.write_text(json.dumps({"dataset": dataset, "output_dir": str(tmp_path / "ablate")}), encoding="utf-8")
    assert main(["ablate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not os.path.exists(tmp_path / "ablate")


def test_probes_command(capsys):
    assert main(["probes", "--trials", "40"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 4


def test_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": [{"id": 0, "op": "nope"}]}),
                   encoding="utf-8")
    assert main(["partition", str(bad)]) == 2


def test_partition_rejects_a_non_finite_parameter(graph_file, tmp_path, capsys):
    with open(graph_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    for value in (float("nan"), 10**400):
        doc["vertices"][0]["params"]["bias"][0] = value
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["partition", str(bad)]) == 2
        assert "vertex 0: parameter 'bias'" in capsys.readouterr().err


@pytest.mark.parametrize("trials", [0, -3, 2.5])
def test_train_rejects_equivalence_trials_below_one(tmp_path, trials, capsys):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"equivalence_trials": trials,
                                "output_dir": str(tmp_path / "run")}), encoding="utf-8")
    assert main(["train", str(path)]) == 2
    assert "equivalence_trials" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


def test_train_accepts_zero_epochs(tmp_path, monkeypatch):
    monkeypatch.delenv("ZIGPRUNE_SEED", raising=False)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "epochs": 0, "equivalence_trials": 4, "output_dir": str(tmp_path / "run"),
        "dataset": {"kind": "synthetic-classification", "n_train": 32, "n_test": 16},
    }), encoding="utf-8")
    assert main(["train", str(path)]) == 0


@pytest.mark.parametrize("doc, env_seed, needle", [
    ({}, "1.5", "ZIGPRUNE_SEED"),
    ({}, "--5", "ZIGPRUNE_SEED"),
    ({"batch_size": 0}, None, "batch_size"),
    ({"dataset": {"kind": "synthetic-classification", "n_trian": 64}}, None, "n_trian"),
    ({"dataset": {"kind": "image-csv"}}, None, "'dir'"),
    ({"seed": 1.5}, None, "seed"),
    ({"epochs": "3"}, None, "epochs"),
    ({"dataset": {"kind": "synthetic-classification", "n_train": -5}}, None, "n_train"),
    ({"graph": {"path": "no_such_graph.json"}}, None, "no_such_graph.json"),
    ({"loss": "hinge"}, None, "'loss'"),
    ({"target_zero_fraction": "0.5"}, None, "'target_zero_fraction'"),
    ({"dataset": {"kind": "synthetic-classification", "noise": "x"}}, None, "'noise'"),
    ({"dataset": {"kind": "synthetic-classification", "image": 5}}, None, "'image'"),
    ({"optimizer": {"learning_rate": "x"}}, None, "'learning_rate'"),
    ({"optimizer": {"momentum": "0.9"}}, None, "'momentum'"),
    ({"optimizer": {"lr_period_epochs": 0}}, None, "'lr_period_epochs'"),
    ({"equivalence_tol": "x"}, None, "'equivalence_tol'"),
    ({"output_dir": 5}, None, "'output_dir'"),
    ({"graph": 5}, None, "'graph'"),
    ({"dataset": {"kind": "image-csv", "dir": 5}}, None, "'dir'"),
    ({"optimizer": {"penalty_amplify": "big"}}, None, "'penalty_amplify'"),
    ({"optimizer": {"salience_cos_weight": None}}, None, "'salience_cos_weight'"),
    ({"optimizer": {"warmup_steps": -3}}, None, "'warmup_steps'"),
    ({"equivalence_tol": -1}, None, "'equivalence_tol'"),
    ({"graph": {"path": 5}}, None, "'path'"),
    ({"optimizer": {"warmup_steps": 500}}, None, "'warmup_steps'"),
    ({"loss": "mse"}, None, "'loss' 'mse'"),
    ({"graph": {"builder": "demo_net", "path": "no_such_graph.json"}, "epochs": 0,
      "dataset": {"kind": "synthetic-classification", "n_train": 32, "n_test": 16}},
     None, "exactly one of 'builder' and 'path'"),
], ids=["seed", "seed_two_signs", "batch_size", "synthetic_key", "csv_dir", "config_seed",
        "epochs", "negative_n_train", "graph_path", "loss", "fraction_str", "noise_str",
        "image_int", "lr_str", "momentum_str", "lr_period_zero", "tol_str", "output_dir_int",
        "graph_int", "csv_dir_int", "amplify_str", "salience_null", "negative_warmup",
        "negative_tol", "graph_path_int", "warmup_after_default_projection", "mse_loss",
        "builder_and_path"])
def test_train_rejects_bad_outside_config(tmp_path, monkeypatch, capsys, doc, env_seed,
                                          needle):
    if env_seed is None:
        monkeypatch.delenv("ZIGPRUNE_SEED", raising=False)
    else:
        monkeypatch.setenv("ZIGPRUNE_SEED", env_seed)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"output_dir": str(tmp_path / "run"), **doc}),
                    encoding="utf-8")
    assert main(["train", str(path)]) == 2
    assert needle in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["exp.json"]


def test_train_rejects_a_graph_file_that_is_not_json(tmp_path, capsys):
    graph = tmp_path / "graph.json"
    graph.write_text("not json", encoding="utf-8")
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"graph": {"path": str(graph)},
                                "output_dir": str(tmp_path / "run")}), encoding="utf-8")
    assert main(["train", str(path)]) == 2
    assert "graph.json" in capsys.readouterr().err


def test_train_rejects_a_graph_file_without_weights(tmp_path, monkeypatch, capsys):
    """A graph file must hold the weights it trains from: without them every
    conv and linear weight would start at zero."""
    monkeypatch.delenv("ZIGPRUNE_SEED", raising=False)
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(graph_to_doc(demo_net(), include_params=False)),
                     encoding="utf-8")
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "graph": {"path": str(graph)}, "epochs": 2, "output_dir": str(tmp_path / "run"),
        "dataset": {"kind": "synthetic-classification", "n_train": 64, "n_test": 64},
    }), encoding="utf-8")
    assert main(["train", str(path)]) == 2
    assert "vertex 0 (conv2d) gives no 'weight'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


LINEAR_4 = {"op": "linear", "in_features": 4, "out_features": 4}
# Graph documents the IR rejects, and what the error names.
REJECTED_GRAPHS = {
    "pool_on_rank_2": ({"input_shapes": [[1, 4]],
                        "vertices": [{"id": 0, **LINEAR_4},
                                     {"id": 1, "op": "avg_pool", "kernel": 2, "stride": 1},
                                     {"id": 2, "op": "output"}],
                        "edges": [[0, 1], [1, 2]]},
                       "vertex 1: avg_pool needs a rank-4 input"),
    "linear_on_rank_4": ({"input_shapes": [[1, 3, 4, 4]],
                          "vertices": [{"id": 0, **LINEAR_4}, {"id": 1, "op": "output"}],
                          "edges": [[0, 1]]},
                         "vertex 0: linear needs a rank-2 input"),
    "no_vertices": ({"input_shapes": [[1, 4]], "vertices": [], "edges": []},
                    "a graph needs at least one vertex"),
}


@pytest.mark.parametrize("name", list(REJECTED_GRAPHS))
def test_graph_file_the_ir_rejects_exits_2(tmp_path, monkeypatch, capsys, name):
    """partition and train exit 2 naming the fault; train makes no run directory."""
    monkeypatch.delenv("ZIGPRUNE_SEED", raising=False)
    doc, needle = REJECTED_GRAPHS[name]
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(doc), encoding="utf-8")
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "graph": {"path": str(graph)}, "epochs": 2, "output_dir": str(tmp_path / "run"),
        "dataset": {"kind": "synthetic-classification", "n_train": 64, "n_test": 64},
    }), encoding="utf-8")
    for argv in (["partition", str(graph)], ["train", str(path)]):
        assert main(argv) == 2
        assert needle in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


# Each command and the outside JSON file it reads: "{f}" is that file, "{d}"
# the run directory holding it.
READS = {
    "partition": (["partition", "{f}"], "graph.json"),
    "viz": (["viz", "{f}"], "graph.json"),
    "train": (["train", "{f}"], "exp.json"),
    "ablate": (["ablate", "{f}"], "exp.json"),
    "compress": (["compress", "{d}"], "config.json"),
    "eval": (["eval", "{d}"], "config.json"),
    "report": (["report", "{d}"], "metrics.json"),
}


@pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "not_json"])
@pytest.mark.parametrize("command", list(READS))
def test_unreadable_json_file_exits_2_naming_it(tmp_path, capsys, command, content):
    argv, name = READS[command]
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    path = run_dir / name
    if content is not None:
        path.write_text(content, encoding="utf-8")
    assert main([a.format(f=path, d=run_dir) for a in argv]) == 2
    assert repr(str(path)) in capsys.readouterr().err


def write_csv_run(tmp_path, train_rows, test_rows):
    """An experiment file training a 4-output linear graph on 2x2 image-csv
    files holding the given rows; a rows value of None leaves its file out,
    and bytes are written as they are."""
    (tmp_path / "graph.json").write_text(json.dumps({
        "input_shapes": [[1, 1, 2, 2]],
        "vertices": [{"id": 0, "op": "flatten"},
                     {"id": 1, "op": "linear", "in_features": 4, "out_features": 4,
                      "params": {"weight": [[float(i == j) for j in range(4)]
                                            for i in range(4)]}},
                     {"id": 2, "op": "output"}],
        "edges": [[0, 1], [1, 2]]}), encoding="utf-8")
    data = tmp_path / "data"
    data.mkdir()
    for name, rows in (("train.csv", train_rows), ("test.csv", test_rows)):
        if isinstance(rows, bytes):
            (data / name).write_bytes(rows)
        elif rows is not None:
            (data / name).write_text("".join(f"{r},1,2,3,4\n" for r in rows), encoding="utf-8")
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "graph": {"path": str(tmp_path / "graph.json")},
        "dataset": {"kind": "image-csv", "dir": str(data)},
        "epochs": 1, "batch_size": 2, "output_dir": str(tmp_path / "run")}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("test_rows, needle", [
    (None, "test.csv"),
    (b"0,1,2,3,4\n\xff\xfe,1,2,3,4\n", "test.csv"),
    ([0, 4], "config 'dataset' has 5 classes, more than the 4 outputs"),
], ids=["missing", "not_utf8", "label_beyond_outputs"])
def test_train_rejects_image_csv_files_the_graph_cannot_train_on(tmp_path, monkeypatch,
                                                                   capsys, test_rows, needle):
    monkeypatch.delenv("ZIGPRUNE_SEED", raising=False)
    assert main(["train", write_csv_run(tmp_path, [0, 1, 2, 3], test_rows)]) == 2
    assert needle in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


def test_train_accepts_image_csv_labels_within_the_outputs(tmp_path, monkeypatch):
    monkeypatch.delenv("ZIGPRUNE_SEED", raising=False)
    assert main(["train", write_csv_run(tmp_path, [0, 1, 2, 3], [3, 0])]) == 0


@pytest.mark.parametrize("edit, needle", [
    (lambda m: [1, 2], "metrics must be a dict, got [1, 2]"),
    (lambda m: {"flops_full": 1}, "metrics 'params_full' is required"),
    (lambda m: {**m, "flops_ratio": "x"}, "metrics 'flops_ratio'"),
    (lambda m: {**m, "equivalence": {**m["equivalence"], "max_abs_diff": None}},
     "metrics 'equivalence' 'max_abs_diff'"),
    (lambda m: {**m, "epochs": [{k: v for k, v in m["epochs"][0].items() if k != "epoch"}]},
     "metrics 'epochs'[0] 'epoch' is required"),
    (lambda m: {**m, "epochs": [{**m["epochs"][0], "train_flops": 1.5}]},
     "metrics 'epochs'[0] 'train_flops'"),
], ids=["list", "one_key", "ratio_str", "diff_null", "row_without_epoch", "float_flops"])
def test_report_rejects_a_bad_metrics_document(trained_run, tmp_path, capsys, edit, needle):
    run_dir = tmp_path / "run"
    shutil.copytree(trained_run[0], run_dir)
    metrics = run_dir / "metrics.json"
    metrics.write_text(json.dumps(edit(json.loads(metrics.read_text(encoding="utf-8")))),
                       encoding="utf-8")
    assert main(["report", str(run_dir)]) == 2
    assert needle in capsys.readouterr().err
