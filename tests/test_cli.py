import json
import os

import pytest

from zigprune.builders import demo_net
from zigprune.cli import main
from zigprune.graph import save_graph


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "graph.json"
    save_graph(demo_net(seed=4), str(path))
    return str(path)


@pytest.fixture()
def exp_file(tmp_path):
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
    return str(path)


def test_partition_command(graph_file, tmp_path, capsys):
    out = tmp_path / "part.json"
    assert main(["partition", graph_file, "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert len(doc["groups"]) == 64
    assert doc["excluded_components"][0]["reason"] == "output-adjacent"


def test_viz_command(graph_file, capsys):
    assert main(["viz", graph_file]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph") and "fillcolor" in dot


def test_viz_with_partition_file(graph_file, tmp_path, capsys):
    part_file = tmp_path / "p.json"
    main(["partition", graph_file, "--out", str(part_file)])
    capsys.readouterr()
    assert main(["viz", graph_file, "--partition", str(part_file)]) == 0
    assert "digraph" in capsys.readouterr().out


def test_train_compress_eval_report_cycle(exp_file, tmp_path, capsys):
    assert main(["train", exp_file]) == 0
    run_dir = str(tmp_path / "run")
    assert os.path.exists(os.path.join(run_dir, "metrics.json"))
    capsys.readouterr()

    assert main(["compress", run_dir]) == 0
    assert main(["eval", run_dir]) == 0
    capsys.readouterr()
    assert main(["report", run_dir]) == 0
    out = capsys.readouterr().out
    assert "FLOPs" in out and "equivalence" in out
    assert "trained narrowed from epoch" in out and "relative" in out


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


def test_probes_command(capsys):
    assert main(["probes", "--trials", "40"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 4


def test_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": [{"id": 0, "op": "nope"}]}),
                   encoding="utf-8")
    assert main(["partition", str(bad)]) == 2
