"""Command-line entry points.

    zigprune partition <graph.json>              emit the group partition
    zigprune train <exp.json>                    full pipeline into a run dir
    zigprune compress <run-dir>                  re-run surgery on a run dir
    zigprune eval <run-dir>                      re-check equivalence + metrics
    zigprune viz <graph.json>                    DOT to stdout
    zigprune report <run-dir>                    summarize metrics.json
    zigprune ablate <exp.json>                   exact-count vs coefficient sweep
    zigprune probes                              numeric property probes

The ZIGPRUNE_SEED environment variable overrides the config seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .datasets import GroupSparseProblem, dataset_spec
from .errors import ConfigError, ZigpruneError, read_json, write_json
from .graph import export_dot, load_graph
from .harness import (
    ExperimentConfig,
    build_dataset,
    check_equivalence,
    check_metrics,
    compress_and_verify,
    evaluate_graph,
    rng_streams,
    run_ablation_dhspg_vs_hspg,
    run_pipeline,
)
from .partition import partition
from .probes import default_probe, run_lemma_probes


def _load_run_config(run_dir: str) -> ExperimentConfig:
    return ExperimentConfig.from_doc(read_json(os.path.join(run_dir, "config.json"), "config"))


def cmd_partition(args) -> int:
    g = load_graph(args.graph)
    doc = partition(g).to_doc()
    if args.out:
        write_json(args.out, doc)
    else:
        print(json.dumps(doc, indent=1))
    return 0


def cmd_train(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    result = run_pipeline(cfg)
    m = result.metrics
    print(f"run dir: {result.output_dir}")
    print(f"flops {m['flops_ratio']:.1%} of dense, params {m['params_ratio']:.1%}")
    print(f"zero groups {m['zero_groups']} / target {m['target_zero_groups']}"
          f"{'' if m['target_met'] else ' (MISSED)'}")
    print(f"equivalence max |diff| = {m['equivalence']['max_abs_diff']:.3e} "
          f"({'pass' if m['equivalence']['passed'] else 'FAIL'})")
    return 0 if result.ok else 1


def cmd_compress(args) -> int:
    cfg = _load_run_config(args.run_dir)
    g = load_graph(os.path.join(args.run_dir, "graph_full.json"))
    _, mask, _, equiv = compress_and_verify(g, partition(g), cfg, args.run_dir)
    print(f"removed {mask.zero_group_count()} groups; "
          f"max |diff| = {equiv['max_abs_diff']:.3e}")
    return 0 if equiv["passed"] else 1


def cmd_eval(args) -> int:
    cfg = _load_run_config(args.run_dir)
    g = load_graph(os.path.join(args.run_dir, "graph_full.json"))
    small = load_graph(os.path.join(args.run_dir, "graph_compressed.json"))
    equiv = check_equivalence(g, small, cfg)
    data = build_dataset(cfg, rng_streams(cfg.seed)["data"])
    loss_full, acc_full = evaluate_graph(g, data.x_test, data.y_test, cfg.loss)
    loss_small, acc_small = evaluate_graph(small, data.x_test, data.y_test, cfg.loss)
    doc = {"equivalence": equiv,
           "full": {"test_loss": loss_full, "test_accuracy": acc_full},
           "compressed": {"test_loss": loss_small, "test_accuracy": acc_small}}
    write_json(os.path.join(args.run_dir, "eval.json"), doc)
    print(json.dumps(doc, indent=1))
    return 0 if equiv["passed"] else 1


def cmd_viz(args) -> int:
    g = load_graph(args.graph)
    print(export_dot(g, partition(g).coloring()))
    return 0


def cmd_report(args) -> int:
    m = check_metrics(read_json(os.path.join(args.run_dir, "metrics.json"), "metrics"))
    print(f"FLOPs: {m['flops_compressed']} / {m['flops_full']} "
          f"({m['flops_ratio']:.1%})")
    print(f"params: {m['params_compressed']} / {m['params_full']} "
          f"({m['params_ratio']:.1%})")
    print(f"group sparsity: {m['group_sparsity']:.1%} "
          f"({m['zero_groups']} zero groups, target {m['target_zero_groups']})")
    print(f"test accuracy: full {m['final_test_accuracy']:.4f}, "
          f"compressed {m['compressed_test_accuracy']:.4f}")
    print(f"mean epoch seconds: {m['mean_epoch_seconds']:.2f}")
    flops = [row["train_flops"] for row in m["epochs"]]
    narrowed = [row["epoch"] for row in m["epochs"] if row["train_flops"] < m["flops_full"]]
    print(f"trained narrowed from epoch: {narrowed[0] if narrowed else 'never'}; "
          f"mean train FLOPs {sum(flops) / max(len(flops), 1):.0f} of {m['flops_full']}")
    print(f"equivalence: max |diff| {m['equivalence']['max_abs_diff']:.3e} "
          f"(relative {m['equivalence']['max_rel_diff']:.3e}, "
          f"tol {m['equivalence']['tol']:g} absolute)")
    return 0


def cmd_ablate(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    kind, spec = dataset_spec(cfg.dataset)
    if kind != "synthetic-regression":
        raise ConfigError(f"ablate expects a synthetic-regression dataset, got {kind!r}")
    sweep = spec.pop("lambda_sweep", [1e-3, 1e-2, 1e-1, 1e0, 1e1])
    problem = GroupSparseProblem(**spec)
    table = run_ablation_dhspg_vs_hspg(
        problem, sweep, target_zero_groups=cfg.optimizer.target_zero_groups,
        seed=cfg.seed, epochs=cfg.epochs, batch_size=cfg.batch_size,
        opt_base=cfg.optimizer)
    os.makedirs(cfg.output_dir, exist_ok=True)
    write_json(os.path.join(cfg.output_dir, "ablation.json"), table)
    print(f"{'method':8s} {'setting':14s} {'zero groups':>12s} {'objective':>12s}")
    for row in table["rows"]:
        print(f"{row['method']:8s} {row['setting']:14s} "
              f"{row['zero_groups']:12d} {row['objective']:12.6f}")
    print(f"oracle objective: {table['oracle_objective']:.6f} "
          f"(support {table['support']})")
    return 0


def cmd_probes(args) -> int:
    results = run_lemma_probes(default_probe(seed=args.seed),
                               trials=args.trials, seed=args.seed)
    ok = True
    for name, r in results.items():
        status = "pass" if r["passed"] else "FAIL"
        print(f"{status}  {name}: {r['trials']} iterates, "
              f"max violation {r['max_violation']:.3e}, "
              f"{r['resamples']} redraws")
        ok &= r["passed"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="zigprune", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="partition a graph into prunable groups")
    p.add_argument("graph")
    p.add_argument("--out")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("train", help="run the full train/compress pipeline")
    p.add_argument("config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compress", help="rebuild the compressed graph for a run")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("eval", help="re-verify a run's equivalence and metrics")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("viz", help="emit DOT with component coloring")
    p.add_argument("graph")
    p.set_defaults(func=cmd_viz)

    p = sub.add_parser("report", help="print a run's metrics report")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("ablate", help="exact-count control vs coefficient sweep")
    p.add_argument("config")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("probes", help="run the numeric property probes")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_probes)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ZigpruneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
