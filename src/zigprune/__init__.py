"""zigprune: train-once structured pruning toolkit.

Pipeline: partition a computation graph's parameters into zero-invariant
groups via dependency analysis, train with the dual half-space projected
gradient optimizer to drive a chosen number of groups to exact zero, then
rebuild a smaller graph with identical eval-mode outputs.
"""

from .builders import demo_net, residual_block_net, stacked_unets_mini
from .compression import (
    PruneMask,
    build_channel_maps,
    compress,
    detect_zero_groups,
    group_flops_savings,
    make_mask,
    prune,
    verify_equivalence,
)
from .dhspg import DhspgOptimizer, OptimizerConfig
from .engine import accuracy, backward, evaluate_loss, forward
from .harness import ExperimentConfig, run_ablation_dhspg_vs_hspg, run_pipeline
from .paramvec import ParamIndex
from .probes import QuadraticProbe, default_probe, run_lemma_probes
from .graph import (
    ComputationGraph,
    ParameterSet,
    Vertex,
    build_graph,
    count_flops_params,
    export_dot,
    graph_to_doc,
    infer_shapes,
    init_params,
    load_graph,
    save_graph,
)
from .partition import (
    PartitionResult,
    ZeroInvariantGroup,
    dependency_components,
    form_zigs,
    partition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
