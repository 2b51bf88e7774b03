"""Spans around zigprune's public functions, for the traced run only.

``Tracer.install`` replaces each listed function or method with a wrapper
that records a span (name, parent span, start, end) in memory, in every
zigprune module namespace that holds it, so calls between zigprune's own
modules are seen too. ``uninstall`` puts the originals back. Nothing under
``src/`` changes.
"""

from __future__ import annotations

import functools
import sys
import time

# zigprune module (the layer) -> the functions wrapped in it; "Class.method"
# names a method.
TARGETS = {
    "datasets": ["gen_synthetic_classification"],
    "graph": ["build_graph", "infer_shapes", "init_params", "count_flops_params",
              "graph_to_doc", "save_graph", "ComputationGraph.joint_input_order"],
    "partition": ["partition"],
    "paramvec": ["ParamIndex.gather", "ParamIndex.scatter", "ParamIndex.gather_grads",
                 "ParamIndex.group_indices"],
    "engine": ["forward", "backward"],
    "dhspg": ["DhspgOptimizer.__init__", "DhspgOptimizer.step"],
    "compression": ["detect_zero_groups", "make_mask", "build_channel_maps", "prune",
                    "compress", "group_flops_savings", "verify_equivalence"],
    "harness": ["run_pipeline", "train_graph", "evaluate_graph", "build_dataset",
                "build_experiment_graph", "write_training_log"],
}
LAYERS = tuple(TARGETS)


def _forward_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "train")
    return f"engine.forward[{mode}]"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, parent index or -1, start, end]
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.last: dict[str, object] = {}  # last object seen per span name

    def _wrap(self, name: str, fn):
        label = _forward_name if name == "engine.forward" else None
        keep = name in ("partition.partition", "dhspg.DhspgOptimizer.step")
        spans, stack, last = self.spans, self._stack, self.last

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [label(args, kwargs) if label else name,
                    stack[-1] if stack else -1, 0.0, 0.0]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if keep:
                last[name] = args[0] if name.endswith("step") else out
            return out

        return wrapper

    def install(self) -> None:
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "zigprune" or n.startswith("zigprune.")]
        for layer, attrs in TARGETS.items():
            module = sys.modules[f"zigprune.{layer}"]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    self._undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", orig))
                    continue
                orig = getattr(module, attr)
                wrapped = self._wrap(f"{layer}.{attr}", orig)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is orig:
                            self._undo.append((ns, key, orig))
                            setattr(ns, key, wrapped)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    # -- reduction --------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= s[3] - s[2]
        return own

    def under(self, idx: int, ancestor: str) -> bool:
        parent = self.spans[idx][1]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][1]
        return False

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer numbers from the recorded spans; see README.md."""
        spans = self.spans
        own = self.self_times()

        def pick(name, outside=None, inside=None):
            return [i for i, s in enumerate(spans) if s[0] == name
                    and (outside is None or not self.under(i, outside))
                    and (inside is None or self.under(i, inside))]

        def total(idxs):
            return sum(spans[i][3] - spans[i][2] for i in idxs)

        def per_call_ms(idxs):
            return 1e3 * total(idxs) / len(idxs) if idxs else 0.0

        savings = "compression.group_flops_savings"
        out: dict[str, float] = {
            "datasets.generate_s": total(pick("datasets.gen_synthetic_classification")),
            "graph.build_s": total(pick("graph.build_graph")
                                   + pick("graph.infer_shapes", outside="compression.prune")),
            "graph.count_flops_params_s": total(pick("graph.count_flops_params")),
            "graph.count_flops_params_calls": len(pick("graph.count_flops_params")),
            "graph.joint_input_order_s": total(pick("graph.ComputationGraph.joint_input_order")),
            "graph.joint_input_order_calls": len(pick("graph.ComputationGraph.joint_input_order")),
            "graph.save_graph_s": total(pick("graph.save_graph")),
            "partition.partition_s": total(pick("partition.partition")),
            "paramvec.scatter_ms": per_call_ms(pick("paramvec.ParamIndex.scatter")),
            "paramvec.gather_grads_ms": per_call_ms(pick("paramvec.ParamIndex.gather_grads")),
            "engine.forward_train_ms": per_call_ms(pick("engine.forward[train]")),
            "engine.backward_ms": per_call_ms(pick("engine.backward")),
            "engine.forward_eval_ms": per_call_ms(pick("engine.forward[eval]")),
            "engine.forward_calls": len(pick("engine.forward[train]"))
                                    + len(pick("engine.forward[eval]")),
            "engine.backward_calls": len(pick("engine.backward")),
            "dhspg.step_ms": per_call_ms(pick("dhspg.DhspgOptimizer.step")),
            "dhspg.steps": len(pick("dhspg.DhspgOptimizer.step")),
            "compression.group_flops_savings_s": total(pick(savings)),
            "compression.savings_prunes": len(pick("compression.prune", inside=savings)),
            "compression.detect_s": total(pick("compression.detect_zero_groups")),
            "compression.channel_maps_s": total(pick("compression.build_channel_maps",
                                                     outside=savings)),
            "compression.prune_s": total(pick("compression.prune", outside=savings)),
            "compression.verify_equivalence_s": total(pick("compression.verify_equivalence")),
            "compression.equivalence_forwards": len(
                pick("engine.forward[eval]", inside="compression.verify_equivalence")),
            "harness.train_graph_s": total(pick("harness.train_graph")),
            "harness.evaluate_graph_s": total(pick("harness.evaluate_graph")),
        }
        part = self.last.get("partition.partition")
        out["partition.groups"] = len(part.zigs) if part else 0
        out["partition.components"] = sum(1 for w in part.widths if w) if part else 0
        opt = self.last.get("dhspg.DhspgOptimizer.step")
        out["dhspg.zero_groups"] = opt.zero_group_count() if opt else 0
        out["dhspg.target_zero_groups"] = opt.cfg.target_zero_groups if opt else 0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for s, t in zip(spans, own):
            out[f"{s[0].split('.')[0]}.self_s"] += t
        out["bench.self_s"] = wall_s - sum(s[3] - s[2] for s in spans if s[1] < 0)
        out["trace.spans"] = len(spans)
        return out
