"""The benchmark's workloads call zigprune functions by name, and its traced
run wraps them by name; a rename or merge that drops one of them must fail
here, not only when the benchmark runs."""

import ast
import importlib
import importlib.util
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
SPANS = os.path.join(PERFBENCH, "spans.py")
WORKLOADS = os.path.join(PERFBENCH, "workloads.py")


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("layer,attr", [
    (layer, attr) for layer, attrs in load_targets().items() for attr in attrs])
def test_trace_target_resolves(layer, attr):
    module = importlib.import_module(f"zigprune.{layer}")
    if "." in attr:  # a method, looked up in the class's own namespace
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(module, cls_name)).get(meth))
    else:
        assert callable(getattr(module, attr, None))


def workload_attributes():
    """(module, attribute) for every ``module.attribute`` of a zigprune
    module in workloads.py, under the names it binds the modules to: by
    ``from zigprune import ...`` or ``= importlib.import_module("zigprune...")``."""
    with open(WORKLOADS, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "zigprune":
            modules.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) and \
                getattr(node.value.func, "attr", None) == "import_module":
            modules[node.targets[0].id] = node.value.args[0].value.removeprefix("zigprune.")
    return sorted({(modules[n.value.id], n.attr) for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                   and n.value.id in modules})


@pytest.mark.parametrize("layer,attr", workload_attributes())
def test_workload_attribute_resolves(layer, attr):
    assert hasattr(importlib.import_module(f"zigprune.{layer}"), attr)
