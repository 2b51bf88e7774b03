"""The benchmark's traced run wraps zigprune functions by name; a rename or
merge that drops one of them must fail here, not only under ``--trace``."""

import importlib
import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


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
