"""The outside-config schema: one key mutated at a time must be accepted
unconverted or rejected with a ConfigError naming the key, and README's
example and key table must match the annotations."""

import dataclasses
import json
import math
import os
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zigprune.datasets import DATASET_SPECS, dataset_spec
from zigprune.dhspg import OptimizerConfig
from zigprune.errors import ConfigError, check_fields
from zigprune.harness import GRAPH_SPEC, ExperimentConfig


def check_config(doc: dict) -> ExperimentConfig:
    """The config checks a train run makes before it writes anything: the
    config's own, then the graph and dataset specs' as they are built."""
    cfg = ExperimentConfig.from_doc(doc)
    check_fields(cfg.graph, GRAPH_SPEC, "graph")
    dataset_spec(cfg.dataset)
    return cfg


# -- the config schema, written out apart from the annotations --------------

def _is_int(v):
    return type(v) is int


def _is_float(v):
    return type(v) is int and abs(v) <= sys.float_info.max or \
        type(v) is float and math.isfinite(v)


def _image(v):
    return type(v) in (list, tuple) and len(v) == 3 and all(map(_is_int, v)) \
        and 1 <= v[0] <= 3 and v[1] >= 1 and v[2] >= 1


# path -> (whether null is valid, rule for any other value); the base
# config's project_start_step is 16, so warm-up may run to step 16
SCHEMA = {
    ("epochs",): (False, lambda v: _is_int(v) and v >= 0),
    ("batch_size",): (False, lambda v: _is_int(v) and v >= 1),
    ("seed",): (False, lambda v: _is_int(v) and v >= 0),
    ("output_dir",): (False, lambda v: type(v) is str),
    ("loss",): (False, lambda v: v in ("cross_entropy", "mse")),
    ("target_zero_fraction",): (True, lambda v: _is_float(v) and 0 <= v <= 1),
    ("equivalence_trials",): (False, lambda v: _is_int(v) and v >= 1),
    ("equivalence_tol",): (False, lambda v: _is_float(v) and v >= 0),
    ("optimizer", "learning_rate"): (False, lambda v: _is_float(v) and v > 0),
    ("optimizer", "lr_decay"): (False, lambda v: _is_float(v) and v >= 0),
    ("optimizer", "lr_period_epochs"): (False, lambda v: _is_int(v) and v >= 1),
    ("optimizer", "lr_floor"): (False, lambda v: _is_float(v) and v >= 0),
    ("optimizer", "momentum"): (False, lambda v: _is_float(v) and 0 <= v < 1),
    ("optimizer", "target_zero_groups"): (False, lambda v: _is_int(v) and v >= 0),
    ("optimizer", "warmup_steps"): (True, lambda v: _is_int(v) and 0 <= v <= 16),
    ("optimizer", "project_start_step"): (True, lambda v: _is_int(v) and v >= 0),
    ("optimizer", "norm_floor"): (False, lambda v: _is_float(v) and v > 0),
    ("optimizer", "default_penalty"): (False, lambda v: _is_float(v) and v >= 0),
    ("optimizer", "penalty_amplify"): (False, lambda v: _is_float(v) and v >= 1),
    ("optimizer", "project_epsilon"): (False, lambda v: _is_float(v) and 0 <= v < 1),
    ("optimizer", "global_penalty"): (False, lambda v: _is_float(v) and v >= 0),
    ("optimizer", "salience_cos_weight"): (False, lambda v: _is_float(v) and v >= 0),
    ("optimizer", "salience_mag_weight"): (False, lambda v: _is_float(v) and v >= 0),
    ("optimizer", "mode"): (False, lambda v: v in ("dhspg", "hspg", "sgd")),
    ("dataset", "n_train"): (False, lambda v: _is_int(v) and v >= 0),
    ("dataset", "n_test"): (False, lambda v: _is_int(v) and v >= 0),
    ("dataset", "noise"): (False, lambda v: _is_float(v) and v >= 0),
    ("dataset", "mean_scale"): (False, _is_float),
    ("dataset", "image"): (False, _image),
    ("graph", "builder"): (False, lambda v: v in ("demo_net", "residual_block_net",
                                                  "stacked_unets_mini")),
    ("graph", "path"): (False, lambda v: type(v) is str),
}

# values at and around every bound, of every wrong type, null and non-finite
EDGES = [None, math.nan, math.inf, -math.inf, True, False, 0, 0.0, 1, 1.0, -1, 3, 16, 17,
         0.5, 10**400, "", "0.5", "mse", "sgd", "demo_net", [], [1, 8, 8], [4, 8, 8], {}]
MUTATIONS = st.one_of(st.sampled_from(EDGES), st.integers(-3, 40), st.floats(-2.0, 2.0),
                      st.text(max_size=3), st.lists(st.integers(-1, 5), max_size=4))


@pytest.mark.parametrize("path", sorted(SCHEMA), ids=".".join)
@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(value=MUTATIONS)
def test_config_mutations_raise_a_config_error_naming_the_key(path, value):
    doc = {"dataset": {"kind": "synthetic-classification", "n_train": 64, "n_test": 16},
           "optimizer": {"project_start_step": 16}, "graph": {"builder": "demo_net"}}
    *head, key = path
    target = doc
    for name in head:
        target = target[name]
    target[key] = value
    nullable, rule = SCHEMA[path]
    if (nullable and value is None) or (value is not None and rule(value)):
        got = check_config(doc).to_doc()
        for name in head:
            got = got[name]
        assert got[key] == value and type(got[key]) is type(value)
    else:
        with pytest.raises(ConfigError, match=repr(key)):
            check_config(doc)


def test_readme_config_example_and_key_table_match_the_schema():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
              encoding="utf-8") as fh:
        section = fh.read().split("### Experiment config", 1)[1].split("\n## ", 1)[0]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    check_config(json.loads(example))
    documented = set(re.findall(r"^\| `([\w.-]+)`", section, flags=re.M))
    keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
    keys |= {f"optimizer.{f.name}" for f in dataclasses.fields(OptimizerConfig)}
    keys |= {f"graph.{k}" for k in GRAPH_SPEC}
    keys |= {f"dataset.{k}" for types, _ in DATASET_SPECS.values() for k in types}
    assert documented == keys | {"dataset.kind"}


@pytest.mark.parametrize("optimizer", [{"warmup_steps": 5}, {"project_start_step": 0}])
def test_a_null_phase_step_is_compared_only_once_it_is_set(optimizer):
    # a null step is half the first period, known only when training starts
    assert check_config({"optimizer": optimizer}).optimizer == OptimizerConfig(**optimizer)
    with pytest.raises(ConfigError, match="'warmup_steps'"):
        check_config({"optimizer": {"warmup_steps": 5, "project_start_step": 4}})
