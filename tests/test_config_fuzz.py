"""Fuzz of the configuration: every config ends in a typed error or in
finite metrics.

Each config has a small episode shape (way, shot, query and batch size
1-3, at most 3 evaluation tasks), one of the ten named methods on a problem
of its paradigm, one of the three meta optimizers, and 1-3 meta-iterations
with an evaluation every 1 or 2, so that meta_evaluate runs too. On top of
that, fields of any section take a boundary value: 1e-300, 1e300 or
1.7e308, None where the field admits it, and for sizes, counts and names a
small or non-positive integer or another valid choice. One test sets each
field to each boundary value in turn, on the methods in turn; hypothesis
then draws shapes, methods, optimizers and up to three settings at once.
Every warning is an error while a config runs.

A config must raise a BilevelError from ExperimentConfig.from_dict,
build_experiment or meta_train, or finish with every metrics_to_jsonl line
strict JSON: RFC 8259 has no NaN or Infinity, so json.loads parses each
line with a parse_constant that raises.

Budget: at most 3 s for each of the two passes. On a 2-core VM with numpy
2.4.6 and Python 3.11, the 138 settings one at a time took under 0.5 s in
all, and the 200 derandomized hypothesis examples about 0.7 s.
"""

import json
import warnings
from typing import get_args, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilevelopt import (
    METHOD_NAMES,
    BilevelError,
    ExperimentConfig,
    Paradigm,
    build_experiment,
    compose_named_method,
    meta_train,
)
from bilevelopt.trainer import metrics_to_jsonl

BOUNDARY = [1e-300, 1e300, 1.7e308]
OPTIMIZERS = ["sgd", "momentum", "adam"]

# values besides BOUNDARY (and None) that a field may take
_CHOICES = {
    "data": {
        "source": ["directory"],
        "root": ["no-such-class-directory"],
        "file_format": ["npy"],
        "num_classes": [0, 1, 2, 3],
        "dim": [0, 1, 2],
        "way": [0, 4],
        "shot": [0],
        "query": [0],
        "batch_size": [0],
    },
    "problem": {
        "kind": ["mlp", "feature_softmax", "quadratic"],
        "hidden": [-1, 1, 2],
        "loss": ["mse", "hinge"],
        "reg": ["l1", "l2"],
        "dim_feat": [0, 1, 2],
        "quad_a": [[2.0, 1e300], "a"],
        "quad_b": [[1e-300, 1.7e308], [1.0]],
    },
    "inner": {"steps": [0, 1, 2, 3]},
    "hypergrad": {"truncation_k": [0, 1, 2, 3], "cg_max_iter": [0, 1, 2]},
    "meta_opt": {"kind": OPTIMIZERS},
    "run": {
        "method": ["custom", "no-such-method"],
        "paradigm": ["meta_init", "meta_feature"],
        "inner_rule": ["gd", "meta_sgd", "bda", "mtnet_mask", "warp_grad_diag"],
        "hypergrad_method": ["reverse", "truncated", "implicit", "first_order", "darts"],
        "meta_iterations": [0],
        "eval_every": [0],
        "eval_tasks": [0, 1],
        "seed": [-1, 2**70],
        "threads": [0, 2],
    },
}


def _admits_none(hint) -> bool:
    return hint is object or type(None) in get_args(hint)


# (section, field, value): each field of each section at each value it may take
SETTINGS = [
    (section, name, value)
    for section, section_cls in get_type_hints(ExperimentConfig).items()
    for name, hint in get_type_hints(section_cls).items()
    for value in BOUNDARY + [None] * _admits_none(hint) + _CHOICES[section].get(name, [])
]


def _config(method, kind, optimizer, shape, meta_iterations, eval_every, settings):
    """The raw config of `method` on a problem of `kind` under `optimizer`,
    with `shape` (way, shot, query, batch size) and as many evaluation tasks
    as ways, then each (section, field, value) of `settings` applied."""
    raw = {
        "data": dict(zip(("way", "shot", "query", "batch_size"), shape)),
        "problem": {"kind": kind},
        "meta_opt": {"kind": optimizer},
        "run": {
            "method": method,
            "meta_iterations": meta_iterations,
            "eval_every": eval_every,
            "eval_tasks": shape[0],
        },
    }
    for section, name, value in settings:
        raw.setdefault(section, {})[name] = value
    return raw


def _kinds(method):
    """The problem kinds of the method's paradigm."""
    if compose_named_method(method).paradigm is Paradigm.META_INIT:
        return ["mlp"]
    return ["feature_softmax", "quadratic"]


def _check(raw):
    """raw raises a BilevelError, or trains to strict-JSON metrics."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            exp, state = build_experiment(ExperimentConfig.from_dict(raw))
            _, records = meta_train(exp, state)
        except BilevelError:
            return
    assert len(records) == raw["run"]["meta_iterations"]
    for line in metrics_to_jsonl(records).splitlines():
        json.loads(line, parse_constant=_reject)


def _reject(constant):
    raise ValueError(f"metrics line holds {constant}, which is not JSON")


BOUNDARY_SETTINGS = [s for s in SETTINGS if s[2] is None or s[2] in BOUNDARY]


@pytest.mark.parametrize(
    "i, setting", list(enumerate(BOUNDARY_SETTINGS)),
    ids=[f"{section}.{name}={value}" for section, name, value in BOUNDARY_SETTINGS],
)
def test_a_field_at_a_boundary_raises_a_typed_error_or_writes_finite_metrics(i, setting):
    method = METHOD_NAMES[i % len(METHOD_NAMES)]
    kinds = _kinds(method)
    shape = (1 + i % 3, 1 + i // 3 % 3, 1 + i // 9 % 3, 1 + i % 2)
    _check(_config(
        method, kinds[i % len(kinds)], OPTIMIZERS[i % 3], shape, 1 + i % 3, 1 + i % 2, [setting]
    ))


@st.composite
def configs(draw):
    method = draw(st.sampled_from(METHOD_NAMES))
    small = st.integers(1, 3)
    return _config(
        method,
        draw(st.sampled_from(_kinds(method))),
        draw(st.sampled_from(OPTIMIZERS)),
        tuple(draw(small) for _ in range(4)),
        draw(small),
        draw(st.integers(1, 2)),
        draw(st.lists(st.sampled_from(SETTINGS), min_size=1, max_size=3)),
    )


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(configs())
def test_a_drawn_config_raises_a_typed_error_or_writes_finite_metrics(raw):
    _check(raw)
