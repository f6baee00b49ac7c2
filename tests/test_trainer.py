"""Experiment orchestration: config handling, parameter layouts per method,
training determinism, and evaluation purity."""

import copy
import math
import threading
from dataclasses import replace
from typing import get_args, get_type_hints

import numpy as np
import pytest

from bilevelopt import (
    METHOD_NAMES,
    Adam,
    ConfigError,
    ExperimentConfig,
    IndefiniteCurvature,
    LengthMismatch,
    Momentum,
    NonFiniteValue,
    Paradigm,
    ParamVector,
    RngStream,
    Sgd,
    Split,
    apply_overrides,
    build_experiment,
    compose_named_method,
    init_task_params_batch,
    meta_evaluate,
    meta_train,
    metrics_to_jsonl,
    run_inner,
    sample_task_batch,
)
from bilevelopt.inner import softplus_inverse
from bilevelopt.trainer import _EVAL_INIT_STREAM, _EVAL_TASK_STREAM, _SECTIONS, _task_order_sum


def _maml_raw(**run_fields):
    raw = {
        "data": {
            "num_classes": 8,
            "dim": 6,
            "cluster_spread": 5.0,
            "noise_sd": 0.4,
            "way": 3,
            "shot": 1,
            "query": 4,
            "batch_size": 2,
        },
        "problem": {"kind": "mlp", "hidden": 4, "reg": "l2", "reg_coef": 0.05},
        "inner": {"steps": 2, "step_size": 0.05},
        "meta_opt": {"kind": "momentum", "lr": 0.01},
        "run": {
            "method": "MAML",
            "meta_iterations": 4,
            "eval_every": 2,
            "eval_tasks": 5,
            "seed": 3,
        },
    }
    raw["run"].update(run_fields)
    return raw


def _feature_raw(method="RHG", **run_fields):
    raw = _maml_raw(method=method, **run_fields)
    raw["problem"] = {"kind": "feature_softmax", "dim_feat": 5, "reg": "l2", "reg_coef": 0.1}
    return raw


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------


def test_empty_config_uses_defaults():
    cfg = ExperimentConfig.from_dict({})
    assert cfg.run.method == "MAML"
    assert cfg.data.way == 5
    assert cfg.meta_opt.kind == "momentum"
    assert cfg.hypergrad.truncation_k is None
    # pins the defaults the sections read from the runtime types
    assert cfg.to_dict() == {
        "data": {
            "source": "synthetic", "num_classes": 20, "dim": 8, "cluster_spread": 10.0,
            "noise_sd": 0.5, "root": None, "file_format": "csv", "way": 5, "shot": 1,
            "query": 15, "batch_size": 4,
        },
        "problem": {
            "kind": "mlp", "hidden": 0, "loss": "cross_entropy", "reg": "none",
            "reg_coef": 0.0, "dim_feat": 16, "quad_a": 2.0, "quad_lam": 1.0, "quad_b": 1.0,
        },
        "inner": {"steps": 5, "step_size": 0.1, "bda_alpha": 0.5},
        "hypergrad": {
            "truncation_k": None, "cg_tol": 1e-08, "cg_max_iter": None,
            "prox_lambda": None, "darts_delta": 0.01,
        },
        "meta_opt": {
            "kind": "momentum", "lr": 0.01, "mu": 0.9, "beta1": 0.9, "beta2": 0.999,
            "eps_hat": 1e-08,
        },
        "run": {
            "method": "MAML", "paradigm": None, "inner_rule": None, "hypergrad_method": None,
            "meta_iterations": 100, "eval_every": 100, "eval_tasks": 50, "seed": 0,
            "threads": 1,
        },
    }


def test_config_round_trips_through_dict():
    raw = _maml_raw()
    cfg = ExperimentConfig.from_dict(raw)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.to_dict() == cfg.to_dict()


def test_unknown_section_and_field_are_named():
    with pytest.raises(ConfigError, match="extras: unknown section"):
        ExperimentConfig.from_dict({"extras": {}})
    with pytest.raises(ConfigError, match=r"inner\.momentum: unknown field"):
        ExperimentConfig.from_dict({"inner": {"momentum": 0.9}})
    with pytest.raises(ConfigError, match="run:"):
        ExperimentConfig.from_dict({"run": {"meta_iterations": 0}})
    with pytest.raises(ConfigError, match="section must be an object"):
        ExperimentConfig.from_dict({"inner": 3})
    with pytest.raises(ConfigError, match="root must be a JSON object"):
        ExperimentConfig.from_dict([1, 2])


def test_invalid_enumeration_values_are_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"problem": {"kind": "transformer"}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"data": {"source": "sql"}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"meta_opt": {"kind": "rmsprop"}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"run": {"inner_rule": "newton"}})


# Every value a section rejects, including fields the default composition
# (MAML on the mlp problem, momentum, synthetic data) never reads.
_REJECTED_VALUES = [
    ("data", {"source": "sql"}),
    ("data", {"source": "directory"}),
    ("data", {"num_classes": 0}),
    ("data", {"source": "directory", "root": "anywhere", "num_classes": 0}),
    ("data", {"dim": 0}),
    ("data", {"source": "directory", "root": "anywhere", "dim": 0}),
    ("data", {"noise_sd": -0.1}),
    ("data", {"source": "directory", "root": "anywhere", "noise_sd": -1.0}),
    ("data", {"way": 0}),
    ("data", {"shot": 0}),
    ("data", {"query": 0}),
    ("data", {"batch_size": 0}),
    ("problem", {"kind": "transformer"}),
    ("problem", {"hidden": -1}),
    ("problem", {"kind": "feature_softmax", "hidden": -1}),
    ("problem", {"loss": "hinge"}),
    ("problem", {"kind": "feature_softmax", "loss": "hinge"}),
    ("problem", {"reg": "l3"}),
    ("problem", {"reg_coef": -0.5}),
    ("problem", {"reg": "l2", "reg_coef": -0.5}),
    ("problem", {"dim_feat": 0}),
    ("problem", {"quad_lam": 0.0}),
    ("problem", {"quad_lam": -1.0}),
    ("inner", {"steps": -1}),
    ("inner", {"step_size": 0.0}),
    ("inner", {"step_size": -0.1}),
    ("inner", {"bda_alpha": -0.1}),
    ("inner", {"bda_alpha": 1.5}),
    ("hypergrad", {"truncation_k": 0}),
    ("hypergrad", {"cg_tol": 0.0}),
    ("hypergrad", {"cg_max_iter": 0}),
    ("hypergrad", {"prox_lambda": -1.0}),
    ("hypergrad", {"darts_delta": 0.0}),
    ("meta_opt", {"kind": "rmsprop"}),
    ("meta_opt", {"lr": 0.0}),
    ("meta_opt", {"kind": "adam", "lr": -1.0}),
    ("meta_opt", {"mu": 1.0}),
    ("meta_opt", {"kind": "sgd", "mu": -0.1}),
    ("meta_opt", {"beta1": 1.0}),
    ("meta_opt", {"beta2": -0.1}),
    ("meta_opt", {"kind": "sgd", "eps_hat": 0.0}),
    ("run", {"meta_iterations": 0}),
    ("run", {"eval_every": 0}),
    ("run", {"eval_tasks": 0}),
    ("run", {"threads": 0}),
    ("run", {"paradigm": "both"}),
    ("run", {"inner_rule": "newton"}),
    ("run", {"hypergrad_method": "newton"}),
]


@pytest.mark.parametrize(
    "section, body", _REJECTED_VALUES, ids=[f"{s}-{b}" for s, b in _REJECTED_VALUES]
)
def test_rejected_values_name_their_section(section, body):
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict({section: body})
    assert str(exc.value).startswith(f"{section}:")


@pytest.mark.parametrize(
    "section, field, value",
    [
        ("inner", "steps", 2.5),
        ("inner", "steps", True),
        ("inner", "step_size", "0.1"),
        ("inner", "step_size", False),
        ("run", "meta_iterations", 1.5),
        ("run", "threads", 2.5),
        ("run", "method", 3),
        ("run", "seed", None),
        ("run", "paradigm", 1),
        ("problem", "hidden", 2.5),
        ("problem", "loss", None),
        ("hypergrad", "truncation_k", 1.5),
        ("hypergrad", "prox_lambda", [0.5]),
        ("data", "root", 5),
        ("data", "num_classes", {"n": 8}),
    ],
)
def test_json_type_of_each_value_is_checked(section, field, value):
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict({section: {field: value}})
    assert str(exc.value).startswith(f"{section}.{field}:")


# every (section, field) whose annotation admits a float
_FLOAT_FIELDS = [
    (key, name)
    for key, cls in _SECTIONS.items()
    for name, hint in get_type_hints(cls).items()
    if float in (get_args(hint) or (hint,))
]


def test_the_float_fields_are_the_ones_of_the_sections():
    assert len(_FLOAT_FIELDS) == 14
    assert ("inner", "step_size") in _FLOAT_FIELDS
    assert ("hypergrad", "prox_lambda") in _FLOAT_FIELDS


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "int-1e400"]
)
@pytest.mark.parametrize("section, field", _FLOAT_FIELDS)
def test_a_float_field_rejects_a_number_that_is_not_finite(section, field, value):
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict({section: {field: value}})
    assert str(exc.value) == f"{section}.{field}: expected a finite number, got {value!r}"


# every (section, field) whose annotation admits an int but not a float,
# seeds aside: those take any integer
_INT_FIELDS = [
    (key, name)
    for key, cls in _SECTIONS.items()
    for name, hint in get_type_hints(cls).items()
    if int in (get_args(hint) or (hint,)) and float not in (get_args(hint) or (hint,))
    and name != "seed"
]
_INTP_MAX = int(np.iinfo(np.intp).max)


def test_the_int_fields_are_the_ones_of_the_sections():
    assert ("data", "num_classes") in _INT_FIELDS
    assert ("run", "eval_tasks") in _INT_FIELDS
    assert ("hypergrad", "truncation_k") in _INT_FIELDS
    assert ("run", "seed") not in _INT_FIELDS


@pytest.mark.parametrize(
    "value", [10**30, -(10**30), _INTP_MAX + 1], ids=["1e30", "-1e30", "max+1"]
)
@pytest.mark.parametrize("section, field", _INT_FIELDS)
def test_an_int_field_rejects_an_integer_no_array_can_hold(section, field, value):
    # data.num_classes at 10**30 would otherwise build class names for as
    # long as memory lasts
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict({section: {field: value}})
    assert str(exc.value) == (
        f"{section}.{field}: expected an integer of magnitude at most {_INTP_MAX}, got {value!r}"
    )


def test_the_largest_intp_passes_the_type_check():
    assert ExperimentConfig.from_dict({"run": {"eval_tasks": _INTP_MAX}}).run.eval_tasks == _INTP_MAX


@pytest.mark.parametrize("value", [2**64 - 1, 10**400], ids=["u64-max", "1e400"])
def test_a_seed_may_be_any_integer(value):
    # RngStream masks a seed to 64 bits, so a full 64-bit draw is a seed
    assert ExperimentConfig.from_dict({"run": {"seed": value}}).run.seed == value


def test_json_types_that_fit_the_annotation_are_accepted():
    cfg = ExperimentConfig.from_dict(
        {
            "inner": {"step_size": 1},
            "hypergrad": {"truncation_k": None, "prox_lambda": 2},
            "problem": {"quad_a": [[1, 0], [0, 1]], "quad_b": True},
        }
    )
    assert cfg.inner.step_size == 1
    assert cfg.hypergrad.truncation_k is None
    assert cfg.problem.quad_b is True


def test_apply_overrides_parses_json_values():
    raw = _maml_raw()
    before = copy.deepcopy(raw)
    out = apply_overrides(
        raw,
        ["inner.steps=7", "meta_opt.lr=0.5", "run.method=\"RHG\"", "data.root=plain/path"],
    )
    assert out["inner"]["steps"] == 7
    assert out["meta_opt"]["lr"] == 0.5
    assert out["run"]["method"] == "RHG"
    assert out["data"]["root"] == "plain/path"  # non-JSON text stays a string
    assert raw == before  # input dict untouched


def test_apply_overrides_rejects_bad_paths():
    with pytest.raises(ConfigError):
        apply_overrides({}, ["inner.steps"])
    with pytest.raises(ConfigError):
        apply_overrides({}, ["steps=3"])
    with pytest.raises(ConfigError):
        apply_overrides({}, ["a.b.c=3"])


# --------------------------------------------------------------------------
# building experiments
# --------------------------------------------------------------------------


def test_maml_builds_init_only_layout():
    exp, state = build_experiment(ExperimentConfig.from_dict(_maml_raw()))
    assert state.x.layout.names == ("init",)
    assert state.x.layout.dim == exp.problem.y_layout.dim
    assert isinstance(state.opt, Momentum)
    assert state.iteration == 0


def test_meta_sgd_appends_rates_initialized_at_the_step_size():
    exp, state = build_experiment(
        ExperimentConfig.from_dict(_maml_raw(method="Meta-SGD"))
    )
    assert state.x.layout.names == ("init", "rates")
    rates = state.x.segment("rates")
    assert np.allclose(rates, softplus_inverse(0.05))
    assert len(rates) == exp.problem.y_layout.dim


def test_meta_sgd_rates_at_a_step_size_past_the_overflow_of_expm1_are_finite():
    raw = _maml_raw(method="Meta-SGD")
    raw["inner"]["step_size"] = 800.0
    _, state = build_experiment(ExperimentConfig.from_dict(raw))
    assert (state.x.segment("rates") == 800.0).all()


def test_warpgrad_and_mtnet_segments_start_at_zero():
    _, warp_state = build_experiment(
        ExperimentConfig.from_dict(_maml_raw(method="WarpGrad"))
    )
    assert warp_state.x.layout.names == ("init", "warp_logdiag")
    assert np.array_equal(
        warp_state.x.segment("warp_logdiag"),
        np.zeros(len(warp_state.x.segment("init"))),
    )
    exp, mt_state = build_experiment(
        ExperimentConfig.from_dict(_maml_raw(method="MT-net"))
    )
    assert mt_state.x.layout.names == ("init", "mask_logits")
    n_seg = len(exp.problem.y_layout.segments)
    assert np.array_equal(mt_state.x.segment("mask_logits"), np.zeros(n_seg))


def test_feature_methods_build_feat_layout():
    exp, state = build_experiment(ExperimentConfig.from_dict(_feature_raw()))
    assert state.x.layout.names == ("feat",)
    assert state.x.layout.dim == 5 * 6  # dim_feat * dim_in
    assert exp.source is not None
    # feature map init has sd 1/sqrt(dim_in)
    assert 0.05 < np.std(state.x.segment("feat")) < 1.0


def test_quadratic_needs_no_data_source():
    raw = {
        "problem": {"kind": "quadratic", "quad_a": 2.0, "quad_lam": 1.0, "quad_b": 1.0},
        "inner": {"steps": 5, "step_size": 0.25},
        "run": {"method": "RHG", "meta_iterations": 3, "seed": 0},
        "meta_opt": {"kind": "sgd", "lr": 0.1},
    }
    exp, state = build_experiment(ExperimentConfig.from_dict(raw))
    assert exp.source is None
    assert exp.episode_spec is None
    assert state.x.layout.names == ("theta",)
    assert np.array_equal(state.x.values, [0.0])
    assert isinstance(state.opt, Sgd)
    state, records = meta_train(exp, state)
    assert len(records) == 3
    # descending a smooth strongly convex objective
    assert records[-1].ul_loss < records[0].ul_loss


def test_paradigm_and_problem_kind_must_agree():
    with pytest.raises(ConfigError, match="problem.kind"):
        build_experiment(ExperimentConfig.from_dict(_feature_raw(method="MAML")))
    raw = _maml_raw(method="RHG")
    with pytest.raises(ConfigError, match="problem.kind"):
        build_experiment(ExperimentConfig.from_dict(raw))


def test_way_cannot_exceed_class_count():
    raw = _maml_raw()
    raw["data"]["way"] = 9
    with pytest.raises(ConfigError, match="data.way"):
        build_experiment(ExperimentConfig.from_dict(raw))


def test_custom_method_requires_all_three_fields():
    raw = _maml_raw(method="custom", paradigm="meta_init")
    with pytest.raises(ConfigError, match="run.inner_rule"):
        build_experiment(ExperimentConfig.from_dict(raw))
    raw = _maml_raw(
        method="custom",
        paradigm="meta_init",
        inner_rule="warp_grad_diag",
        hypergrad_method="truncated",
    )
    exp, state = build_experiment(ExperimentConfig.from_dict(raw))
    assert state.x.layout.names == ("init", "warp_logdiag")


def test_unknown_named_method_is_a_config_error():
    with pytest.raises(ConfigError, match="run.method"):
        build_experiment(ExperimentConfig.from_dict(_maml_raw(method="reptile")))


def test_adam_config_builds_adam_state():
    raw = _maml_raw()
    raw["meta_opt"] = {"kind": "adam", "lr": 0.002, "beta1": 0.8}
    _, state = build_experiment(ExperimentConfig.from_dict(raw))
    assert isinstance(state.opt, Adam)
    assert state.opt.beta1 == 0.8


# --------------------------------------------------------------------------
# training loop
# --------------------------------------------------------------------------


def test_metrics_cover_every_iteration_with_eval_cadence():
    cfg = ExperimentConfig.from_dict(_maml_raw())
    exp, state = build_experiment(cfg)
    state, records = meta_train(exp, state)
    assert len(records) == 4
    assert [r.meta_iter for r in records] == [0, 1, 2, 3]
    assert state.iteration == 4
    for r in records:
        evaluated = (r.meta_iter + 1) % 2 == 0
        assert (r.eval_post_adapt_loss is not None) == evaluated
        assert (r.eval_post_adapt_accuracy is not None) == evaluated
        assert np.isfinite(r.ul_loss)
        assert np.isfinite(r.mean_inner_final_loss)
        assert r.wall_ms >= 0.0


def test_identical_configs_replay_identically():
    cfg = ExperimentConfig.from_dict(_maml_raw())
    exp1, s1 = build_experiment(cfg)
    exp2, s2 = build_experiment(cfg)
    s1, r1 = meta_train(exp1, s1)
    s2, r2 = meta_train(exp2, s2)
    assert np.array_equal(s1.x.values, s2.x.values)
    assert metrics_to_jsonl(r1) == metrics_to_jsonl(r2)


def test_thread_pool_matches_serial_execution():
    serial = ExperimentConfig.from_dict(_maml_raw(threads=1))
    pooled = ExperimentConfig.from_dict(_maml_raw(threads=3))
    exp_s, st_s = build_experiment(serial)
    exp_p, st_p = build_experiment(pooled)
    st_s, rec_s = meta_train(exp_s, st_s)
    st_p, rec_p = meta_train(exp_p, st_p)
    assert np.max(np.abs(st_s.x.values - st_p.x.values)) <= 1e-12
    for a, b in zip(rec_s, rec_p):
        assert abs(a.ul_loss - b.ul_loss) <= 1e-12
        assert abs(a.mean_inner_final_loss - b.mean_inner_final_loss) <= 1e-12


def test_threads_setting_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("meta_train started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    exp, state = build_experiment(ExperimentConfig.from_dict(_maml_raw(threads=4)))
    final, records = meta_train(exp, state)
    assert final.iteration == 4 and len(records) == 4


def test_training_resumes_from_returned_state():
    cfg8 = ExperimentConfig.from_dict(_maml_raw(meta_iterations=8, eval_every=100))
    exp, state = build_experiment(cfg8)
    full, _ = meta_train(exp, state)

    cfg4 = ExperimentConfig.from_dict(_maml_raw(meta_iterations=4, eval_every=100))
    exp4, state4 = build_experiment(cfg4)
    half, _ = meta_train(exp4, state4)
    resumed, _ = meta_train(exp4, half)
    assert resumed.iteration == 8
    assert np.allclose(resumed.x.values, full.x.values, atol=1e-15)


def test_divergent_run_aborts_with_the_failing_iteration():
    raw = {
        "problem": {"kind": "quadratic"},
        "inner": {"steps": 60, "step_size": 1e6},
        "run": {"method": "RHG", "meta_iterations": 2},
    }
    exp, state = build_experiment(ExperimentConfig.from_dict(raw))
    with pytest.raises(NonFiniteValue, match="meta-iteration 0"):
        meta_train(exp, state)


def test_metrics_serialization_drops_wall_time():
    cfg = ExperimentConfig.from_dict(_maml_raw(meta_iterations=1, eval_every=1))
    exp, state = build_experiment(cfg)
    _, records = meta_train(exp, state)
    lines = metrics_to_jsonl(records).splitlines()
    assert len(lines) == 1
    assert "wall_ms" not in lines[0]
    for key in (
        "meta_iter",
        "ul_loss",
        "mean_inner_final_loss",
        "eval_post_adapt_loss",
        "eval_post_adapt_accuracy",
    ):
        assert key in lines[0]


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------


def test_meta_evaluate_is_pure_and_repeatable():
    cfg = ExperimentConfig.from_dict(_maml_raw())
    exp, state = build_experiment(cfg)
    before = state.x.values.copy()
    loss1, acc1 = meta_evaluate(exp, state, 6)
    loss2, acc2 = meta_evaluate(exp, state, 6)
    assert (loss1, acc1) == (loss2, acc2)
    assert np.array_equal(state.x.values, before)
    assert 0.0 <= acc1 <= 1.0


def test_eval_cadence_never_shifts_training_draws():
    # two cadences, same seed: the training trajectory must match exactly
    often = ExperimentConfig.from_dict(_maml_raw(eval_every=1))
    rarely = ExperimentConfig.from_dict(_maml_raw(eval_every=100))
    exp_o, st_o = build_experiment(often)
    exp_r, st_r = build_experiment(rarely)
    st_o, rec_o = meta_train(exp_o, st_o)
    st_r, rec_r = meta_train(exp_r, st_r)
    assert np.array_equal(st_o.x.values, st_r.x.values)
    for a, b in zip(rec_o, rec_r):
        assert a.ul_loss == b.ul_loss


def test_untrained_classifier_sits_near_chance():
    # a frozen random head with an adaptation step too small to matter
    raw = _maml_raw(seed=11)
    raw["data"].update({"way": 4, "query": 8, "num_classes": 12})
    raw["inner"] = {"steps": 1, "step_size": 1e-9}
    exp, state = build_experiment(ExperimentConfig.from_dict(raw))
    _, acc = meta_evaluate(exp, state, 50)
    assert abs(acc - 0.25) < 0.12


def test_quadratic_evaluation_reports_no_accuracy():
    raw = {
        "problem": {"kind": "quadratic"},
        "inner": {"steps": 10, "step_size": 0.25},
        "run": {"method": "RHG", "meta_iterations": 1},
    }
    exp, state = build_experiment(ExperimentConfig.from_dict(raw))
    loss, acc = meta_evaluate(exp, state, 3)
    assert acc is None
    assert np.isfinite(loss)


@pytest.mark.parametrize("n_tasks", [0, -1])
@pytest.mark.parametrize("kind", ["quadratic", "mlp"])
def test_meta_evaluate_rejects_fewer_than_one_task_before_any_draw(monkeypatch, kind, n_tasks):
    raw = _maml_raw()
    if kind == "quadratic":
        raw = {"problem": {"kind": "quadratic"}, "run": {"method": "RHG"}}
    exp, state = build_experiment(ExperimentConfig.from_dict(raw))
    draws = []
    monkeypatch.setattr(RngStream, "generator", lambda self: draws.append(self))
    with pytest.raises(ValueError, match=r"^n_tasks must be >= 1$"):
        meta_evaluate(exp, state, n_tasks)
    assert draws == []


def _per_task_evaluate(exp, state, n_tasks, round_index):
    """meta_evaluate as a plain loop over tasks: the reference for the
    batched path."""
    seed, x, cfg = exp.cfg.run.seed, state.x, exp.inner_config
    # every task's y_0 is a row of one (tasks, dim_y) draw on the round's stream
    ys0 = init_task_params_batch(
        exp.paradigm, exp.problem, x, RngStream(seed, _EVAL_INIT_STREAM).child(round_index),
        n_tasks,
    )
    if exp.source is None:
        tasks = (None,) * n_tasks
    else:
        spec = replace(exp.episode_spec, batch_size=n_tasks)
        rng = RngStream(seed, _EVAL_TASK_STREAM).child(round_index)
        tasks = sample_task_batch(exp.source, spec, rng).tasks
    losses, accuracies = [], []
    for j, task in enumerate(tasks):
        y0 = ParamVector(exp.problem.y_layout, ys0[j])
        y = run_inner(cfg.rule, cfg, exp.problem, x, y0, task).y_final
        losses.append(exp.problem.value(x, y, task, Split.VAL))
        if exp.problem.is_classifier and task is not None:
            scores = exp.problem.predict(x, y, task.val_features)
            accuracies.append(float(np.mean(np.argmax(scores, axis=1) == task.val_labels)))
    return float(np.mean(losses)), (float(np.mean(accuracies)) if accuracies else None)


def _eval_cases():
    for name in METHOD_NAMES:
        meta_init = compose_named_method(name).paradigm is Paradigm.META_INIT
        yield pytest.param(_maml_raw(method=name) if meta_init else _feature_raw(name), id=name)
    for rule in ("gd", "meta_sgd", "bda", "mtnet_mask", "warp_grad_diag"):
        composition = {"paradigm": "meta_init", "inner_rule": rule, "hypergrad_method": "reverse"}
        yield pytest.param(_maml_raw(method="custom", **composition), id=f"mlp-{rule}")
    mse = _maml_raw()
    mse["problem"]["loss"] = "mse"
    yield pytest.param(mse, id="mlp-mse")
    yield pytest.param(
        {
            "problem": {"kind": "quadratic"},
            "inner": {"steps": 10, "step_size": 0.25},
            "run": {"method": "RHG", "meta_iterations": 2},
        },
        id="quadratic",
    )


@pytest.mark.parametrize("raw", list(_eval_cases()))
def test_meta_evaluate_matches_a_per_task_loop(raw):
    exp, state = build_experiment(ExperimentConfig.from_dict(raw))
    state, _ = meta_train(exp, state)
    loss, acc = meta_evaluate(exp, state, 7, round_index=3)
    ref_loss, ref_acc = _per_task_evaluate(exp, state, 7, round_index=3)
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)
    assert acc == ref_acc
    if raw["problem"].get("loss") == "mse" or raw["problem"]["kind"] == "quadratic":
        assert acc is None


def test_meta_evaluate_makes_no_per_task_oracle_calls_on_the_classifiers():
    # cost model: both built-in classifier problems evaluate through their
    # points and val_losses_and_scores, so the per-task oracles below record
    # no calls
    for raw in (_maml_raw(), _feature_raw()):
        exp, state = build_experiment(ExperimentConfig.from_dict(raw))
        calls = []
        for name in ("grad_y", "value", "predict"):

            def counted(*args, inner=getattr(exp.problem, name), name=name):
                calls.append(name)
                return inner(*args)

            setattr(exp.problem, name, counted)
        meta_evaluate(exp, state, 6)
        assert calls == []
        # training runs through the points too
        meta_train(exp, state)
        assert calls == []


@pytest.mark.parametrize("method", ["RHG", "DARTS"])
def test_meta_evaluate_builds_the_same_number_of_generators_at_any_task_count(
    monkeypatch, method
):
    # cost model: the y_0s, the class choice and the items are one draw each
    exp, state = build_experiment(ExperimentConfig.from_dict(_feature_raw(method)))
    meta_evaluate(exp, state, 1)  # the source's one-time center draw
    make, calls = RngStream.generator, []

    def counted(self):
        calls.append(self)
        return make(self)

    monkeypatch.setattr(RngStream, "generator", counted)
    counts = []
    for n_tasks in (4, 100):
        before = len(calls)
        meta_evaluate(exp, state, n_tasks)
        counts.append(len(calls) - before)
    assert counts == [3, 3]


def test_meta_evaluate_runs_the_validation_forward_pass_once():
    # the forward pass of each classifier, whose last argument is the input
    for raw in (_maml_raw(), _feature_raw()):
        exp, state = build_experiment(ExperimentConfig.from_dict(raw))
        rows = []

        def counted(*args, inner=exp.problem._forward):
            rows.append(args[-1].shape[-2])
            return inner(*args)

        exp.problem._forward = counted
        meta_evaluate(exp, state, 6)
        data = raw["data"]
        assert rows.count(data["way"] * data["query"]) == 1


def test_errors_raised_in_training_name_the_meta_iteration():
    raw = _maml_raw(method="custom", paradigm="meta_init", inner_rule="gd",
                    hypergrad_method="implicit")
    raw["problem"]["hidden"] = 16
    raw["hypergrad"] = {"prox_lambda": 0}
    exp, state = build_experiment(ExperimentConfig.from_dict(raw))
    with pytest.raises(IndefiniteCurvature, match="meta-iteration 0: <p, Ap>"):
        meta_train(exp, state)


def test_errors_raised_in_evaluation_name_the_meta_iteration():
    exp, state = build_experiment(ExperimentConfig.from_dict(_maml_raw(eval_every=2)))

    def failing(*args):
        raise LengthMismatch("evaluation broke")

    # training never grades the validation split's scores, evaluation does
    exp.problem.val_losses_and_scores = failing
    with pytest.raises(LengthMismatch, match="meta-iteration 1: evaluation broke"):
        meta_train(exp, state)


@pytest.mark.parametrize("dim", [1, 2, 229])
@pytest.mark.parametrize("tasks", [1, 4, 16])
def test_the_gradient_sum_adds_the_tasks_in_order_bit_for_bit(tasks, dim):
    gen = np.random.default_rng(tasks * 1000 + dim)
    for _ in range(50):
        # mixed magnitudes and signs, where the order of the additions shows
        rows = gen.standard_normal((tasks, dim)) * 10.0 ** gen.integers(-8, 9, (tasks, dim))
        loop = rows[0]
        for row in rows[1:]:
            loop = loop + row
        for stack in (rows, np.asfortranarray(rows)):
            assert _task_order_sum(stack).tobytes() == loop.tobytes()
