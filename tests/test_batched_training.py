"""Batched meta-training: every task of a stacked batch gets the numbers of
its run alone, whether the problem's batch oracles are stacked kernels or
the per-task loops of BilevelObjective."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from bilevelopt import (
    METHOD_NAMES,
    BilevelObjective,
    ExperimentConfig,
    Implicit,
    InsufficientIterates,
    MetaFeatureSoftmax,
    MetaInitMlp,
    Paradigm,
    ParamVector,
    Regularizer,
    Reverse,
    RngStream,
    Split,
    TaskBatch,
    TrajectoryNotRecorded,
    TruncatedReverse,
    build_experiment,
    compose_named_method,
    compute_hypergradient,
    hypergrad_reverse,
    hypergrad_truncated,
    init_task_params,
    init_task_params_batch,
    meta_evaluate,
    meta_step,
    meta_train,
    metrics_to_jsonl,
    needs_full_trajectory,
    run_inner,
    sample_task_batch,
)
from bilevelopt.hypergrad import compute_hypergradient_batch
from bilevelopt.inner import run_inner_batch
from bilevelopt.trainer import _INIT_STREAM, _TASK_STREAM, TrainState

# the benchmark's reference shape: 5-way 1-shot 15-query episodes over 20
# Gaussian classes of dimension 8, 5 inner steps at 0.05, tanh MLP with 16
# hidden units or a 16-wide shared feature map, l2 0.01 on y
DATA = {
    "num_classes": 20, "dim": 8, "cluster_spread": 10.0, "noise_sd": 0.5,
    "way": 5, "shot": 1, "query": 15, "batch_size": 4,
}
MLP = {"kind": "mlp", "hidden": 16, "reg": "l2", "reg_coef": 0.01}
FEATURE_SOFTMAX = {"kind": "feature_softmax", "dim_feat": 16, "reg": "l2", "reg_coef": 0.01}
QUADRATIC = {"kind": "quadratic", "quad_a": [[2.0, -0.7], [0.4, 1.5]], "quad_b": [1.0, -0.5]}


def _raw(method, problem=None, **run_fields):
    if problem is None:
        meta_init = compose_named_method(method).paradigm is Paradigm.META_INIT
        problem = MLP if meta_init else FEATURE_SOFTMAX
    return {
        "data": dict(DATA),
        "problem": dict(problem),
        "inner": {"steps": 5, "step_size": 0.05},
        "meta_opt": {"kind": "momentum", "lr": 0.01},
        "run": {"method": method, "meta_iterations": 3, "eval_every": 2,
                "eval_tasks": 6, "seed": 11, **run_fields},
    }


def _cases():
    for name in METHOD_NAMES:
        yield pytest.param(_raw(name), id=name)
    yield pytest.param(_raw("RHG", QUADRATIC), id="quadratic")


def _rel(a, b):
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _trained(raw):
    """An experiment and a state a few meta-iterations in, so every extra
    x segment has moved off its initial value."""
    exp, state = build_experiment(ExperimentConfig.from_dict(raw))
    state, _ = meta_train(exp, state)
    return exp, replace(state, iteration=0)


def _per_task_round(exp, state):
    """One meta-iteration as a plain loop over the tasks: the reference."""
    cfg, x, it = exp.cfg, state.x, state.iteration
    n = cfg.data.batch_size
    if exp.source is None:
        tasks = (None,) * n
    else:
        tasks = sample_task_batch(
            exp.source, exp.episode_spec, RngStream(cfg.run.seed, _TASK_STREAM).child(it)
        ).tasks
    # every task's y_0 is a row of one (tasks, dim_y) draw on the round's stream
    ys0 = init_task_params_batch(
        exp.paradigm, exp.problem, x, RngStream(cfg.run.seed, _INIT_STREAM).child(it), n
    )
    inner = exp.inner_config
    grads, uls, inner_losses = [], [], []
    for j, task in enumerate(tasks):
        y0 = ParamVector(exp.problem.y_layout, ys0[j])
        traj = run_inner(
            inner.rule, inner, exp.problem, x, y0, task,
            record=needs_full_trajectory(exp.method),
        )
        res = compute_hypergradient(exp.method, exp.problem, exp.paradigm, traj, x, task)
        grads.append(res.grad_x)
        uls.append(res.ul_value)
        inner_losses.append(exp.problem.value(x, traj.y_final, task, Split.TRAIN))
    g_total = grads[0]
    for g in grads[1:]:
        g_total = g_total + g
    x_next, opt_next = meta_step(state.opt, x, g_total * (1.0 / n))
    return TrainState(x_next, opt_next, it + 1), sum(uls) / n, sum(inner_losses) / n


@pytest.mark.parametrize("raw", list(_cases()))
def test_meta_train_matches_a_per_task_loop(raw):
    raw["run"]["eval_every"] = 100
    exp, state = build_experiment(ExperimentConfig.from_dict(raw))
    ref_state = state
    ref_records = []
    for _ in range(raw["run"]["meta_iterations"]):
        ref_state, ul, inner = _per_task_round(exp, ref_state)
        ref_records.append((ul, inner))
    state, records = meta_train(exp, state)
    assert _rel(state.x.values, ref_state.x.values) <= 1e-12
    for rec, (ul, inner) in zip(records, ref_records):
        assert rec.ul_loss == pytest.approx(ul, rel=1e-12, abs=0)
        assert rec.mean_inner_final_loss == pytest.approx(inner, rel=1e-12, abs=0)


def _batch_and_ys0(exp, x):
    """A batch of 4 tasks and their y_0s as a (tasks, dim_y) stack."""
    if exp.source is None:
        batch = TaskBatch((None,) * 4)
    else:
        batch = sample_task_batch(exp.source, exp.episode_spec, RngStream(5, 6))
    root = RngStream(5, 7)
    ys0 = np.stack([
        init_task_params(exp.paradigm, exp.problem, x, root.child(j)).values
        for j in range(len(batch))
    ])
    return batch, ys0


@pytest.mark.parametrize("raw", list(_cases()))
def test_each_row_of_a_batch_matches_its_one_row_run(raw):
    exp, state = _trained(raw)
    problem, inner, x = exp.problem, exp.inner_config, state.x
    batch, ys0 = _batch_and_ys0(exp, x)
    record = needs_full_trajectory(exp.method)
    kept = run_inner_batch(inner, problem, x, ys0, batch, record=record)
    res = compute_hypergradient_batch(exp.method, problem, exp.paradigm, inner, x, kept, batch)
    y_final = kept[-1]
    for j, task in enumerate(batch):
        traj = run_inner(
            inner.rule, inner, problem, x, ParamVector(problem.y_layout, ys0[j]), task,
            record=record,
        )
        solo = compute_hypergradient(exp.method, problem, exp.paradigm, traj, x, task)
        assert _rel(res.grad_x[j], solo.grad_x.values) <= 1e-12
        assert res.ul_value[j] == pytest.approx(solo.ul_value, rel=1e-12, abs=0)
        assert problem.value(
            x, ParamVector(problem.y_layout, y_final[j]), task, Split.TRAIN
        ) == pytest.approx(problem.value(x, traj.y_final, task, Split.TRAIN), rel=1e-12, abs=0)
        if isinstance(exp.method, Implicit):
            assert res.cg_iters[j] == solo.cg_iters
            assert res.cg_residual[j] == pytest.approx(solo.cg_residual, rel=1e-12, abs=0)


_SWEEP_CASES = ("RHG", "MAML", "quadratic")


def _sweep_experiment(name, steps):
    raw = _raw("RHG", QUADRATIC) if name == "quadratic" else _raw(name)
    raw["inner"]["steps"] = steps
    return build_experiment(ExperimentConfig.from_dict(raw))


@pytest.mark.parametrize(
    "method, steps", [(Reverse(), 0), (Reverse(), 1), (TruncatedReverse(), 1)],
    ids=["reverse-0", "reverse-1", "truncated-1"],
)
@pytest.mark.parametrize("name", _SWEEP_CASES)
def test_an_unrecorded_run_of_at_most_one_step_feeds_the_batched_sweeps(name, method, steps):
    # such a run keeps all T + 1 iterates, so it counts as recorded in a
    # batch as it does for one task
    exp, state = _sweep_experiment(name, steps)
    problem, inner, x = exp.problem, exp.inner_config, state.x
    batch, ys0 = _batch_and_ys0(exp, x)
    kept = run_inner_batch(inner, problem, x, ys0, batch)
    assert len(kept) == steps + 1
    res = compute_hypergradient_batch(method, problem, exp.paradigm, inner, x, kept, batch)
    solo_sweep = hypergrad_reverse if isinstance(method, Reverse) else hypergrad_truncated
    for j, task in enumerate(batch):
        traj = run_inner(
            inner.rule, inner, problem, x, ParamVector(problem.y_layout, ys0[j]), task,
            record=False,
        )
        solo = solo_sweep(problem, exp.paradigm, traj, x, task)
        assert _rel(res.grad_x[j], solo.grad_x.values) <= 1e-12
        assert res.ul_value[j] == pytest.approx(solo.ul_value, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "method, error",
    [(Reverse(), TrajectoryNotRecorded), (TruncatedReverse(), InsufficientIterates)],
    ids=["reverse", "truncated"],
)
@pytest.mark.parametrize("steps", (2, 5))
@pytest.mark.parametrize("name", _SWEEP_CASES)
def test_an_unrecorded_run_of_two_or_more_steps_cannot_feed_the_batched_sweeps(
    name, steps, method, error
):
    exp, state = _sweep_experiment(name, steps)
    problem, inner, x = exp.problem, exp.inner_config, state.x
    batch, ys0 = _batch_and_ys0(exp, x)
    kept = run_inner_batch(inner, problem, x, ys0, batch)
    assert len(kept) == 2
    with pytest.raises(error):
        compute_hypergradient_batch(method, problem, exp.paradigm, inner, x, kept, batch)


class _Forwarding(BilevelObjective):
    """Forwards the five per-task oracles, counting the calls, and through
    __getattr__ every other attribute, to a problem: the shape of a tracing
    proxy."""

    def __init__(self, problem):
        self._problem = problem
        self.x_layout = problem.x_layout
        self.y_layout = problem.y_layout
        self.exact_hvp = problem.exact_hvp
        self.is_classifier = problem.is_classifier
        self.calls = Counter()

    def _forward(self, name, args):
        self.calls[name] += 1
        return getattr(self._problem, name)(*args)

    def value(self, *args):
        return self._forward("value", args)

    def grad_y(self, *args):
        return self._forward("grad_y", args)

    def grad_x(self, *args):
        return self._forward("grad_x", args)

    def hvp_yy(self, *args):
        return self._forward("hvp_yy", args)

    def cross_hvp(self, *args):
        return self._forward("cross_hvp", args)

    def __getattr__(self, name):
        return getattr(self._problem, name)


class _ForwardingPredict(_Forwarding):
    """_Forwarding that forwards predict too."""

    def predict(self, *args):
        return self._forward("predict", args)


class _PerTaskOnly(_ForwardingPredict):
    """The per-task oracles and predict alone, so the trainer has to loop
    over them."""

    def __getattr__(self, name):
        raise AttributeError(name)


@pytest.mark.parametrize("wrapper", (_Forwarding, _ForwardingPredict, _PerTaskOnly))
@pytest.mark.parametrize("raw", list(_cases()))
def test_a_wrapped_problem_trains_to_the_same_bytes(raw, wrapper):
    exp, state = build_experiment(ExperimentConfig.from_dict(raw))
    wrapped = replace(exp, problem=wrapper(exp.problem))
    plain_state, plain_records = meta_train(exp, state)
    wrapped_state, wrapped_records = meta_train(wrapped, state)
    assert wrapped_state.x.values.tobytes() == plain_state.x.values.tobytes()
    assert metrics_to_jsonl(wrapped_records) == metrics_to_jsonl(plain_records)
    assert meta_evaluate(wrapped, plain_state, 5) == meta_evaluate(exp, plain_state, 5)


# HOAG's batch CG also applies the map to rows that have converged, so it
# calls hvp_yy more often than the rows' solves alone would
@pytest.mark.parametrize("raw", [c for c in _cases() if c.id != "HOAG"])
def test_a_forwarding_wrapper_sees_the_calls_of_a_per_task_loop(raw):
    # the batch methods it forwards never stand in for the oracles it overrides
    raw["run"]["eval_every"] = 100
    exp, state = build_experiment(ExperimentConfig.from_dict(raw))
    batched = replace(exp, problem=_Forwarding(exp.problem))
    looped = replace(exp, problem=_Forwarding(exp.problem))
    meta_train(batched, state)
    for _ in range(raw["run"]["meta_iterations"]):
        state, _, _ = _per_task_round(looped, state)
    assert batched.problem.calls == looped.problem.calls
    assert batched.problem.calls["grad_y"] > 0


def test_a_subclass_that_overrides_at_trains_to_the_same_bytes():
    # a subclass that changes an oracle of a built-in problem overrides at,
    # whose points the trainer reads every oracle from
    calls = []

    class Counted(MetaFeatureSoftmax):
        def at(self, x, ys, batch, split):
            point = super().at(x, ys, batch, split)
            grad_y = point.grad_y

            def counted():
                calls.append((split, len(ys)))
                return grad_y()

            point.grad_y = counted
            return point

    exp, state = build_experiment(ExperimentConfig.from_dict(_raw("RHG")))
    sub = replace(exp, problem=Counted(DATA["dim"], 16, DATA["way"], Regularizer.l2(0.01)))
    plain_state, plain_records = meta_train(exp, state)
    sub_state, sub_records = meta_train(sub, state)
    assert sub_state.x.values.tobytes() == plain_state.x.values.tobytes()
    assert metrics_to_jsonl(sub_records) == metrics_to_jsonl(plain_records)
    # per meta-iteration: T inner steps and the validation gradient at y_T,
    # each over the whole batch; plus the T inner steps of one evaluation of
    # 6 tasks after meta-iteration 2
    steps, tasks = exp.inner_config.steps, DATA["batch_size"]
    assert Counter(calls) == {
        (Split.TRAIN, tasks): 3 * steps,
        (Split.VAL, tasks): 3,
        (Split.TRAIN, 6): steps,
    }


# cost model: one forward pass per (point, split) a meta-iteration visits.
# With T = 5 steps: the T train points the steps are taken from (and the T
# val points BDA mixes in), the val point at y_T, and the train point at
# y_T for the final inner loss, which HOAG's solve reads as well; DARTS
# adds its train points at y_T +- eps v.
_FORWARD_PASSES = {
    "RHG": 7, "TRHG": 7, "HOAG": 7, "BDA": 12, "MAML": 7,
    "MT-net": 7, "Meta-SGD": 7, "WarpGrad": 7, "FMAML": 7, "DARTS": 9,
}


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_a_meta_iteration_runs_one_forward_pass_per_point(monkeypatch, name):
    rows = []
    for cls, kernel in ((MetaFeatureSoftmax, "_logits"), (MetaInitMlp, "_forward")):

        def counted(*args, inner=getattr(cls, kernel)):
            rows.append(len(args[-1]))  # the input, (tasks, examples, dim)
            return inner(*args)

        monkeypatch.setattr(cls, kernel, counted)
    raw = _raw(name, meta_iterations=1, eval_every=100)
    meta_train(*build_experiment(ExperimentConfig.from_dict(raw)))
    # each pass covers the whole batch at once
    assert rows == [DATA["batch_size"]] * _FORWARD_PASSES[name]


# cost model: one feature map h = phi M^T per split a meta-iteration's inner
# run visits, shared by every point of the run on that split. That is the
# train split of the T steps (and of the final inner loss, of HOAG's solve
# and of DARTS's two difference points at y_T +- eps v) and the val split of
# y_T, whose map BDA's steps build already. An evaluation maps each of its
# two splits once.
_FEATURE_MAPS = {"RHG": 2, "TRHG": 2, "HOAG": 2, "BDA": 2, "DARTS": 2}


@pytest.mark.parametrize("name", sorted(_FEATURE_MAPS))
def test_a_meta_iteration_builds_one_feature_map_per_split(monkeypatch, name):
    rows = []

    def counted(self, x, phi, inner=MetaFeatureSoftmax._features):
        rows.append(len(phi))
        return inner(self, x, phi)

    monkeypatch.setattr(MetaFeatureSoftmax, "_features", counted)
    exp, state = build_experiment(ExperimentConfig.from_dict(
        _raw(name, meta_iterations=1, eval_every=100)
    ))
    meta_train(exp, state)
    assert rows == [DATA["batch_size"]] * _FEATURE_MAPS[name]
    rows.clear()
    meta_evaluate(exp, state, 6)
    assert rows == [6, 6]


def test_every_softmax_preset_has_a_feature_map_count():
    meta_feature = {
        name for name in METHOD_NAMES
        if compose_named_method(name).paradigm is Paradigm.META_FEATURE
    }
    assert meta_feature == set(_FEATURE_MAPS)


def test_a_recorded_bda_run_shares_one_feature_map_per_split():
    exp, state = build_experiment(ExperimentConfig.from_dict(_raw("BDA")))
    n = DATA["batch_size"]
    batch = sample_task_batch(exp.source, exp.episode_spec, RngStream(3, _TASK_STREAM))
    ys = init_task_params_batch(exp.paradigm, exp.problem, state.x, RngStream(3, _INIT_STREAM), n)
    kept = run_inner_batch(exp.inner_config, exp.problem, state.x, ys, batch, record=True)
    steps = exp.inner_config.steps
    for split in Split:
        h = kept.parts(split).h
        assert h.shape[0] == n
        # the points the steps were taken from, and the ones at y_T
        assert all(kept.at(t, split).h is h for t in range(steps + 1))


def test_the_quadratic_trains_and_evaluates_through_its_per_task_oracles():
    exp, state = build_experiment(ExperimentConfig.from_dict(_raw("RHG", QUADRATIC)))
    calls = []
    for name in ("value", "grad_y", "grad_x", "hvp_yy", "cross_hvp"):

        def counted(*args, inner=getattr(exp.problem, name), name=name):
            calls.append(name)
            return inner(*args)

        setattr(exp.problem, name, counted)
    state, records = meta_train(exp, state)
    steps, tasks = exp.inner_config.steps, exp.cfg.data.batch_size
    # per task: T inner steps, the reverse sweep's T hvp_yy and cross_hvp,
    # value/grad_y/grad_x at y_T, and the final inner loss; plus one
    # evaluation of 6 tasks after meta-iteration 2
    assert calls.count("hvp_yy") == calls.count("cross_hvp") == 3 * tasks * steps
    assert calls.count("grad_x") == 3 * tasks
    assert calls.count("grad_y") == 3 * tasks * (steps + 1) + 6 * steps
    assert calls.count("value") == 3 * tasks * 2 + 6
    assert records[1].eval_post_adapt_accuracy is None
    assert np.isfinite(records[1].eval_post_adapt_loss)
