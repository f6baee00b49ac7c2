"""Machine-independent cost counts at the benchmark's reference shape.

Call counts do not move with the host's speed, so they pin a cost that
timing alone could not resolve. A change that moves a count updates it here
and says why.
"""

import tracemalloc

import pytest

import bilevelopt.hypergrad as hg
import bilevelopt.inner as inner_mod
from bilevelopt import (
    METHOD_NAMES,
    ExperimentConfig,
    Paradigm,
    RngStream,
    build_experiment,
    compose_named_method,
    compute_hypergradient,
    init_task_params,
    meta_evaluate,
    meta_train,
    run_inner,
    sample_task_batch,
)
from bilevelopt.objectives import _MlpPoint, _SoftmaxPoint

# the reference shape: 5-way 1-shot 15-query episodes over 20 synthetic
# classes of dimension 8, 5 inner steps, the softmax head on 16 features
REFERENCE = {
    "data": {
        "source": "synthetic", "num_classes": 20, "dim": 8, "cluster_spread": 10.0,
        "noise_sd": 0.5, "way": 5, "shot": 1, "query": 15, "batch_size": 4,
    },
    "problem": {"kind": "feature_softmax", "dim_feat": 16, "reg": "l2", "reg_coef": 0.01},
    "inner": {"steps": 5, "step_size": 0.05},
    "meta_opt": {"kind": "momentum", "lr": 0.01},
    "run": {"method": "HOAG", "meta_iterations": 1, "eval_every": 2, "seed": 2026},
}
# the meta-init presets' problem at the reference shape
MLP = {"kind": "mlp", "hidden": 16, "reg": "l2", "reg_coef": 0.01}
STEPS = REFERENCE["inner"]["steps"]


def _preset(name, batch_size=REFERENCE["data"]["batch_size"]):
    """An experiment of the named preset at the reference shape, one
    meta-iteration that does not evaluate."""
    raw = {
        **REFERENCE,
        "data": {**REFERENCE["data"], "batch_size": batch_size},
        "run": {**REFERENCE["run"], "method": name, "eval_every": 100},
    }
    if compose_named_method(name).paradigm is Paradigm.META_INIT:
        raw["problem"] = MLP
    return build_experiment(ExperimentConfig.from_dict(raw))


def _count(monkeypatch, owner, attr):
    """A list that grows by one entry at each call of owner.attr."""
    calls, inner = [], getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def test_hoag_solve_applies_the_map_once_per_iteration_and_check(monkeypatch):
    solve, solves = hg.conjugate_gradient_batch, []

    def counted(apply, b, *args, **kwargs):
        calls = [0]

        def apply_counted(v):
            calls[0] += 1
            return apply(v)

        out = solve(apply_counted, b, *args, **kwargs)
        solves.append((calls[0], out[1].tolist()))
        return out

    monkeypatch.setattr(hg, "conjugate_gradient_batch", counted)
    meta_train(*build_experiment(ExperimentConfig.from_dict(REFERENCE)))
    # one solve of 4 rows; the longest row's 31 iterations plus one
    # true-residual check at each of the 4 iterations where a row stops
    assert solves == [(35, [29, 24, 28, 31])]


# grad_y kernel runs: one per point whose gradient is read. The T steps read
# their train points' (and under BDA their val points') and the estimators
# the val point's at y_T. The sweeps under MT-net, Meta-SGD and WarpGrad read
# the steps' train gradients again, which those points answer without
# running the kernel a second time.
_GRAD_Y_RUNS = {name: STEPS + 1 for name in METHOD_NAMES} | {"BDA": 2 * STEPS + 1}


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_a_meta_iteration_runs_the_grad_y_kernel_once_per_point(monkeypatch, name):
    exp, state = _preset(name)
    calls = [_count(monkeypatch, cls, "_grad_y") for cls in (_SoftmaxPoint, _MlpPoint)]
    state, _ = meta_train(exp, state)
    assert sum(map(len, calls)) == _GRAD_Y_RUNS[name]
    for c in calls:
        c.clear()
    # an evaluation reads the gradients of its T steps alone
    meta_evaluate(exp, state, 6)
    assert sum(map(len, calls)) == _GRAD_Y_RUNS[name] - 1


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_a_run_builds_its_step_map_once_and_its_sweep_reuses_it(monkeypatch, name):
    exp, state = _preset(name)
    builds = _count(monkeypatch, inner_mod, "_step_map")
    state, _ = meta_train(exp, state)
    assert len(builds) == 1
    meta_evaluate(exp, state, 6)
    assert len(builds) == 2


@pytest.mark.parametrize("name", ["RHG", "BDA", "MAML", "MT-net", "Meta-SGD", "WarpGrad"])
def test_a_sweep_on_a_run_without_a_step_map_builds_it_once(monkeypatch, name):
    # the per-task path: the sweep gets the run's iterates, not its map
    exp, state = _preset(name)
    task = sample_task_batch(exp.source, exp.episode_spec, RngStream(1, 2)).tasks[0]
    y_0 = init_task_params(exp.paradigm, exp.problem, state.x, RngStream(1, 3))
    builds = _count(monkeypatch, inner_mod, "_step_map")
    traj = run_inner(exp.inner_config.rule, exp.inner_config, exp.problem, state.x, y_0, task)
    assert len(builds) == 1
    compute_hypergradient(exp.method, exp.problem, exp.paradigm, traj, state.x, task)
    assert len(builds) == 2


# (tasks, batch size, KB) per preset: perfbench's evaluation of each, and a
# bound just above the traced peak of one call (1013, 611, 2240 and 2487 KB).
# The sampled stacks own their memory, and the draw, the MLP's hidden layer
# and the grading cross-entropy are computed in place, so each large array
# is allocated once. A call whose heap grows past glibc's trim threshold
# hands the heap back at its end, and the next call faults it in again.
_EVAL_PEAK_KB = {
    "RHG": (40, 4, 1050),
    "MAML": (25, 4, 650),
    "FMAML": (100, 16, 2350),
    "DARTS": (100, 16, 2550),
}


@pytest.mark.parametrize("name", list(_EVAL_PEAK_KB))
def test_an_evaluation_holds_each_large_array_once(name):
    n_tasks, batch_size, bound_kb = _EVAL_PEAK_KB[name]
    exp, state = _preset(name, batch_size)
    meta_evaluate(exp, state, n_tasks)  # one-time set-up, such as the class centers
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        meta_evaluate(exp, state, n_tasks)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < bound_kb * 1024
