"""Machine-independent cost counts at the benchmark's reference shape.

Call counts do not move with the host's speed, so they pin a cost that
timing alone could not resolve. tests/cost_model.json holds, for every
preset at batch 4 and 16, the counts of one meta-iteration and of one
100-task evaluation after it; the test below rebuilds them through a
counting wrapper of the problem and asserts exact equality. A change that
moves a count regenerates the table,

    PYTHONPATH=src python tests/test_cost_model.py

and says why; a count that rises needs a reason.
"""

import json
import tracemalloc
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import pytest

import bilevelopt.hypergrad as hg
import bilevelopt.inner as inner_mod
from bilevelopt import (
    METHOD_NAMES,
    ExperimentConfig,
    MetaFeatureSoftmax,
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
BATCH_SIZES = (4, 16)
EVAL_TASKS = 100
TABLE = Path(__file__).with_name("cost_model.json")


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


class _Tally:
    """What one phase of a run built and asked."""

    def __init__(self):
        self.points = defaultdict(int)  # split -> points built
        self.parts = defaultdict(int)  # split -> split_parts built
        self.calls = defaultdict(lambda: [0, 0])  # "split.oracle" -> [calls, rows]
        self.feature_maps = 0
        self.cg = []  # [map applications, [iterations of each row]] per solve
        self.generators = 0
        self.grad_y_kernels = 0
        self.step_maps = 0

    def call(self, key, rows):
        self.calls[key][0] += 1
        self.calls[key][1] += rows

    def as_dict(self):
        return {
            "points": dict(sorted(self.points.items())),
            "parts": dict(sorted(self.parts.items())),
            "calls": dict(sorted(self.calls.items())),
            "feature_maps": self.feature_maps,
            "cg": self.cg,
            "generators": self.generators,
            "grad_y_kernels": self.grad_y_kernels,
            "step_maps": self.step_maps,
        }


class _CountedPoint:
    """A problem's point that counts each oracle call and the rows it carries."""

    def __init__(self, point, tally):
        self._point, self._tally = point, tally

    def __getattr__(self, name):
        return getattr(self._point, name)

    def _ask(self, oracle, *args):
        self._tally.call(f"{self._point.split.value}.{oracle}", len(self._point.ys))
        return getattr(self._point, oracle)(*args)

    def value(self):
        return self._ask("value")

    def grad_y(self):
        return self._ask("grad_y")

    def grad_x(self):
        return self._ask("grad_x")

    def hvp_yy(self, vs):
        return self._ask("hvp_yy", vs)

    def cross_hvp(self, vs):
        return self._ask("cross_hvp", vs)


class _Counting:
    """Forwards a problem's public interface, counting the parts and points
    it builds and the calls on them."""

    def __init__(self, problem):
        self._problem, self.tally = problem, _Tally()

    def __getattr__(self, name):
        return getattr(self._problem, name)

    def split_parts(self, x, batch, split):
        self.tally.parts[split.value] += 1
        return self._problem.split_parts(x, batch, split)

    def at(self, *args):
        point = self._problem.at(*args)
        self.tally.points[point.split.value] += 1
        return _CountedPoint(point, self.tally)

    def val_losses_and_scores(self, *args):
        losses, scores = self._problem.val_losses_and_scores(*args)
        self.tally.call("val.val_losses_and_scores", len(losses))
        return losses, scores


def _install_counters(monkeypatch, counting):
    """Count what the wrapper cannot see: feature maps, grad_y kernel runs,
    step maps, CG map applications and generators, into counting.tally."""

    def tally():
        return counting.tally

    def bump(owner, attr, field):
        inner = getattr(owner, attr)

        def counted(*args, **kwargs):
            setattr(tally(), field, getattr(tally(), field) + 1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    bump(MetaFeatureSoftmax, "_features", "feature_maps")
    bump(_SoftmaxPoint, "_grad_y", "grad_y_kernels")
    bump(_MlpPoint, "_grad_y", "grad_y_kernels")
    bump(inner_mod, "_step_map", "step_maps")
    bump(RngStream, "generator", "generators")
    solve = hg.conjugate_gradient_batch

    def counted_solve(apply, b, *args, **kwargs):
        applications = [0]

        def apply_counted(v):
            applications[0] += 1
            return apply(v)

        out = solve(apply_counted, b, *args, **kwargs)
        tally().cg.append([applications[0], out[1].tolist()])
        return out

    monkeypatch.setattr(hg, "conjugate_gradient_batch", counted_solve)


def _counts(monkeypatch, name, batch_size):
    """The counts of one meta-iteration of the preset and of one evaluation
    of EVAL_TASKS tasks after it."""
    exp, state = _preset(name, batch_size)
    counting = _Counting(exp.problem)
    exp = replace(exp, problem=counting)
    _install_counters(monkeypatch, counting)
    state, _ = meta_train(exp, state)
    train, counting.tally = counting.tally, _Tally()
    meta_evaluate(exp, state, EVAL_TASKS)
    return {"meta_iteration": train.as_dict(), "evaluation": counting.tally.as_dict()}


def _table():
    table = {}
    for name in METHOD_NAMES:
        for b in BATCH_SIZES:
            with pytest.MonkeyPatch.context() as mp:
                table.setdefault(name, {})[str(b)] = _counts(mp, name, b)
    return table


def _checked_in():
    return json.loads(TABLE.read_text())


def test_the_table_covers_every_preset_at_each_batch_size():
    assert {name: sorted(by_batch) for name, by_batch in _checked_in().items()} == {
        name: sorted(map(str, BATCH_SIZES)) for name in METHOD_NAMES
    }


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("name", METHOD_NAMES)
def test_counts_equal_the_checked_in_table(monkeypatch, name, batch_size):
    got = json.loads(json.dumps(_counts(monkeypatch, name, batch_size)))
    assert got == _checked_in()[name][str(batch_size)]


@pytest.mark.parametrize("name", ["RHG", "BDA", "MAML", "MT-net", "Meta-SGD", "WarpGrad"])
def test_run_inner_and_the_solo_run_of_compute_hypergradient_each_build_one_step_map(
    monkeypatch, name
):
    # the per-task path: run_inner's run builds the map its steps share;
    # compute_hypergradient gets the trajectory's iterates, not that run, so
    # the solo run it makes builds one more, which its whole sweep shares
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


def _dump(table) -> str:
    """The table as JSON, with the counts of each phase on one line."""
    presets = []
    for name, by_batch in table.items():
        batches = []
        for batch_size, phases in by_batch.items():
            lines = ",\n".join(
                f"   {json.dumps(phase)}: {json.dumps(counts)}" for phase, counts in phases.items()
            )
            batches.append(f"  {json.dumps(batch_size)}: {{\n{lines}\n  }}")
        presets.append(f" {json.dumps(name)}: {{\n" + ",\n".join(batches) + "\n }")
    return "{\n" + ",\n".join(presets) + "\n}\n"


if __name__ == "__main__":
    TABLE.write_text(_dump(_table()))
