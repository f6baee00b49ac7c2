"""The feature softmax's point kernels: answers written into their own rows
equal the concatenated products bit for bit at a shape the preset digests
do not cover, and the head R-op that hvp_yy keeps for cross_hvp changes no
answer and outlives no sweep."""

import weakref

import numpy as np
import pytest

from bilevelopt import (
    EpisodeSpec,
    InnerConfig,
    InnerRule,
    Paradigm,
    ParamVector,
    Regularizer,
    Reverse,
    RngStream,
    Split,
    SyntheticGaussian,
    make_meta_feature_softmax,
    sample_task_batch,
)
from bilevelopt.hypergrad import compute_hypergradient_batch
from bilevelopt.inner import run_inner_batch
from bilevelopt.numerics import segment_rows
from bilevelopt.objectives import _class_major, _SoftmaxPoint, _softmax_jvp

SPLITS = pytest.mark.parametrize("split", [Split.TRAIN, Split.VAL], ids=lambda s: s.value)
WAY, DIM_FEAT, DIM_IN = 8, 7, 5


def _setting(tasks, seed, extra_x=False):
    """A way-8 softmax problem, a batch of `tasks` episodes, x (with an
    extra segment the problem does not read, if asked), and stacks ys, vs."""
    prob = make_meta_feature_softmax(DIM_IN, DIM_FEAT, WAY, reg=Regularizer.l2(0.01))
    source = SyntheticGaussian(
        num_classes=12, dim=DIM_IN, cluster_spread=4.0, noise_sd=0.5, seed=3
    )
    spec = EpisodeSpec(way=WAY, shot=2, query=5, batch_size=tasks)
    batch = sample_task_batch(source, spec, RngStream(seed, 1))
    layout = prob.x_layout.extended("rates", 3) if extra_x else prob.x_layout
    gen = np.random.default_rng(seed)
    x = ParamVector(layout, 0.5 * gen.standard_normal(layout.dim))
    ys = 0.5 * gen.standard_normal((tasks, prob.y_layout.dim))
    vs = gen.standard_normal((tasks, prob.y_layout.dim))
    return prob, batch, x, ys, vs


def _at(prob, x, ys, batch, split):
    return prob.at(prob.split_parts(x, batch, split), ys)


def _concatenated(point, ys, vs):
    """Every answer of the point built as concatenated products, each part
    computed alone and joined behind the task axis."""
    prob, h, phi, lead = point.problem, point.h, point.phi, ys.shape[:-1]
    k = WAY * DIM_FEAT

    def head(stack):
        w = stack[..., :k].reshape(lead + (WAY, DIM_FEAT))
        return w, stack[..., k:].reshape(lead + (WAY, 1))

    def joined(a):
        parts = ((a.swapaxes(-1, -2) @ h).reshape(lead + (-1,)), a.sum(axis=-2))
        return np.concatenate(parts, axis=-1)

    def in_feat(a):
        gm = a.swapaxes(-1, -2) @ phi
        return segment_rows(point.x.layout, "feat", gm.reshape(lead + (-1,)))

    w, c = head(ys)
    vw, vb = head(vs)
    u = _softmax_jvp(point.p, _class_major(vw, h, vb)) / h.shape[-2]
    grad_y, hvp = joined(point.delta), joined(u)
    if point.split is Split.TRAIN:
        grad_y += prob.reg.grad(ys)
        hvp += prob.reg.hvp(vs)
    return {
        "scores": _class_major(w, h, c),
        "grad_y": grad_y,
        "grad_x": in_feat(point.delta @ w),
        "hvp_yy": hvp,
        "cross_hvp": in_feat(point.delta @ vw + u @ w),
    }


@SPLITS
@pytest.mark.parametrize("extra_x", [False, True], ids=["x", "x-extended"])
@pytest.mark.parametrize("tasks", [1, 3])
def test_kernels_that_write_their_rows_equal_the_concatenated_products_bit_for_bit(
    tasks, extra_x, split
):
    prob, batch, x, ys, vs = _setting(tasks, 20 + tasks, extra_x)
    point = _at(prob, x, ys, batch, split)
    got = {
        "scores": point.scores, "grad_y": point.grad_y(), "grad_x": point.grad_x(),
        "hvp_yy": point.hvp_yy(vs), "cross_hvp": point.cross_hvp(vs),
    }
    want = _concatenated(point, ys, vs)
    for name, answer in got.items():
        assert answer.shape == want[name].shape, name
        assert answer.tobytes() == want[name].tobytes(), name
    # segments the problem does not read stay zero
    assert not point.grad_x()[:, prob.x_layout.dim:].any()


def _count_head_jvps(monkeypatch):
    calls = []
    inner = _SoftmaxPoint._head_jvp

    def counted(self, v):
        calls.append(v)
        return inner(self, v)

    monkeypatch.setattr(_SoftmaxPoint, "_head_jvp", counted)
    return calls


@SPLITS
def test_a_read_only_direction_gives_a_fresh_points_answers_from_one_head_r_op(
    monkeypatch, split
):
    prob, batch, x, ys, vs = _setting(3, 4)
    vs.setflags(write=False)
    want_hvp = _at(prob, x, ys, batch, split).hvp_yy(vs)
    want_cross = _at(prob, x, ys, batch, split).cross_hvp(vs)
    calls = _count_head_jvps(monkeypatch)
    point = _at(prob, x, ys, batch, split)
    assert point.hvp_yy(vs).tobytes() == want_hvp.tobytes()
    assert point.cross_hvp(vs).tobytes() == want_cross.tobytes()
    assert len(calls) == 1
    # the R-op went with the cross_hvp: the next one computes its own
    assert point.cross_hvp(vs).tobytes() == want_cross.tobytes()
    assert len(calls) == 2


def _writeable(vs):
    return vs, vs


def _read_only_view(vs):
    view = vs[:]
    view.setflags(write=False)
    return vs, view


@SPLITS
@pytest.mark.parametrize(
    "direction", [_writeable, _read_only_view], ids=["writeable", "read-only-view"]
)
def test_a_direction_changed_after_hvp_yy_gets_the_cross_hvp_of_its_new_values(
    monkeypatch, direction, split
):
    prob, batch, x, ys, vs = _setting(3, 5)
    base, v = direction(vs.copy())
    calls = _count_head_jvps(monkeypatch)
    point = _at(prob, x, ys, batch, split)
    point.hvp_yy(v)
    base *= -2.0
    base[0, 3] = 7.0
    want = _at(prob, x, ys, batch, split).cross_hvp(base.copy())
    assert point.cross_hvp(v).tobytes() == want.tobytes()
    # a direction that may change is never kept
    assert len(calls) == 3


@SPLITS
def test_after_cross_hvp_a_point_holds_no_direction(split):
    prob, batch, x, ys, vs = _setting(3, 6)
    point = _at(prob, x, ys, batch, split)
    for other in (False, True):
        v = vs.copy()
        v.setflags(write=False)
        kept = weakref.ref(v)
        point.hvp_yy(v)
        point.cross_hvp(vs.copy() if other else v)
        del v
        assert kept() is None, other


@pytest.mark.parametrize("rule", [InnerRule.GD, InnerRule.BDA], ids=["RHG", "BDA"])
def test_a_reverse_sweep_computes_one_head_r_op_per_point_and_step_and_keeps_none(
    monkeypatch, rule
):
    prob, batch, x, _, _ = _setting(3, 7)
    ys = np.zeros((3, prob.y_layout.dim))
    config = InnerConfig(steps=4, step_size=0.3, rule=rule)
    run = run_inner_batch(config, prob, x, ys, batch, record=True)
    swept = []
    hvp_yy = _SoftmaxPoint._hvp_yy

    def recorded(self, v):
        swept.append(weakref.ref(self))
        return hvp_yy(self, v)

    monkeypatch.setattr(_SoftmaxPoint, "_hvp_yy", recorded)
    calls = _count_head_jvps(monkeypatch)
    compute_hypergradient_batch(Reverse(), Paradigm.META_FEATURE, run)
    points_per_step = 2 if rule is InnerRule.BDA else 1
    assert len(swept) == len(calls) == config.steps * points_per_step
    # the run keeps its points, and none of them keeps a direction
    assert all(ref() is not None and ref()._kept is None for ref in swept)
