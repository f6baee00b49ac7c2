"""The feature softmax's point kernels: answers written into their own rows
equal the concatenated products bit for bit at a shape the preset digests
do not cover, the head R-op that hvp_yy keeps for cross_hvp changes no
answer and outlives no sweep, and with the identity feature map the
softmax is the MLP without a hidden layer, bit for bit."""

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
    fd_hvp,
    make_meta_feature_softmax,
    make_meta_init_mlp,
    sample_task_batch,
)
from bilevelopt.hypergrad import compute_hypergradient_batch
from bilevelopt.inner import run_inner_batch
from bilevelopt.numerics import segment_rows
from bilevelopt.objectives import _class_major, _softmax_jvp, _TaskAxisPoint

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
    inner = _TaskAxisPoint._head_jvp

    def counted(self, v):
        calls.append(v)
        return inner(self, v)

    monkeypatch.setattr(_TaskAxisPoint, "_head_jvp", counted)
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
    hvp_yy = _TaskAxisPoint._hvp_yy

    def recorded(self, v):
        swept.append(weakref.ref(self))
        return hvp_yy(self, v)

    monkeypatch.setattr(_TaskAxisPoint, "_hvp_yy", recorded)
    calls = _count_head_jvps(monkeypatch)
    compute_hypergradient_batch(Reverse(), Paradigm.META_FEATURE, run)
    points_per_step = 2 if rule is InnerRule.BDA else 1
    assert len(swept) == len(calls) == config.steps * points_per_step
    # the run keeps its points, and none of them keeps a direction
    assert all(ref() is not None and ref()._kept is None for ref in swept)


WIDE_WAY, WIDE_FEAT, WIDE_TASKS = 20, 64, 8
# relative error of hvp_yy against central differences along a random
# direction at the wide shape: at most 1.9e-9 measured over the three
# directions below on each split, so 100x that, rounded up to a decade
FD_HVP_REL_TOL = 1e-6


@pytest.fixture(scope="module")
def wide_setting():
    """A way-20 softmax problem on 64 features, 8 tasks of 5-shot 15-query
    episodes, where BLAS blocks the head's products as it does at scale."""
    prob = make_meta_feature_softmax(WIDE_FEAT, WIDE_FEAT, WIDE_WAY, reg=Regularizer.l2(0.01))
    source = SyntheticGaussian(
        num_classes=24, dim=WIDE_FEAT, cluster_spread=4.0, noise_sd=0.5, seed=5
    )
    spec = EpisodeSpec(way=WIDE_WAY, shot=5, query=15, batch_size=WIDE_TASKS)
    batch = sample_task_batch(source, spec, RngStream(9, 1))
    gen = np.random.default_rng(9)
    x = ParamVector(prob.x_layout, gen.standard_normal(prob.x_layout.dim) / WIDE_FEAT)
    ys = 0.1 * gen.standard_normal((WIDE_TASKS, prob.y_layout.dim))
    vs = gen.standard_normal((WIDE_TASKS, prob.y_layout.dim))
    return prob, batch, x, ys, vs


@SPLITS
def test_wide_stacked_curvature_rows_equal_the_per_task_oracles_bit_for_bit(wide_setting, split):
    prob, batch, x, ys, vs = wide_setting
    point = _at(prob, x, ys, batch, split)
    hvp, cross = point.hvp_yy(vs), point.cross_hvp(vs)
    layout = prob.y_layout
    for j, task in enumerate(batch.tasks):
        y, v = ParamVector(layout, ys[j]), ParamVector(layout, vs[j])
        assert hvp[j].tobytes() == prob.hvp_yy(x, y, task, split, v).values.tobytes(), j
        assert cross[j].tobytes() == prob.cross_hvp(x, y, task, split, v).values.tobytes(), j


@SPLITS
def test_wide_hvp_yy_agrees_with_central_differences(wide_setting, split):
    prob, batch, x, ys, _ = wide_setting
    # the per-task oracle's answer is the stacked row's, bit for bit (above)
    task, y = batch.tasks[0], ParamVector(prob.y_layout, ys[0])
    gen = np.random.default_rng(10)
    for _ in range(3):
        v = ParamVector(prob.y_layout, gen.standard_normal(prob.y_layout.dim))
        exact = prob.hvp_yy(x, y, task, split, v).values
        fd = fd_hvp(lambda z: prob.grad_y(x, z, task, split), y, v)
        err = np.linalg.norm(fd.values - exact) / np.linalg.norm(exact)
        assert err <= FD_HVP_REL_TOL


@SPLITS
@pytest.mark.parametrize(
    "way, dim, tasks", [(WAY, DIM_IN, 3), (WIDE_WAY, WIDE_FEAT, WIDE_TASKS)], ids=["way8", "wide"]
)
def test_with_identity_features_the_softmax_is_the_bare_mlp_bit_for_bit(way, dim, tasks, split):
    # one network kernel: the softmax runs the MLP without a hidden layer on
    # h = phi M^T, which is phi itself for M = I
    reg = Regularizer.l2(0.01)
    softmax = make_meta_feature_softmax(dim, dim, way, reg=reg)
    mlp = make_meta_init_mlp(dim, 0, way, reg=reg)
    source = SyntheticGaussian(
        num_classes=way + 4, dim=dim, cluster_spread=4.0, noise_sd=0.5, seed=3
    )
    spec = EpisodeSpec(way=way, shot=2, query=5, batch_size=tasks)
    batch = sample_task_batch(source, spec, RngStream(11, 1))
    gen = np.random.default_rng(11)
    ys = 0.5 * gen.standard_normal((tasks, mlp.y_layout.dim))
    vs = gen.standard_normal(ys.shape)
    identity = ParamVector(softmax.x_layout, np.eye(dim).ravel())
    init = ParamVector(mlp.x_layout, gen.standard_normal(mlp.x_layout.dim))
    soft_point, mlp_point = (
        prob.at(prob.split_parts(x, batch, split), ys)
        for prob, x in ((softmax, identity), (mlp, init))
    )
    # two public problems, neither an instance of the other
    assert not isinstance(softmax, type(mlp)) and not isinstance(mlp, type(softmax))
    assert soft_point.h.tobytes() == mlp_point.h.tobytes()
    for name in ("value", "grad_y"):
        got, want = getattr(soft_point, name)(), getattr(mlp_point, name)()
        assert got.tobytes() == want.tobytes(), name
    assert soft_point.hvp_yy(vs).tobytes() == mlp_point.hvp_yy(vs).tobytes()
