"""Inner adaptation dynamics: update rules, trajectory storage, and the
transposed-Jacobian products that drive reverse-mode estimators."""

import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from bilevelopt import (
    BilevelObjective,
    InnerConfig,
    InnerRule,
    Layout,
    MissingSegment,
    NonFiniteValue,
    Paradigm,
    ParamVector,
    Regularizer,
    Reverse,
    RngStream,
    Split,
    fd_gradient,
    fd_hypergradient,
    hypergrad_reverse,
    init_task_params,
    init_task_params_batch,
    inner_step,
    make_meta_init_mlp,
    make_quadratic,
    required_x_segments,
    run_inner,
    step_transposed_jvps,
)
from bilevelopt.hypergrad import compute_hypergradient_batch
from bilevelopt.inner import (
    DEFAULT_INIT_SD,
    InnerRun,
    _step_map,
    run_inner_batch,
    sigmoid,
    softplus,
    softplus_inverse,
    step_points,
    step_transposed_jvps_batch,
)

from conftest import DIM_IN, WAY

ALL_RULES = (
    InnerRule.GD,
    InnerRule.META_SGD,
    InnerRule.BDA,
    InnerRule.MTNET_MASK,
    InnerRule.WARP_GRAD_DIAG,
)


def _extended_x(problem, rule, seed=0, base=None):
    """x carrying the problem's own segments plus whatever the rule needs."""
    layout = problem.x_layout
    for name, length in required_x_segments(rule, problem.y_layout):
        layout = layout.extended(name, length)
    gen = RngStream(seed, 50).generator()
    values = 0.4 * gen.standard_normal(layout.dim)
    x = ParamVector(layout, values)
    if base is not None:
        for seg in problem.x_layout.segments:
            x = x.with_segment(seg.name, base.segment(seg.name))
    return x


# --------------------------------------------------------------------------
# softplus / sigmoid helpers
# --------------------------------------------------------------------------


def test_softplus_is_positive_and_invertible():
    z = np.array([-30.0, -1.0, 0.0, 1.0, 30.0])
    s = softplus(z)
    assert np.all(s > 0)
    for target in (1e-4, 0.1, 1.0, 10.0):
        assert softplus(np.array([softplus_inverse(target)]))[0] == pytest.approx(
            target, rel=1e-9
        )


@pytest.mark.parametrize("s", [710.0, 1e4, 1e300])
def test_softplus_inverse_of_a_large_value_is_exact_and_warns_nothing(s):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = softplus_inverse(s)
    assert softplus(np.array([r]))[0] == s


def test_sigmoid_is_stable_at_extremes():
    z = np.array([-800.0, 0.0, 800.0])
    s = sigmoid(z)
    assert np.all(np.isfinite(s))
    assert s[0] == pytest.approx(0.0, abs=1e-300)
    assert s[1] == pytest.approx(0.5)
    assert s[2] == pytest.approx(1.0)


# --------------------------------------------------------------------------
# configuration and rule requirements
# --------------------------------------------------------------------------


def test_inner_config_validation():
    with pytest.raises(ValueError):
        InnerConfig(steps=-1, step_size=0.1)
    with pytest.raises(ValueError):
        InnerConfig(steps=1, step_size=0.0)
    with pytest.raises(ValueError):
        InnerConfig(steps=1, step_size=0.1, bda_alpha=1.5)


def test_required_segments_per_rule():
    y_layout = Layout([("w", 4), ("b", 2)])
    assert required_x_segments(InnerRule.GD, y_layout) == ()
    assert required_x_segments(InnerRule.BDA, y_layout) == ()
    assert required_x_segments(InnerRule.META_SGD, y_layout) == (("rates", 6),)
    assert required_x_segments(InnerRule.MTNET_MASK, y_layout) == (
        ("mask_logits", 2),
    )
    assert required_x_segments(InnerRule.WARP_GRAD_DIAG, y_layout) == (
        ("warp_logdiag", 6),
    )


def test_rules_raise_without_their_segment(quad2):
    cfg = InnerConfig(steps=1, step_size=0.1)
    x = ParamVector.zeros(quad2.x_layout)
    y = ParamVector.zeros(quad2.y_layout)
    for rule in (InnerRule.META_SGD, InnerRule.MTNET_MASK, InnerRule.WARP_GRAD_DIAG):
        with pytest.raises(MissingSegment):
            inner_step(rule, cfg, quad2, x, y, None)


# --------------------------------------------------------------------------
# initialization
# --------------------------------------------------------------------------


def test_meta_init_copies_the_init_segment():
    prob = make_quadratic([[1.0, 0.0], [0.0, 1.0]], 1.0, [0.0, 0.0])
    layout = Layout([("init", 2)])
    x = ParamVector(layout, [0.3, -0.4])
    y0 = init_task_params(Paradigm.META_INIT, prob, x, RngStream(0, 0))
    assert np.array_equal(y0.values, [0.3, -0.4])
    assert y0.layout == prob.y_layout
    with pytest.raises(MissingSegment):
        init_task_params(Paradigm.META_INIT, prob, ParamVector.zeros(prob.x_layout), RngStream(0, 0))


def test_meta_feature_init_is_small_and_stream_deterministic(quad2):
    x = ParamVector.zeros(quad2.x_layout)
    a = init_task_params(Paradigm.META_FEATURE, quad2, x, RngStream(4, 9))
    b = init_task_params(Paradigm.META_FEATURE, quad2, x, RngStream(4, 9))
    c = init_task_params(Paradigm.META_FEATURE, quad2, x, RngStream(4, 10))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.inf_norm() < 0.1  # default scale is 0.01


def test_one_task_init_is_the_scaled_normal_draw_of_its_stream(quad2):
    x = ParamVector.zeros(quad2.x_layout)
    y0 = init_task_params(Paradigm.META_FEATURE, quad2, x, RngStream(4, 9))
    expected = DEFAULT_INIT_SD * RngStream(4, 9).generator().standard_normal(quad2.y_layout.dim)
    assert np.array_equal(y0.values, expected)


def test_batch_init_fills_rows_from_one_draw_in_task_order(softmax_problem):
    x = ParamVector.zeros(softmax_problem.x_layout)
    dim, rng = softmax_problem.y_layout.dim, RngStream(2, 5)
    ys = init_task_params_batch(Paradigm.META_FEATURE, softmax_problem, x, rng, 6)
    assert np.array_equal(ys, DEFAULT_INIT_SD * rng.generator().standard_normal((6, dim)))
    fewer = init_task_params_batch(Paradigm.META_FEATURE, softmax_problem, x, rng, 2)
    assert np.array_equal(ys[:2], fewer)
    one = init_task_params(Paradigm.META_FEATURE, softmax_problem, x, rng)
    assert np.array_equal(ys[0], one.values)


def test_batch_meta_init_copies_the_init_segment_into_every_row():
    prob = make_quadratic([[1.0, 0.0], [0.0, 1.0]], 1.0, [0.0, 0.0])
    x = ParamVector(Layout([("init", 2)]), [0.3, -0.4])
    ys = init_task_params_batch(Paradigm.META_INIT, prob, x, RngStream(0, 0), 3)
    assert np.array_equal(ys, [[0.3, -0.4]] * 3)


# --------------------------------------------------------------------------
# one-step update rules against hand formulas
# --------------------------------------------------------------------------


def test_gd_one_step_reaches_the_scalar_minimizer():
    # s = 0.5 makes 1 - s(1+lam) vanish, so one step lands on y*(x)
    prob = make_quadratic(2.0, 1.0, 1.0)
    cfg = InnerConfig(steps=1, step_size=0.5)
    x = ParamVector(prob.x_layout, [2.0])
    y = ParamVector(prob.y_layout, [0.0])
    y1 = inner_step(InnerRule.GD, cfg, prob, x, y, None)
    assert y1.values[0] == pytest.approx(2.0)
    assert y1.values[0] == pytest.approx(prob.y_star(x).values[0])


def test_meta_sgd_uses_per_coordinate_softplus_rates(quad2):
    x = _extended_x(quad2, InnerRule.META_SGD, seed=1)
    y = ParamVector(quad2.y_layout, [0.4, -0.2])
    cfg = InnerConfig(steps=1, step_size=0.1, rule=InnerRule.META_SGD)
    got = inner_step(InnerRule.META_SGD, cfg, quad2, x, y, None)
    g = quad2.grad_y(x, y, None, Split.TRAIN)
    want = y.values - softplus(x.segment("rates")) * g.values
    assert np.allclose(got.values, want, atol=1e-14)


def test_bda_mixes_train_and_val_descent_directions(quad2):
    x = _extended_x(quad2, InnerRule.BDA, seed=2)
    y = ParamVector(quad2.y_layout, [0.7, 0.1])
    alpha = 0.3
    cfg = InnerConfig(steps=1, step_size=0.2, rule=InnerRule.BDA, bda_alpha=alpha)
    got = inner_step(InnerRule.BDA, cfg, quad2, x, y, None)
    g_tr = quad2.grad_y(x, y, None, Split.TRAIN)
    g_val = quad2.grad_y(x, y, None, Split.VAL)
    want = y.values - 0.2 * (alpha * g_tr.values + (1 - alpha) * g_val.values)
    assert np.allclose(got.values, want, atol=1e-14)


def test_bda_alpha_one_is_plain_gd(quad2):
    x = ParamVector(quad2.x_layout, [0.5, -1.0])
    y0 = ParamVector(quad2.y_layout, [0.2, 0.9])
    cfg_gd = InnerConfig(steps=7, step_size=0.2, rule=InnerRule.GD)
    cfg_bda = InnerConfig(steps=7, step_size=0.2, rule=InnerRule.BDA, bda_alpha=1.0)
    t_gd = run_inner(InnerRule.GD, cfg_gd, quad2, x, y0, None)
    t_bda = run_inner(InnerRule.BDA, cfg_bda, quad2, x, y0, None)
    for a, b in zip(t_gd.iterates, t_bda.iterates):
        assert np.array_equal(a.values, b.values)


def test_mtnet_mask_broadcasts_per_segment(softmax_problem, small_task):
    x = _extended_x(softmax_problem, InnerRule.MTNET_MASK, seed=3)
    gen = RngStream(3, 51).generator()
    y = ParamVector(softmax_problem.y_layout, 0.3 * gen.standard_normal(21))
    cfg = InnerConfig(steps=1, step_size=0.25, rule=InnerRule.MTNET_MASK)
    got = inner_step(InnerRule.MTNET_MASK, cfg, softmax_problem, x, y, small_task)
    g = softmax_problem.grad_y(x, y, small_task, Split.TRAIN)
    m = sigmoid(x.segment("mask_logits"))
    mask_full = np.concatenate(
        [np.full(seg.length, m[i]) for i, seg in enumerate(softmax_problem.y_layout.segments)]
    )
    want = y.values - 0.25 * mask_full * g.values
    assert np.allclose(got.values, want, atol=1e-14)


def test_warp_scales_gradient_by_exp_diagonal(quad2):
    x = _extended_x(quad2, InnerRule.WARP_GRAD_DIAG, seed=4)
    y = ParamVector(quad2.y_layout, [-0.3, 0.6])
    cfg = InnerConfig(steps=1, step_size=0.15, rule=InnerRule.WARP_GRAD_DIAG)
    got = inner_step(InnerRule.WARP_GRAD_DIAG, cfg, quad2, x, y, None)
    g = quad2.grad_y(x, y, None, Split.TRAIN)
    want = y.values - 0.15 * np.exp(x.segment("warp_logdiag")) * g.values
    assert np.allclose(got.values, want, atol=1e-14)


def test_warp_at_zero_log_diagonal_is_gd(quad2):
    base = ParamVector(quad2.x_layout, [0.4, -0.9])
    layout = quad2.x_layout.extended("warp_logdiag", 2)
    x_warp = ParamVector.zeros(layout)
    x_warp = x_warp.with_segment("theta", base.segment("theta"))
    y0 = ParamVector(quad2.y_layout, [1.0, -1.0])
    cfg_gd = InnerConfig(steps=5, step_size=0.2)
    cfg_w = InnerConfig(steps=5, step_size=0.2, rule=InnerRule.WARP_GRAD_DIAG)
    t_gd = run_inner(InnerRule.GD, cfg_gd, quad2, base, y0, None)
    t_w = run_inner(InnerRule.WARP_GRAD_DIAG, cfg_w, quad2, x_warp, y0, None)
    assert np.allclose(t_gd.y_final.values, t_w.y_final.values, atol=1e-12)


def test_nonfinite_step_is_caught():
    class Exploding(BilevelObjective):
        def __init__(self):
            self.x_layout = Layout([("theta", 1)])
            self.y_layout = Layout([("y", 1)])

        def value(self, x, y, task, split):
            return 0.0

        def grad_y(self, x, y, task, split):
            return ParamVector(self.y_layout, [np.inf])

        def hvp_yy(self, x, y, task, split, v):
            return v

    prob = Exploding()
    cfg = InnerConfig(steps=1, step_size=0.1)
    with pytest.raises(NonFiniteValue):
        inner_step(
            InnerRule.GD, cfg, prob,
            ParamVector.zeros(prob.x_layout),
            ParamVector.zeros(prob.y_layout),
            None,
        )


def test_an_overflowing_warp_raises_without_a_numpy_warning(softmax_problem, small_batch):
    # the step map is built under its caller's errstate, so exp's overflow in
    # the warp reaches the caller as the finiteness checks' errors alone;
    # here the map and the transposed products run under one, as in a sweep
    rule = InnerRule.WARP_GRAD_DIAG
    x = _extended_x(softmax_problem, rule, seed=8)
    x = x.with_segment("warp_logdiag", np.full(softmax_problem.y_layout.dim, 1e3))
    cfg = InnerConfig(steps=2, step_size=0.1, rule=rule)
    ys = init_task_params_batch(Paradigm.META_FEATURE, softmax_problem, x, RngStream(4), 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match="inner step under rule warp_grad_diag"):
            run_inner_batch(cfg, softmax_problem, x, ys, small_batch)
        parts = partial(softmax_problem.split_parts, x, small_batch)
        points = step_points(cfg, lambda split: softmax_problem.at(parts(split), ys))
        g = np.zeros((len(ys), x.layout.dim))
        with np.errstate(over="ignore", invalid="ignore"):
            step_map = _step_map(cfg, x, softmax_problem.y_layout)
            with pytest.raises(NonFiniteValue, match="transposed products under rule"):
                step_transposed_jvps_batch(cfg, points, np.ones_like(ys), step_map, g)


def _meta_init_x(problem, rule, init, **segments):
    """A meta-init x: the y vector init in "init", and each named rule
    segment filled with its value."""
    layout = problem.x_layout
    for name, length in required_x_segments(rule, problem.y_layout):
        layout = layout.extended(name, length)
    x = ParamVector.zeros(layout).with_segment("init", init)
    for name, value in segments.items():
        x = x.with_segment(name, np.full(layout.length_of(name), value))
    return x


# MLP layers of 1e308 that overflow a run's forward pass, and how it ends:
# output weights and biases overflow the logits to inf, whose softmax is
# NaN, so the step's finiteness check speaks; hidden weights overflow the
# pre-activations to +-inf, which tanh saturates to +-1 (slope 0), so every
# y stays finite and the run's own catch of the overflow speaks
_FORWARD_OVERFLOWS = {
    "logits": ({"b0": 1.0, "w1": 1e308, "b1": 1e308}, " produced non-finite y$"),
    "tanh": ({"w0": 1e308, "w1": 0.1}, ": overflow$"),
}


@pytest.mark.parametrize("overflow", sorted(_FORWARD_OVERFLOWS))
@pytest.mark.parametrize(
    "rule, step_size, segments",
    ((InnerRule.GD, 0.05, {}), (InnerRule.META_SGD, 1.0, {"rates": softplus_inverse(0.05)})),
    ids=["gd", "meta_sgd"],
)
def test_a_run_whose_forward_pass_overflows_raises_without_a_numpy_warning(
    rule, step_size, segments, overflow, small_batch
):
    fills, ending = _FORWARD_OVERFLOWS[overflow]
    prob = make_meta_init_mlp(DIM_IN, 4, WAY)
    y = ParamVector.zeros(prob.y_layout)
    for name, value in fills.items():
        y = y.with_segment(name, np.full(prob.y_layout.length_of(name), value))
    x = _meta_init_x(prob, rule, y.values, **segments)
    cfg = InnerConfig(steps=2, step_size=step_size, rule=rule)
    ys = init_task_params_batch(Paradigm.META_INIT, prob, x, RngStream(2), len(small_batch))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match=f"inner step under rule {rule.value}{ending}"):
            run_inner_batch(cfg, prob, x, ys, small_batch)


@pytest.mark.parametrize(
    "rule, step_size, segments",
    ((InnerRule.GD, 1e308, {}), (InnerRule.META_SGD, 1.0, {"rates": 1e300})),
    ids=["gd", "meta_sgd"],
)
def test_a_sweep_whose_products_overflow_raises_without_a_numpy_warning(
    rule, step_size, segments, small_batch
):
    # a step of 1e308, or a rate of 1e300, times a ridge of 1e10 overflows
    # the first transposed product; the recorded run is built by hand, so
    # its forward steps never run
    prob = make_meta_init_mlp(DIM_IN, 4, WAY, reg=Regularizer.l2(1e10))
    init = 0.1 * RngStream(5).generator().standard_normal(prob.y_layout.dim)
    x = _meta_init_x(prob, rule, init, **segments)
    cfg = InnerConfig(steps=1, step_size=step_size, rule=rule)
    ys = init_task_params_batch(Paradigm.META_INIT, prob, x, RngStream(2), len(small_batch))
    run = InnerRun(cfg, prob, x, small_batch, [ys, ys])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match=f"transposed products under rule {rule.value}"):
            compute_hypergradient_batch(Reverse(), Paradigm.META_INIT, run)


@pytest.mark.parametrize(
    "rule",
    (InnerRule.GD, InnerRule.MTNET_MASK, InnerRule.META_SGD, InnerRule.WARP_GRAD_DIAG),
    ids=["MAML", "MT-net", "Meta-SGD", "WarpGrad"],
)
def test_the_per_task_x_products_of_a_meta_init_step_are_the_pullback_alone(
    rule, mlp_problem, small_task
):
    # the MLP's loss never reads x, so bT_v is the factor's pullback in its
    # own segment and zero elsewhere: each segment is written out here in
    # the order of the step map's own products, and must match exactly
    s = 0.3
    gen = RngStream(11, 54).generator()
    x = _extended_x(mlp_problem, rule, seed=11)
    y = ParamVector(mlp_problem.y_layout, 0.4 * gen.standard_normal(mlp_problem.y_layout.dim))
    v = ParamVector(mlp_problem.y_layout, gen.standard_normal(mlp_problem.y_layout.dim))
    cfg = InnerConfig(steps=1, step_size=s, rule=rule)
    _, bT = step_transposed_jvps(rule, cfg, mlp_problem, x, y, small_task, v)
    g = mlp_problem.grad_y(x, y, small_task, Split.TRAIN).values
    want = np.zeros(x.layout.dim)
    if rule is InnerRule.META_SGD:
        want[x.layout.slice_of("rates")] = -sigmoid(x.segment("rates")) * g * v.values
    elif rule is InnerRule.MTNET_MASK:
        sig = sigmoid(x.segment("mask_logits"))
        offsets = [seg.offset for seg in mlp_problem.y_layout.segments]
        want[x.layout.slice_of("mask_logits")] = (
            -s * sig * (1.0 - sig) * np.add.reduceat(g * v.values, offsets)
        )
    elif rule is InnerRule.WARP_GRAD_DIAG:
        d = np.exp(x.segment("warp_logdiag"))
        want[x.layout.slice_of("warp_logdiag")] = -s * d * g * v.values
    assert bT.layout == x.layout
    assert np.array_equal(bT.values, want)
    assert rule is not InnerRule.GD or not bT.values.any()


# --------------------------------------------------------------------------
# trajectories
# --------------------------------------------------------------------------


def test_recorded_trajectory_stores_every_iterate(quad2):
    x = ParamVector(quad2.x_layout, [1.0, 1.0])
    y0 = ParamVector.zeros(quad2.y_layout)
    cfg = InnerConfig(steps=4, step_size=0.2)
    traj = run_inner(InnerRule.GD, cfg, quad2, x, y0, None)
    assert traj.recorded
    assert len(traj.iterates) == 5
    assert traj.iterate(0) == y0
    assert traj.iterate(4) == traj.y_final
    # the forward map chains step by step
    y = y0
    for t in range(1, 5):
        y = inner_step(InnerRule.GD, cfg, quad2, x, y, None)
        assert np.array_equal(traj.iterate(t).values, y.values)
    with pytest.raises(IndexError):
        traj.iterate(5)


def test_unrecorded_trajectory_keeps_only_endpoints(quad2):
    x = ParamVector(quad2.x_layout, [1.0, 1.0])
    y0 = ParamVector.zeros(quad2.y_layout)
    cfg = InnerConfig(steps=4, step_size=0.2)
    lean = run_inner(InnerRule.GD, cfg, quad2, x, y0, None, record=False)
    full = run_inner(InnerRule.GD, cfg, quad2, x, y0, None)
    assert not lean.recorded
    assert len(lean.iterates) == 2
    assert np.array_equal(lean.y_final.values, full.y_final.values)
    assert lean.iterate(0) == y0
    with pytest.raises(IndexError):
        lean.iterate(2)


def test_zero_and_one_step_runs_are_always_recorded(quad2):
    x = ParamVector(quad2.x_layout, [1.0, 1.0])
    y0 = ParamVector(quad2.y_layout, [0.5, 0.5])
    t0 = run_inner(InnerRule.GD, InnerConfig(0, 0.2), quad2, x, y0, None, record=False)
    assert t0.recorded
    assert t0.y_final == y0
    assert len(t0.iterates) == 1
    t1 = run_inner(InnerRule.GD, InnerConfig(1, 0.2), quad2, x, y0, None, record=False)
    assert t1.recorded
    assert len(t1.iterates) == 2


def test_gd_contracts_toward_the_minimizer(quad2):
    # |1 - s(1+lam)| = 0.6 bounds the per-step error ratio
    x = ParamVector(quad2.x_layout, [0.8, -0.3])
    y_star = quad2.y_star(x)
    y0 = ParamVector(quad2.y_layout, [2.0, -2.0])
    cfg = InnerConfig(steps=12, step_size=0.2)
    traj = run_inner(InnerRule.GD, cfg, quad2, x, y0, None)
    errs = [(traj.iterate(t) - y_star).norm() for t in range(13)]
    for prev, cur in zip(errs, errs[1:]):
        assert cur <= 0.6 * prev + 1e-15
    assert errs[-1] < 1e-2 * errs[0]


# --------------------------------------------------------------------------
# transposed-Jacobian products
# --------------------------------------------------------------------------


def _fd_transposed(rule, cfg, problem, x, y, task, v):
    """Independent J^T v via scalar finite differences of <Phi, v>."""

    def along_y(yy):
        return inner_step(rule, cfg, problem, x, yy, task).dot(v)

    def along_x(xx):
        return inner_step(rule, cfg, problem, xx, y, task).dot(v)

    return fd_gradient(along_y, y, eps=1e-6), fd_gradient(along_x, x, eps=1e-6)


@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.value)
def test_transposed_jvps_match_fd_on_the_quadratic(rule, quad2):
    x = _extended_x(quad2, rule, seed=6)
    gen = RngStream(6, 52).generator()
    y = ParamVector(quad2.y_layout, gen.standard_normal(2))
    v = ParamVector(quad2.y_layout, gen.standard_normal(2))
    cfg = InnerConfig(steps=1, step_size=0.2, rule=rule, bda_alpha=0.4)
    aT, bT = step_transposed_jvps(rule, cfg, quad2, x, y, None, v)
    fd_a, fd_b = _fd_transposed(rule, cfg, quad2, x, y, None, v)
    assert np.allclose(aT.values, fd_a.values, atol=1e-7)
    assert np.allclose(bT.values, fd_b.values, atol=1e-7)


@pytest.mark.parametrize(
    "rule", (InnerRule.META_SGD, InnerRule.MTNET_MASK), ids=lambda r: r.value
)
def test_transposed_jvps_match_fd_on_the_softmax_head(
    rule, softmax_problem, small_task
):
    # exercises the per-segment reduction against a multi-segment y
    x = _extended_x(softmax_problem, rule, seed=7)
    gen = RngStream(7, 53).generator()
    y = ParamVector(softmax_problem.y_layout, 0.4 * gen.standard_normal(21))
    v = ParamVector(softmax_problem.y_layout, gen.standard_normal(21))
    cfg = InnerConfig(steps=1, step_size=0.3, rule=rule)
    aT, bT = step_transposed_jvps(rule, cfg, softmax_problem, x, y, small_task, v)
    fd_a, fd_b = _fd_transposed(rule, cfg, softmax_problem, x, y, small_task, v)
    assert np.allclose(aT.values, fd_a.values, atol=1e-4)
    assert np.allclose(bT.values, fd_b.values, atol=1e-4)


def test_gd_adjoint_vanishes_at_the_critical_step_size():
    # aT_v = v - s (1+lam) v = 0 at s = 0.5, lam = 1
    prob = make_quadratic(2.0, 1.0, 1.0)
    cfg = InnerConfig(steps=1, step_size=0.5)
    x = ParamVector(prob.x_layout, [2.0])
    y = ParamVector(prob.y_layout, [0.0])
    v = ParamVector(prob.y_layout, [1.0])
    aT, _ = step_transposed_jvps(InnerRule.GD, cfg, prob, x, y, None, v)
    assert aT.values[0] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize(
    "rule",
    (InnerRule.META_SGD, InnerRule.BDA, InnerRule.MTNET_MASK, InnerRule.WARP_GRAD_DIAG),
    ids=lambda r: r.value,
)
def test_the_rule_passed_beside_a_config_is_the_rule_run_and_recorded(
    rule, softmax_problem, small_task
):
    x = _extended_x(softmax_problem, rule, seed=8)
    gd_cfg = InnerConfig(steps=3, step_size=0.3)
    y0 = init_task_params(Paradigm.META_FEATURE, softmax_problem, x, RngStream(4))
    traj = run_inner(rule, gd_cfg, softmax_problem, x, y0, small_task)
    assert traj.config.rule is rule
    agreeing = run_inner(rule, replace(gd_cfg, rule=rule), softmax_problem, x, y0, small_task)
    assert traj.iterates == agreeing.iterates
    rev = hypergrad_reverse(softmax_problem, Paradigm.META_FEATURE, traj, x, small_task)
    fd = fd_hypergradient(softmax_problem, Paradigm.META_FEATURE, rule, gd_cfg, x, 4, small_task)
    assert (rev.grad_x - fd).norm() <= 1e-6 * fd.norm()
