"""Meta-gradient estimators: hand-unrolled values, estimator identities,
trajectory requirements, and the named method table."""

import copy
import warnings

import numpy as np
import pytest

from bilevelopt import (
    BilevelObjective,
    Darts,
    FirstOrder,
    Implicit,
    InnerConfig,
    InnerRule,
    InsufficientIterates,
    Layout,
    METHOD_NAMES,
    NonFiniteValue,
    Paradigm,
    ParamVector,
    Reverse,
    RngStream,
    Split,
    TrajectoryNotRecorded,
    TruncatedReverse,
    UnknownMethod,
    compose_named_method,
    compute_hypergradient,
    hypergrad_darts,
    hypergrad_first_order,
    hypergrad_implicit,
    hypergrad_reverse,
    hypergrad_truncated,
    make_quadratic,
    needs_full_trajectory,
    run_inner,
)
from bilevelopt.hypergrad import compute_hypergradient_batch
from bilevelopt.inner import run_inner_batch


def _scalar_quad():
    return make_quadratic(2.0, 1.0, 1.0)


def _run(problem, x, y0_values, steps, step_size, rule=InnerRule.GD, task=None, **kw):
    cfg = InnerConfig(steps=steps, step_size=step_size, rule=rule)
    y0 = ParamVector(problem.y_layout, y0_values)
    return cfg, run_inner(rule, cfg, problem, x, y0, task, **kw)


class ScalarInitQuadratic(BilevelObjective):
    """f(y) = F(y) = y^2/2 in one dimension, adapted from a learned init.

    The inner loss never reads x, so the whole meta-gradient flows through
    the initialization. Small enough to unroll by hand.
    """

    def __init__(self):
        self.y_layout = Layout([("y", 1)])
        self.x_layout = Layout([("init", 1)])

    def value(self, x, y, task, split):
        return 0.5 * float(y.values @ y.values)

    def grad_y(self, x, y, task, split):
        return y

    def hvp_yy(self, x, y, task, split, v):
        return v


# --------------------------------------------------------------------------
# reverse mode
# --------------------------------------------------------------------------


def test_reverse_one_step_quadratic_by_hand():
    # a=2, lam=1, b=1, x=2, y_0=0, s=0.5: y_1 = 2, lam_1 = y_1 - b = 1,
    # bT = -s*cross(lam) = +1, aT kills lam (1 - s(1+lam) = 0), total = 1
    prob = _scalar_quad()
    x = ParamVector(prob.x_layout, [2.0])
    _, traj = _run(prob, x, [0.0], steps=1, step_size=0.5)
    assert traj.y_final.values[0] == pytest.approx(2.0)
    res = hypergrad_reverse(prob, Paradigm.META_FEATURE, traj, x, None)
    assert res.grad_x.segment("theta")[0] == pytest.approx(1.0, abs=1e-12)
    assert res.ul_value == pytest.approx(0.5)  # F(y_1) = (2-1)^2 / 2


def test_reverse_zero_steps_reduces_to_gradient_at_init():
    prob = ScalarInitQuadratic()
    x = ParamVector(prob.x_layout, [1.3])
    _, traj = _run(prob, x, [1.3], steps=0, step_size=0.3)
    res = hypergrad_reverse(prob, Paradigm.META_INIT, traj, x, None)
    # no steps: the init gradient is just dF/dy at y_0
    assert res.grad_x.segment("init")[0] == pytest.approx(1.3)


def test_reverse_requires_recorded_trajectory():
    prob = _scalar_quad()
    x = ParamVector(prob.x_layout, [2.0])
    _, traj = _run(prob, x, [0.0], steps=3, step_size=0.2, record=False)
    with pytest.raises(TrajectoryNotRecorded):
        hypergrad_reverse(prob, Paradigm.META_FEATURE, traj, x, None)


def test_reverse_approaches_analytic_gradient_with_many_steps(quad2):
    gen = RngStream(3, 1).generator()
    x = ParamVector(quad2.x_layout, gen.standard_normal(2))
    _, traj = _run(quad2, x, [0.0, 0.0], steps=150, step_size=0.25)
    res = hypergrad_reverse(quad2, Paradigm.META_FEATURE, traj, x, None)
    want = quad2.hypergradient(x)
    assert np.allclose(res.grad_x.values, want.values, atol=1e-6)


# --------------------------------------------------------------------------
# first-order gap, by hand
# --------------------------------------------------------------------------


def test_first_order_versus_reverse_documented_gap():
    # y_0 = 1, s = 0.3, one step: y_1 = 0.7. First-order reports dF/dy = 0.7;
    # the exact chain rule scales by dy_1/dy_0 = 1 - s, giving 0.49.
    prob = ScalarInitQuadratic()
    x = ParamVector(prob.x_layout, [1.0])
    _, traj = _run(prob, x, [1.0], steps=1, step_size=0.3)
    assert traj.y_final.values[0] == pytest.approx(0.7)

    fo = hypergrad_first_order(prob, Paradigm.META_INIT, x, traj.y_final, None)
    assert fo.grad_x.segment("init")[0] == pytest.approx(0.7)

    exact = hypergrad_reverse(prob, Paradigm.META_INIT, traj, x, None)
    assert exact.grad_x.segment("init")[0] == pytest.approx(0.49)


def test_first_order_under_shared_features_is_direct_gradient(
    softmax_problem, small_task
):
    gen = RngStream(5, 2).generator()
    x = ParamVector(softmax_problem.x_layout, 0.3 * gen.standard_normal(30))
    y = ParamVector(softmax_problem.y_layout, 0.3 * gen.standard_normal(21))
    res = hypergrad_first_order(
        softmax_problem, Paradigm.META_FEATURE, x, y, small_task
    )
    want = softmax_problem.grad_x(x, y, small_task, Split.VAL)
    assert np.array_equal(res.grad_x.values, want.values)


@pytest.mark.parametrize(
    "name, paradigm",
    [("softmax_problem", Paradigm.META_FEATURE), ("mlp_problem", Paradigm.META_INIT)],
)
def test_first_order_is_reverse_on_a_recorded_zero_step_run(request, small_batch, name, paradigm):
    # first order is the adjoint sweep's window of no steps, and reverse's
    # window on a run of no steps
    problem = request.getfixturevalue(name)
    gen = RngStream(5, 3).generator()
    x = ParamVector(problem.x_layout, 0.3 * gen.standard_normal(problem.x_layout.dim))
    ys0 = 0.3 * gen.standard_normal((len(small_batch), problem.y_layout.dim))
    run = run_inner_batch(InnerConfig(0, 0.1), problem, x, ys0, small_batch, record=True)
    assert run.recorded
    fo, rev = (compute_hypergradient_batch(m, paradigm, run) for m in (FirstOrder(), Reverse()))
    assert np.array_equal(fo.grad_x, rev.grad_x)
    assert np.array_equal(fo.ul_value, rev.ul_value)


# --------------------------------------------------------------------------
# truncation
# --------------------------------------------------------------------------


def test_truncated_with_full_window_equals_reverse(quad2):
    gen = RngStream(7, 1).generator()
    x = ParamVector(quad2.x_layout, gen.standard_normal(2))
    _, traj = _run(quad2, x, [0.5, -0.5], steps=6, step_size=0.2)
    full = hypergrad_reverse(quad2, Paradigm.META_FEATURE, traj, x, None)
    trunc = hypergrad_truncated(quad2, Paradigm.META_FEATURE, traj, x, None, k=6)
    assert np.array_equal(full.grad_x.values, trunc.grad_x.values)
    assert trunc.truncation_k == 6


def test_truncated_default_window_is_half_the_steps(quad2):
    gen = RngStream(7, 2).generator()
    x = ParamVector(quad2.x_layout, gen.standard_normal(2))
    _, traj = _run(quad2, x, [0.0, 0.0], steps=5, step_size=0.2)
    res = hypergrad_truncated(quad2, Paradigm.META_FEATURE, traj, x, None)
    assert res.truncation_k == 3  # ceil(5/2)


def test_truncated_short_window_drops_early_couplings(quad2):
    gen = RngStream(7, 3).generator()
    x = ParamVector(quad2.x_layout, gen.standard_normal(2))
    _, traj = _run(quad2, x, [0.0, 0.0], steps=6, step_size=0.2)
    full = hypergrad_reverse(quad2, Paradigm.META_FEATURE, traj, x, None)
    short = hypergrad_truncated(quad2, Paradigm.META_FEATURE, traj, x, None, k=1)
    assert not np.allclose(full.grad_x.values, short.grad_x.values, atol=1e-8)


def test_truncated_window_bounds_are_enforced(quad2):
    x = ParamVector.zeros(quad2.x_layout)
    _, traj = _run(quad2, x, [0.0, 0.0], steps=3, step_size=0.2)
    with pytest.raises(InsufficientIterates):
        hypergrad_truncated(quad2, Paradigm.META_FEATURE, traj, x, None, k=4)
    _, traj0 = _run(quad2, x, [0.0, 0.0], steps=0, step_size=0.2)
    with pytest.raises(InsufficientIterates):
        hypergrad_truncated(quad2, Paradigm.META_FEATURE, traj0, x, None)
    _, unrec = _run(quad2, x, [0.0, 0.0], steps=4, step_size=0.2, record=False)
    with pytest.raises(InsufficientIterates):
        hypergrad_truncated(quad2, Paradigm.META_FEATURE, unrec, x, None, k=2)
    with pytest.raises(ValueError):
        TruncatedReverse(k=0)
    # the wrapper builds TruncatedReverse(k), so k < 1 is its ValueError
    with pytest.raises(ValueError, match="truncation k must be >= 1"):
        hypergrad_truncated(quad2, Paradigm.META_FEATURE, traj, x, None, k=0)


# --------------------------------------------------------------------------
# implicit differentiation
# --------------------------------------------------------------------------


def test_implicit_scalar_quadratic_by_hand():
    # at y* = 2: hvp_yy = (1+lam) = 2, rhs = y* - b = 1, so q = 0.5;
    # cross_hvp(q) = -a q = -1 and g = 0 - (-1) = 1
    prob = _scalar_quad()
    x = ParamVector(prob.x_layout, [2.0])
    y_star = prob.y_star(x)
    res = hypergrad_implicit(
        prob, Paradigm.META_FEATURE, x, y_star, None, Implicit(cg_tol=1e-12)
    )
    assert res.grad_x.segment("theta")[0] == pytest.approx(1.0, abs=1e-10)
    assert res.cg_iters >= 1
    assert res.cg_residual <= 1e-12


def test_implicit_matches_analytic_on_matrix_quadratic(quad2):
    gen = RngStream(11, 1).generator()
    x = ParamVector(quad2.x_layout, gen.standard_normal(2))
    res = hypergrad_implicit(
        quad2, Paradigm.META_FEATURE, x, quad2.y_star(x), None, Implicit(cg_tol=1e-12)
    )
    assert np.allclose(res.grad_x.values, quad2.hypergradient(x).values, atol=1e-10)


def test_implicit_under_learned_init_uses_proximal_coupling():
    # default prox is 1 under meta-init: (H + I) q = dF/dy, g_init = prox * q
    prob = ScalarInitQuadratic()
    x = ParamVector(prob.x_layout, [2.0])
    y = ParamVector(prob.y_layout, [0.8])
    res = hypergrad_implicit(prob, Paradigm.META_INIT, x, y, None, Implicit())
    # H = 1, so q = 0.8 / 2 and the init gradient equals q
    assert res.grad_x.segment("init")[0] == pytest.approx(0.4, abs=1e-8)


def test_implicit_zero_prox_under_learned_init_gives_zero_gradient():
    prob = ScalarInitQuadratic()
    x = ParamVector(prob.x_layout, [2.0])
    y = ParamVector(prob.y_layout, [0.8])
    res = hypergrad_implicit(
        prob, Paradigm.META_INIT, x, y, None, Implicit(prox_lambda=0.0)
    )
    # without the coupling the inner loss is x-free, so nothing flows back
    assert res.grad_x.segment("init")[0] == pytest.approx(0.0)


def test_implicit_config_validation():
    with pytest.raises(ValueError):
        Implicit(cg_tol=0.0)
    with pytest.raises(ValueError):
        Implicit(prox_lambda=-0.5)


def test_implicit_rejects_a_cg_cap_below_one_when_constructed():
    with pytest.raises(ValueError, match="cg_max_iter"):
        Implicit(cg_max_iter=0)
    assert Implicit(cg_max_iter=1).cg_max_iter == 1


# --------------------------------------------------------------------------
# darts estimator
# --------------------------------------------------------------------------


def test_darts_equals_reverse_at_a_fixed_point(quad2):
    # anchored at y*(x) the one-step trajectory does not move, and the
    # central difference of a linear gradient map is exact
    gen = RngStream(13, 1).generator()
    x = ParamVector(quad2.x_layout, gen.standard_normal(2))
    y_star = quad2.y_star(x)
    cfg = InnerConfig(steps=1, step_size=0.3)
    traj = run_inner(InnerRule.GD, cfg, quad2, x, y_star, None)
    exact = hypergrad_reverse(quad2, Paradigm.META_FEATURE, traj, x, None)
    est = hypergrad_darts(
        quad2, Paradigm.META_FEATURE, x, y_star, None, delta=0.3, step_size=0.3
    )
    assert np.allclose(est.grad_x.values, exact.grad_x.values, atol=1e-9)


def test_darts_rejects_nonpositive_delta(quad2):
    x = ParamVector.zeros(quad2.x_layout)
    y = ParamVector.zeros(quad2.y_layout)
    with pytest.raises(ValueError):
        hypergrad_darts(
            quad2, Paradigm.META_FEATURE, x, y, None, delta=0.0, step_size=0.1
        )
    with pytest.raises(ValueError):
        Darts(delta=-1.0)
    # the wrapper's run carries InnerConfig(0, step_size), which rejects it
    with pytest.raises(ValueError, match="step_size must be > 0"):
        hypergrad_darts(
            quad2, Paradigm.META_FEATURE, x, y, None, delta=0.1, step_size=0.0
        )


def test_darts_under_learned_init_writes_init_segment():
    prob = ScalarInitQuadratic()
    x = ParamVector(prob.x_layout, [1.0])
    y = ParamVector(prob.y_layout, [0.7])
    res = hypergrad_darts(
        prob, Paradigm.META_INIT, x, y, None, delta=0.1, step_size=0.3
    )
    # the curvature bracket of y^2/2 is exact: g = v - s * v = 0.7 * 0.7
    assert res.grad_x.segment("init")[0] == pytest.approx(0.49, abs=1e-10)


@pytest.mark.parametrize(
    "estimate",
    [
        lambda prob, x, y: hypergrad_implicit(prob, Paradigm.META_FEATURE, x, y, None, Implicit()),
        lambda prob, x, y: hypergrad_first_order(prob, Paradigm.META_FEATURE, x, y, None),
        lambda prob, x, y: hypergrad_darts(
            prob, Paradigm.META_FEATURE, x, y, None, delta=0.1, step_size=0.3
        ),
    ],
    ids=["implicit", "first_order", "darts"],
)
def test_an_overflowing_final_iterate_raises_without_a_numpy_warning(quad2, estimate):
    # the per-task estimators run under compute_hypergradient_batch's one
    # errstate, so the overflow ends in a finiteness check (CG's or the
    # result's), not in a numpy warning
    x = ParamVector.zeros(quad2.x_layout)
    y = ParamVector(quad2.y_layout, [1e300, -1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue):
            estimate(quad2, x, y)


# --------------------------------------------------------------------------
# dispatcher
# --------------------------------------------------------------------------


def test_dispatcher_routes_every_method(quad2):
    gen = RngStream(17, 1).generator()
    x = ParamVector(quad2.x_layout, gen.standard_normal(2))
    _, traj = _run(quad2, x, [0.0, 0.0], steps=4, step_size=0.2)
    par = Paradigm.META_FEATURE

    direct = {
        "reverse": hypergrad_reverse(quad2, par, traj, x, None),
        "truncated": hypergrad_truncated(quad2, par, traj, x, None, k=2),
        "implicit": hypergrad_implicit(
            quad2, par, x, traj.y_final, None, Implicit(cg_tol=1e-10)
        ),
        "first_order": hypergrad_first_order(quad2, par, x, traj.y_final, None),
        "darts": hypergrad_darts(
            quad2, par, x, traj.y_final, None, delta=1e-2, step_size=0.2
        ),
    }
    via_dispatch = {
        "reverse": compute_hypergradient(Reverse(), quad2, par, traj, x, None),
        "truncated": compute_hypergradient(
            TruncatedReverse(k=2), quad2, par, traj, x, None
        ),
        "implicit": compute_hypergradient(
            Implicit(cg_tol=1e-10), quad2, par, traj, x, None
        ),
        "first_order": compute_hypergradient(FirstOrder(), quad2, par, traj, x, None),
        "darts": compute_hypergradient(Darts(), quad2, par, traj, x, None),
    }
    for key in direct:
        assert np.array_equal(
            direct[key].grad_x.values, via_dispatch[key].grad_x.values
        ), key


_SWEEPS = {
    "compute": lambda prob, traj, x, task: compute_hypergradient(
        Reverse(), prob, Paradigm.META_FEATURE, traj, x, task
    ),
    "reverse": lambda prob, traj, x, task: hypergrad_reverse(
        prob, Paradigm.META_FEATURE, traj, x, task
    ),
    "truncated": lambda prob, traj, x, task: hypergrad_truncated(
        prob, Paradigm.META_FEATURE, traj, x, task, k=1
    ),
}


@pytest.mark.parametrize("estimate", list(_SWEEPS.values()), ids=list(_SWEEPS))
def test_a_trajectory_is_read_only_with_the_problem_x_and_task_it_was_run_with(
    estimate, softmax_problem, small_task, small_batch
):
    gen = RngStream(18, 1).generator()
    x = ParamVector(softmax_problem.x_layout, 0.3 * gen.standard_normal(30))
    _, traj = _run(softmax_problem, x, np.zeros(21), steps=3, step_size=0.3, task=small_task)
    # an equal x is the run's x
    same = estimate(softmax_problem, traj, x.like(x.values), small_task)
    assert same.grad_x == estimate(softmax_problem, traj, x, small_task).grad_x
    with pytest.raises(ValueError, match="another problem"):
        estimate(copy.copy(softmax_problem), traj, x, small_task)
    with pytest.raises(ValueError, match="another x"):
        estimate(softmax_problem, traj, x.add_to_segment("feat", 1e-9), small_task)
    with pytest.raises(ValueError, match="another task"):
        estimate(softmax_problem, traj, x, small_batch.tasks[0])


def test_needs_full_trajectory_only_for_reverse_family():
    assert needs_full_trajectory(Reverse())
    assert needs_full_trajectory(TruncatedReverse(k=3))
    assert not needs_full_trajectory(Implicit())
    assert not needs_full_trajectory(FirstOrder())
    assert not needs_full_trajectory(Darts())


# --------------------------------------------------------------------------
# named method table
# --------------------------------------------------------------------------


def test_method_table_has_exactly_ten_unique_names():
    assert len(METHOD_NAMES) == 10
    assert len(set(METHOD_NAMES)) == 10
    assert METHOD_NAMES == (
        "RHG", "TRHG", "HOAG", "MAML", "FMAML", "MT-net", "Meta-SGD", "WarpGrad", "DARTS", "BDA",
    )


def test_method_table_paradigm_split():
    feature = {"RHG", "TRHG", "HOAG", "DARTS", "BDA"}
    for name in METHOD_NAMES:
        composed = compose_named_method(name)
        expected = (
            Paradigm.META_FEATURE if name in feature else Paradigm.META_INIT
        )
        assert composed.paradigm is expected, name


def test_method_table_estimators_and_rules():
    cases = {
        "RHG": (Reverse, InnerRule.GD),
        "TRHG": (TruncatedReverse, InnerRule.GD),
        "HOAG": (Implicit, InnerRule.GD),
        "MAML": (Reverse, InnerRule.GD),
        "FMAML": (FirstOrder, InnerRule.GD),
        "MT-net": (Reverse, InnerRule.MTNET_MASK),
        "Meta-SGD": (Reverse, InnerRule.META_SGD),
        "WarpGrad": (Reverse, InnerRule.WARP_GRAD_DIAG),
        "DARTS": (Darts, InnerRule.GD),
        "BDA": (Reverse, InnerRule.BDA),
    }
    for name, (est_type, rule) in cases.items():
        composed = compose_named_method(name)
        assert isinstance(composed.hypergrad_method, est_type), name
        assert composed.inner_rule is rule, name


def test_method_lookup_normalizes_case_and_separators():
    assert compose_named_method("maml") == compose_named_method("MAML")
    assert compose_named_method("meta_sgd") == compose_named_method("Meta-SGD")
    assert compose_named_method("MT_NET") == compose_named_method("MT-net")
    assert compose_named_method(" rhg ") == compose_named_method("RHG")


def test_unknown_method_error_lists_valid_names():
    with pytest.raises(UnknownMethod) as exc:
        compose_named_method("sgd")
    message = str(exc.value)
    for name in METHOD_NAMES:
        assert name in message
