"""Meta-optimizers: exact first steps, state threading, and descent."""

import warnings

import numpy as np
import pytest

from bilevelopt import (
    Adam,
    Layout,
    LayoutMismatch,
    Momentum,
    NonFiniteValue,
    ParamVector,
    Sgd,
    meta_step,
)

LAYOUT = Layout([("a", 2), ("b", 1)])


def _vec(values):
    return ParamVector(LAYOUT, values)


def test_sgd_step_is_plain_descent():
    x = _vec([1.0, 2.0, 3.0])
    g = _vec([0.5, -0.5, 1.0])
    x1, opt1 = meta_step(Sgd(lr=0.1), x, g)
    assert np.allclose(x1.values, [0.95, 2.05, 2.9])
    assert opt1 == Sgd(lr=0.1)  # stateless


def test_momentum_first_step_equals_sgd():
    x = _vec([1.0, 2.0, 3.0])
    g = _vec([0.5, -0.5, 1.0])
    x_sgd, _ = meta_step(Sgd(lr=0.1), x, g)
    x_mom, opt = meta_step(Momentum(lr=0.1, mu=0.9), x, g)
    assert np.allclose(x_mom.values, x_sgd.values, atol=1e-15)
    assert np.allclose(opt.velocity.values, g.values)


def test_momentum_accumulates_velocity():
    x = _vec([0.0, 0.0, 0.0])
    g = _vec([1.0, 1.0, 1.0])
    opt = Momentum(lr=0.1, mu=0.5)
    x, opt = meta_step(opt, x, g)
    x, opt = meta_step(opt, x, g)
    # velocities: 1 then 1.5; positions: -0.1 then -0.25
    assert np.allclose(opt.velocity.values, [1.5, 1.5, 1.5])
    assert np.allclose(x.values, [-0.25, -0.25, -0.25])


def test_momentum_with_zero_mu_tracks_sgd_over_many_steps():
    gen = np.random.default_rng(0)
    x_a = x_b = _vec(gen.standard_normal(3))
    opt_a, opt_b = Sgd(lr=0.05), Momentum(lr=0.05, mu=0.0)
    for _ in range(20):
        g = _vec(gen.standard_normal(3))
        x_a, opt_a = meta_step(opt_a, x_a, g)
        x_b, opt_b = meta_step(opt_b, x_b, g)
    assert np.allclose(x_a.values, x_b.values, atol=1e-15)


def test_adam_first_step_magnitude_is_learning_rate():
    # bias correction makes m_hat = g and v_hat = g*g, so each coordinate
    # moves by lr * g / (|g| + eps)
    x = _vec([1.0, -1.0, 0.5])
    g = _vec([3.0, -0.01, 0.2])
    x1, opt = meta_step(Adam(lr=1e-3), x, g)
    moved = x1.values - x.values
    assert np.allclose(np.abs(moved), 1e-3, rtol=1e-4)
    assert np.sign(moved).tolist() == [-1.0, 1.0, -1.0]
    assert opt.step_count == 1


def test_adam_state_threads_through_steps():
    x = _vec([0.0, 0.0, 0.0])
    opt = Adam(lr=0.01)
    for k in range(5):
        x, opt = meta_step(opt, x, _vec([1.0, 2.0, -1.0]))
        assert opt.step_count == k + 1
    assert opt.m is not None and opt.v is not None
    assert np.all(opt.v.values > 0)


@pytest.mark.parametrize(
    "opt", [Sgd(lr=0.1), Momentum(lr=0.05, mu=0.9), Adam(lr=0.05)],
    ids=["sgd", "momentum", "adam"],
)
def test_optimizers_descend_a_convex_quadratic(opt):
    # minimize 0.5 x' D x with D = diag(1, 4, 9)
    d = np.array([1.0, 4.0, 9.0])
    x = _vec([2.0, -1.5, 1.0])

    def loss(v):
        return 0.5 * float(d @ (v.values**2))

    start = loss(x)
    for _ in range(50):
        x, opt = meta_step(opt, x, x.like(d * x.values))
    assert loss(x) < 1e-2 * start


def test_meta_step_validates_layout_and_finiteness():
    x = _vec([0.0, 0.0, 0.0])
    wrong = ParamVector(Layout([("z", 3)]), [1.0, 1.0, 1.0])
    with pytest.raises(LayoutMismatch):
        meta_step(Sgd(lr=0.1), x, wrong)
    with pytest.raises(NonFiniteValue):
        meta_step(Sgd(lr=0.1), x, _vec([np.nan, 0.0, 0.0]))


@pytest.mark.parametrize(
    "opt, g, message",
    [
        (Sgd(lr=1e308), [10.0, 0.0, 0.0], "non-finite parameters"),
        (Momentum(lr=1e308), [10.0, 0.0, 0.0], "non-finite parameters"),
        (Adam(lr=1e308), [10.0, 0.0, 0.0], "non-finite parameters"),
        # g * g overflows while x_next stays finite: its coordinate would stop moving
        (Adam(lr=0.1), [1e160, 1.0, 1.0], "second moment"),
    ],
    ids=["sgd", "momentum", "adam", "adam-second-moment"],
)
def test_an_overflowing_meta_step_raises_without_a_numpy_warning(opt, g, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match=message):
            meta_step(opt, _vec([1.0, 2.0, 3.0]), _vec(g))


def test_optimizer_hyperparameters_are_validated():
    with pytest.raises(ValueError):
        Sgd(lr=0.0)
    with pytest.raises(ValueError):
        Momentum(lr=0.1, mu=1.0)
    with pytest.raises(ValueError):
        Momentum(lr=0.1, mu=-0.1)
    with pytest.raises(ValueError):
        Adam(lr=0.1, beta1=1.0)
    with pytest.raises(ValueError):
        Adam(lr=0.1, beta2=-0.1)
    with pytest.raises(ValueError):
        Adam(lr=0.1, eps_hat=0.0)
