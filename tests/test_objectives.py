"""Loss/gradient/HVP oracles: pinned hand values, finite-difference
agreement, Hessian symmetry, and split semantics."""

import numpy as np
import pytest

from bilevelopt import (
    Layout,
    LayoutMismatch,
    LengthMismatch,
    LossKind,
    ParamVector,
    Regularizer,
    RngStream,
    Split,
    eval_F_batch,
    eval_f,
    fd_gradient,
    fd_hvp,
    make_meta_feature_softmax,
    make_meta_init_mlp,
    make_quadratic,
)
from conftest import DIM_IN, WAY


def _randvec(layout, seed, scale=0.5):
    gen = RngStream(seed, 1).generator()
    return ParamVector(layout, scale * gen.standard_normal(layout.dim))


# --------------------------------------------------------------------------
# regularizers
# --------------------------------------------------------------------------


def test_l2_value_matches_hand_computation():
    y = np.array([3.0, 4.0])
    assert Regularizer.l2(1.0).value(y) == pytest.approx(12.5)


def test_l1_subgradient_uses_sign_zero_at_zero():
    reg = Regularizer.l1(2.0)
    y = np.array([-1.5, 0.0, 3.0])
    assert np.array_equal(reg.grad(y), [-2.0, 0.0, 2.0])
    assert reg.value(y) == pytest.approx(9.0)
    # l1 curvature is zero almost everywhere
    assert np.array_equal(reg.hvp(np.ones(3)), np.zeros(3))


def test_l2_grad_and_hvp_are_linear():
    reg = Regularizer.l2(0.3)
    y = np.array([1.0, -2.0])
    assert np.allclose(reg.grad(y), 0.3 * y)
    assert np.allclose(reg.hvp(y), 0.3 * y)


def test_none_regularizer_is_identically_zero():
    reg = Regularizer.none()
    y = np.array([5.0, -5.0])
    assert reg.value(y) == 0.0
    assert np.array_equal(reg.grad(y), np.zeros(2))


def test_regularizer_validates_inputs():
    with pytest.raises(ValueError):
        Regularizer("linf", 1.0)
    with pytest.raises(ValueError):
        Regularizer("l2", -0.1)


# --------------------------------------------------------------------------
# quadratic problem
# --------------------------------------------------------------------------


def test_quadratic_inner_value_by_hand():
    # a=2, lam=1, x=1, y=0: f = 0.5*(0-2)^2 + 0.5*0 = 2
    prob = make_quadratic(2.0, 1.0, 1.0)
    x = ParamVector(prob.x_layout, [1.0])
    y = ParamVector(prob.y_layout, [0.0])
    assert prob.value(x, y, None, Split.TRAIN) == pytest.approx(2.0)


def test_quadratic_scalar_solution_and_hypergradient():
    # a=2, lam=1, b=1, x=2: y* = a*x/(1+lam) = 2, dF/dx = a*(y*-b)/(1+lam) = 1
    prob = make_quadratic(2.0, 1.0, 1.0)
    x = ParamVector(prob.x_layout, [2.0])
    assert prob.y_star(x).values[0] == pytest.approx(2.0)
    assert prob.hypergradient(x).segment("theta")[0] == pytest.approx(1.0)


def test_quadratic_y_star_is_inner_stationary(quad2):
    x = _randvec(quad2.x_layout, 21)
    g = quad2.grad_y(x, quad2.y_star(x), None, Split.TRAIN)
    assert g.norm() < 1e-12


def test_quadratic_hypergradient_matches_fd_of_outer_objective(quad2):
    x = _randvec(quad2.x_layout, 22)

    def outer(v):
        return quad2.value(v, quad2.y_star(v), None, Split.VAL)

    fd = fd_gradient(outer, x, eps=1e-6)
    assert np.allclose(quad2.hypergradient(x).values, fd.values, atol=1e-7)


def test_quadratic_oracles_agree_with_fd(quad2):
    x = _randvec(quad2.x_layout, 23)
    y = _randvec(quad2.y_layout, 24)
    for split in (Split.TRAIN, Split.VAL):
        gy = quad2.grad_y(x, y, None, split)
        fd_y = fd_gradient(lambda v: quad2.value(x, v, None, split), y, eps=1e-6)
        assert np.allclose(gy.values, fd_y.values, atol=1e-8)
        gx = quad2.grad_x(x, y, None, split)
        fd_x = fd_gradient(lambda v: quad2.value(v, y, None, split), x, eps=1e-6)
        assert np.allclose(gx.values, fd_x.values, atol=1e-8)


def test_quadratic_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        make_quadratic([[1.0, 2.0]], 1.0, [1.0, 2.0])
    with pytest.raises(ValueError):
        make_quadratic(2.0, 0.0, 1.0)


# --------------------------------------------------------------------------
# shared-feature softmax head
# --------------------------------------------------------------------------


def test_zero_head_gives_uniform_softmax_loss(small_task):
    prob = make_meta_feature_softmax(DIM_IN, 6, WAY)
    x = _randvec(prob.x_layout, 31)
    y = ParamVector.zeros(prob.y_layout)
    for split in (Split.TRAIN, Split.VAL):
        assert prob.value(x, y, small_task, split) == pytest.approx(np.log(WAY))


def test_softmax_grads_agree_with_fd(softmax_problem, small_task):
    x = _randvec(softmax_problem.x_layout, 32)
    y = _randvec(softmax_problem.y_layout, 33)
    for split in (Split.TRAIN, Split.VAL):
        gy = softmax_problem.grad_y(x, y, small_task, split)
        fd_y = fd_gradient(
            lambda v: softmax_problem.value(x, v, small_task, split), y
        )
        assert np.allclose(gy.values, fd_y.values, atol=1e-7)
        gx = softmax_problem.grad_x(x, y, small_task, split)
        fd_x = fd_gradient(
            lambda v: softmax_problem.value(v, y, small_task, split), x
        )
        assert np.allclose(gx.values, fd_x.values, atol=1e-7)


def test_softmax_hvp_matches_fd_of_gradient(softmax_problem, small_task):
    x = _randvec(softmax_problem.x_layout, 34)
    y = _randvec(softmax_problem.y_layout, 35)
    v = _randvec(softmax_problem.y_layout, 36, scale=1.0)
    hv = softmax_problem.hvp_yy(x, y, small_task, Split.TRAIN, v)
    fd = fd_hvp(
        lambda q: softmax_problem.grad_y(x, q, small_task, Split.TRAIN), y, v
    )
    assert np.allclose(hv.values, fd.values, atol=1e-6)


def test_softmax_cross_hvp_differentiates_grad_y_along_x(
    softmax_problem, small_task
):
    x = _randvec(softmax_problem.x_layout, 37)
    y = _randvec(softmax_problem.y_layout, 38)
    v = _randvec(softmax_problem.y_layout, 39, scale=1.0)
    got = softmax_problem.cross_hvp(x, y, small_task, Split.TRAIN, v)
    fd = fd_gradient(
        lambda u: softmax_problem.grad_y(u, y, small_task, Split.TRAIN).dot(v),
        x,
        eps=1e-4,
    )
    assert np.allclose(got.values, fd.values, atol=1e-5)


def _rel_err(got, want):
    return np.linalg.norm(got.values - want.values) / np.linalg.norm(want.values)


def test_softmax_cross_hvp_matches_fd_on_both_splits(softmax_problem, small_task):
    x = _randvec(softmax_problem.x_layout, 42)
    y = _randvec(softmax_problem.y_layout, 43)
    v = _randvec(softmax_problem.y_layout, 44, scale=1.0)
    for split in (Split.TRAIN, Split.VAL):
        got = softmax_problem.cross_hvp(x, y, small_task, split, v)
        fd = fd_gradient(
            lambda u: softmax_problem.grad_y(u, y, small_task, split).dot(v),
            x,
            eps=1e-6,
        )
        assert _rel_err(got, fd) < 1e-7


def test_softmax_cross_hvp_is_zero_on_extra_x_segments(softmax_problem, small_task):
    ext_layout = softmax_problem.x_layout.extended("rates", 3)
    x = _randvec(ext_layout, 45)
    y = _randvec(softmax_problem.y_layout, 46)
    v = _randvec(softmax_problem.y_layout, 47, scale=1.0)
    got = softmax_problem.cross_hvp(x, y, small_task, Split.TRAIN, v)
    assert got.layout == ext_layout
    assert np.array_equal(got.segment("rates"), np.zeros(3))
    assert np.any(got.segment("feat") != 0.0)


def test_softmax_cross_hvp_ignores_the_regularizer(small_task):
    regs = (Regularizer.none(), Regularizer.l1(0.3), Regularizer.l2(0.3))
    probs = [make_meta_feature_softmax(DIM_IN, 6, WAY, reg=r) for r in regs]
    x = _randvec(probs[0].x_layout, 48)
    y = _randvec(probs[0].y_layout, 49)
    v = _randvec(probs[0].y_layout, 50, scale=1.0)
    for split in (Split.TRAIN, Split.VAL):
        first, *rest = [p.cross_hvp(x, y, small_task, split, v).values for p in probs]
        for other in rest:
            assert np.array_equal(first, other)


def test_softmax_predict_scores_every_class(softmax_problem, small_task):
    x = _randvec(softmax_problem.x_layout, 40)
    y = _randvec(softmax_problem.y_layout, 41)
    scores = softmax_problem.predict(x, y, small_task.val_features)
    assert scores.shape == (len(small_task.val), WAY)


# --------------------------------------------------------------------------
# adaptable MLP
# --------------------------------------------------------------------------


def test_mlp_grad_agrees_with_fd(mlp_problem, small_task):
    x = ParamVector.zeros(mlp_problem.x_layout)
    y = _randvec(mlp_problem.y_layout, 51)
    for split in (Split.TRAIN, Split.VAL):
        gy = mlp_problem.grad_y(x, y, small_task, split)
        fd = fd_gradient(lambda v: mlp_problem.value(x, v, small_task, split), y)
        assert np.allclose(gy.values, fd.values, atol=1e-6)


def test_mlp_without_hidden_layer_is_linear_softmax(small_task):
    prob = make_meta_init_mlp(DIM_IN, 0, WAY)
    assert prob.y_layout.names == ("w0", "b0")
    y = ParamVector.zeros(prob.y_layout)
    x = ParamVector.zeros(prob.x_layout)
    assert prob.value(x, y, small_task, Split.VAL) == pytest.approx(np.log(WAY))


def test_mlp_mse_loss_at_zero_output(small_task):
    # zero weights give zero outputs, so per-example squared error against a
    # one-hot target is exactly 1, halved
    prob = make_meta_init_mlp(DIM_IN, 0, WAY, loss=LossKind.MEAN_SQUARED_ERROR)
    assert not prob.is_classifier
    y = ParamVector.zeros(prob.y_layout)
    x = ParamVector.zeros(prob.x_layout)
    assert prob.value(x, y, small_task, Split.TRAIN) == pytest.approx(0.5)


def test_mlp_hvp_is_symmetric(mlp_problem, small_task):
    x = ParamVector.zeros(mlp_problem.x_layout)
    y = _randvec(mlp_problem.y_layout, 52)
    u = _randvec(mlp_problem.y_layout, 53, scale=1.0)
    v = _randvec(mlp_problem.y_layout, 54, scale=1.0)
    hu = mlp_problem.hvp_yy(x, y, small_task, Split.TRAIN, u)
    hv = mlp_problem.hvp_yy(x, y, small_task, Split.TRAIN, v)
    assert u.dot(hv) == pytest.approx(v.dot(hu), abs=1e-6)


def test_exact_hvps_are_symmetric(quad2, softmax_problem, small_task):
    for prob, task, seed in ((quad2, None, 61), (softmax_problem, small_task, 62)):
        x = _randvec(prob.x_layout, seed)
        y = _randvec(prob.y_layout, seed + 1)
        u = _randvec(prob.y_layout, seed + 2, scale=1.0)
        v = _randvec(prob.y_layout, seed + 3, scale=1.0)
        hu = prob.hvp_yy(x, y, task, Split.TRAIN, u)
        hv = prob.hvp_yy(x, y, task, Split.TRAIN, v)
        assert u.dot(hv) == pytest.approx(v.dot(hu), abs=1e-8)


_MLP_REGS = {
    "none": Regularizer.none(),
    "l1": Regularizer.l1(0.05),
    "l2": Regularizer.l2(0.05),
}


@pytest.mark.parametrize("reg", sorted(_MLP_REGS))
@pytest.mark.parametrize("split", [Split.TRAIN, Split.VAL], ids=lambda s: s.value)
@pytest.mark.parametrize("loss", list(LossKind), ids=lambda k: k.value)
@pytest.mark.parametrize("hidden", [0, 16])
def test_mlp_hvp_matches_fd_of_gradient(small_task, hidden, loss, split, reg):
    prob = make_meta_init_mlp(DIM_IN, hidden, WAY, loss=loss, reg=_MLP_REGS[reg])
    x = ParamVector.zeros(prob.x_layout)
    y = _randvec(prob.y_layout, 56)
    v = _randvec(prob.y_layout, 57, scale=1.0)
    hv = prob.hvp_yy(x, y, small_task, split, v)
    fd = fd_hvp(lambda q: prob.grad_y(x, q, small_task, split), y, v, eps=1e-6)
    assert _rel_err(hv, fd) < 1e-7


def test_mlp_hvp_is_symmetric_to_rounding(mlp_problem, small_task):
    x = ParamVector.zeros(mlp_problem.x_layout)
    y = _randvec(mlp_problem.y_layout, 58)
    u = _randvec(mlp_problem.y_layout, 59, scale=1.0)
    v = _randvec(mlp_problem.y_layout, 60, scale=1.0)
    for split in (Split.TRAIN, Split.VAL):
        hu = mlp_problem.hvp_yy(x, y, small_task, split, u)
        hv = mlp_problem.hvp_yy(x, y, small_task, split, v)
        assert u.dot(hv) == pytest.approx(v.dot(hu), abs=1e-10)


def test_curvature_oracles_never_call_grad_y(softmax_problem, mlp_problem, small_task):
    # cost model: second-order products are closed-form, not differences of
    # grad_y, so the wrapper below must record no calls
    for prob in (softmax_problem, mlp_problem):
        calls = []
        inner = prob.grad_y

        def counted(*args, inner=inner, calls=calls):
            calls.append(args)
            return inner(*args)

        prob.grad_y = counted
        x = _randvec(prob.x_layout, 63)
        y = _randvec(prob.y_layout, 64)
        v = _randvec(prob.y_layout, 65, scale=1.0)
        for split in (Split.TRAIN, Split.VAL):
            prob.hvp_yy(x, y, small_task, split, v)
            assert calls == []
            prob.cross_hvp(x, y, small_task, split, v)
            assert calls == []
        # the wrapper does count direct calls
        prob.grad_y(x, y, small_task, Split.TRAIN)
        assert len(calls) == 1


def test_mlp_predict_returns_logits(mlp_problem, small_task):
    x = ParamVector.zeros(mlp_problem.x_layout)
    y = _randvec(mlp_problem.y_layout, 55)
    scores = mlp_problem.predict(x, y, small_task.val_features)
    assert scores.shape == (len(small_task.val), WAY)


# --------------------------------------------------------------------------
# split semantics and batch evaluation
# --------------------------------------------------------------------------


def test_regularizer_applies_to_train_split_only(small_task):
    plain = make_meta_feature_softmax(DIM_IN, 6, WAY)
    reg = make_meta_feature_softmax(DIM_IN, 6, WAY, reg=Regularizer.l2(0.7))
    x = _randvec(plain.x_layout, 71)
    y = _randvec(plain.y_layout, 72)
    penalty = 0.5 * 0.7 * float(y.values @ y.values)
    assert reg.value(x, y, small_task, Split.TRAIN) == pytest.approx(
        plain.value(x, y, small_task, Split.TRAIN) + penalty
    )
    assert reg.value(x, y, small_task, Split.VAL) == pytest.approx(
        plain.value(x, y, small_task, Split.VAL)
    )


def test_eval_f_is_the_train_value(softmax_problem, small_task):
    x = _randvec(softmax_problem.x_layout, 73)
    y = _randvec(softmax_problem.y_layout, 74)
    assert eval_f(softmax_problem, x, y, small_task) == pytest.approx(
        softmax_problem.value(x, y, small_task, Split.TRAIN)
    )


def test_eval_F_batch_averages_and_is_permutation_invariant(
    softmax_problem, small_batch
):
    x = _randvec(softmax_problem.x_layout, 75)
    ys = [_randvec(softmax_problem.y_layout, 80 + j) for j in range(len(small_batch))]
    mean = eval_F_batch(softmax_problem, x, ys, small_batch)
    per_task = [
        softmax_problem.value(x, y, t, Split.VAL)
        for y, t in zip(ys, small_batch.tasks)
    ]
    assert mean == pytest.approx(np.mean(per_task))

    from bilevelopt import TaskBatch

    perm = [2, 0, 1]
    shuffled = TaskBatch(tuple(small_batch.tasks[i] for i in perm))
    mean_shuffled = eval_F_batch(
        softmax_problem, x, [ys[i] for i in perm], shuffled
    )
    assert mean_shuffled == pytest.approx(mean)


def test_eval_F_batch_rejects_mismatched_lengths(softmax_problem, small_batch):
    x = _randvec(softmax_problem.x_layout, 76)
    ys = [_randvec(softmax_problem.y_layout, 77)]
    with pytest.raises(LengthMismatch):
        eval_F_batch(softmax_problem, x, ys, small_batch)


def test_problems_accept_extended_x_but_reject_wrong_y(
    softmax_problem, small_task
):
    # trainers append rule-specific segments to x; the problem reads only its
    # own and must tolerate the extras
    ext_layout = softmax_problem.x_layout.extended("rates", 3)
    x_ext = ParamVector.zeros(ext_layout)
    y = ParamVector.zeros(softmax_problem.y_layout)
    assert np.isfinite(softmax_problem.value(x_ext, y, small_task, Split.TRAIN))

    bad_y = ParamVector.zeros(Layout([("w", 2)]))
    with pytest.raises(LayoutMismatch):
        softmax_problem.value(x_ext, bad_y, small_task, Split.TRAIN)


# --------------------------------------------------------------------------
# batch methods over a leading task axis
# --------------------------------------------------------------------------


def _batch_problems():
    # the quadratic has no batch methods of its own: BilevelObjective's loops
    yield pytest.param(
        make_quadratic([[2.0, -0.7], [0.4, 1.5]], 1.0, [1.0, -0.5]), id="quadratic"
    )
    for reg in sorted(_MLP_REGS):
        yield pytest.param(
            make_meta_feature_softmax(DIM_IN, 6, WAY, reg=_MLP_REGS[reg]), id=f"softmax-{reg}"
        )
        for hidden in (0, 16):
            for loss in LossKind:
                yield pytest.param(
                    make_meta_init_mlp(DIM_IN, hidden, WAY, loss=loss, reg=_MLP_REGS[reg]),
                    id=f"mlp{hidden}-{loss.value}-{reg}",
                )


def _rel_gap(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def _stacked(layout, seed, n):
    vecs = [_randvec(layout, seed + j) for j in range(n)]
    return vecs, np.stack([v.values for v in vecs])


@pytest.mark.parametrize("split", [Split.TRAIN, Split.VAL], ids=lambda s: s.value)
@pytest.mark.parametrize("prob", list(_batch_problems()))
def test_batch_methods_match_the_per_task_oracles_row_by_row(prob, split, small_batch):
    x = _randvec(prob.x_layout, 70)
    ys, stack = _stacked(prob.y_layout, 71, len(small_batch))
    vs, v_stack = _stacked(prob.y_layout, 81, len(small_batch))
    values = prob.value_batch(x, stack, small_batch, split)
    assert values.shape == (len(small_batch),)
    batched = {
        "grad_y": prob.grad_y_batch(x, stack, small_batch, split),
        "grad_x": prob.grad_x_batch(x, stack, small_batch, split),
        "hvp_yy": prob.hvp_yy_batch(x, stack, small_batch, split, v_stack),
        "cross_hvp": prob.cross_hvp_batch(x, stack, small_batch, split, v_stack),
    }
    for j, (y, v, task) in enumerate(zip(ys, vs, small_batch)):
        assert values[j] == pytest.approx(prob.value(x, y, task, split), rel=1e-12, abs=0)
        per_task = {
            "grad_y": prob.grad_y(x, y, task, split),
            "grad_x": prob.grad_x(x, y, task, split),
            "hvp_yy": prob.hvp_yy(x, y, task, split, v),
            "cross_hvp": prob.cross_hvp(x, y, task, split, v),
        }
        for name, rows in batched.items():
            want = per_task[name].values
            assert rows.shape == (len(small_batch), want.size), name
            # grad_x and cross_hvp are zero where the loss never reads x
            assert np.linalg.norm(rows[j] - want) <= 1e-12 * np.linalg.norm(want), name
    if hasattr(prob, "predict"):
        scores = prob.predict_batch(x, stack, small_batch.val_features)
        for j, (y, task) in enumerate(zip(ys, small_batch)):
            assert _rel_gap(scores[j], prob.predict(x, y, task.val_features)) < 1e-12


def test_a_default_batch_method_rejects_a_row_count_unlike_the_task_count(quad2, small_batch):
    x = _randvec(quad2.x_layout, 90)
    stack = np.zeros((len(small_batch) + 1, quad2.y_layout.dim))
    with pytest.raises(LengthMismatch):
        quad2.grad_y_batch(x, stack, small_batch, Split.TRAIN)
    with pytest.raises(LengthMismatch):
        quad2.hvp_yy_batch(x, stack[:1], small_batch, Split.TRAIN, stack[:1])


def test_batch_methods_reject_a_stack_of_the_wrong_shape(softmax_problem, small_batch):
    x = _randvec(softmax_problem.x_layout, 80)
    stack = np.zeros((len(small_batch) + 1, softmax_problem.y_layout.dim))
    with pytest.raises(LayoutMismatch):
        softmax_problem.grad_y_batch(x, stack, small_batch, Split.TRAIN)
    with pytest.raises(LayoutMismatch):
        softmax_problem.value_batch(x, stack[:, 1:], small_batch, Split.VAL)
