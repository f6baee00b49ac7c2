"""The MLP's point kernels: at a shape the preset digests do not cover (way
8), the scores, grad_y and hvp_yy of a point equal the products computed
alone and concatenated behind the task axis, bit for bit, with and without
a hidden layer, for both losses and both splits. At a wide shape (way 20,
64 inputs and 64 hidden units) the stacked rows equal the per-task oracles
bit for bit, and hvp_yy meets central differences of grad_y."""

import numpy as np
import pytest

from bilevelopt import (
    EpisodeSpec,
    LossKind,
    ParamVector,
    Regularizer,
    RngStream,
    Split,
    SyntheticGaussian,
    make_meta_init_mlp,
    sample_task_batch,
)
from bilevelopt.objectives import _class_major, _softmax_jvp, _softmax_residual
from bilevelopt.verify import fd_hvp

WAY, DIM_IN = 8, 5


def _setting(hidden, loss, tasks, seed):
    """A way-8 MLP, a batch of `tasks` episodes, x and stacks ys, vs."""
    prob = make_meta_init_mlp(DIM_IN, hidden, WAY, loss=loss, reg=Regularizer.l2(0.01))
    source = SyntheticGaussian(
        num_classes=12, dim=DIM_IN, cluster_spread=4.0, noise_sd=0.5, seed=3
    )
    spec = EpisodeSpec(way=WAY, shot=2, query=5, batch_size=tasks)
    batch = sample_task_batch(source, spec, RngStream(seed, 1))
    gen = np.random.default_rng(seed)
    x = ParamVector(prob.x_layout, 0.5 * gen.standard_normal(prob.x_layout.dim))
    ys = 0.5 * gen.standard_normal((tasks, prob.y_layout.dim))
    vs = gen.standard_normal((tasks, prob.y_layout.dim))
    return prob, batch, x, ys, vs


def _layers(prob, stack):
    """(W, bias column) of each dense layer of the rows `stack`, in y's
    order, each a reshaped copy of its slice."""
    lead = stack.shape[:-1]
    shapes = [(prob.hidden, DIM_IN), (WAY, prob.hidden)] if prob.hidden else [(WAY, DIM_IN)]
    at, layers = 0, []
    for rows, cols in shapes:
        w = stack[..., at:at + rows * cols].reshape(lead + (rows, cols)).copy()
        at += rows * cols
        layers.append((w, stack[..., at:at + rows].reshape(lead + (rows, 1)).copy()))
        at += rows
    return layers


def _concatenated(point, ys, vs):
    """Scores, grad_y and hvp_yy of the point built from its own forward
    pass, each product computed alone and the parts concatenated."""
    prob, phi, onehot = point.problem, point.phi, point.parts.onehot
    lead, n = ys.shape[:-1], phi.shape[-2]

    def joined(*parts):
        return np.concatenate([part.reshape(lead + (-1,)) for part in parts], axis=-1)

    def gradient(*pairs):
        # a^T h and the column sums of a of each layer's (a, h)
        return joined(*(q for a, h in pairs for q in (a.swapaxes(-1, -2) @ h, a.sum(axis=-2))))

    (w0, b0), *output = _layers(prob, ys)
    (v0, vb0), *v_output = _layers(prob, vs)
    if prob.hidden:
        (w1, b1), (v1, vb1) = output[0], v_output[0]
        act = np.tanh(phi @ w0.swapaxes(-1, -2) + b0.swapaxes(-1, -2))
        scores = _class_major(w1, act, b1)
    else:
        scores = _class_major(w0, phi, b0)
    if prob.loss is LossKind.CROSS_ENTROPY:
        p, delta = _softmax_residual(scores, onehot)

        def r_residual(r_out):
            return _softmax_jvp(p, r_out) / n
    else:
        delta = np.subtract(scores, onehot, order="C") / n

        def r_residual(r_out):
            return np.divide(r_out, n, order="C")

    if prob.hidden:
        slope = 1.0 - act * act
        grad_y = gradient(((delta @ w1) * slope, phi), (delta, act))
        r_act = (phi @ v0.swapaxes(-1, -2) + vb0.swapaxes(-1, -2)) * slope
        r_out = w1 @ r_act.swapaxes(-1, -2) + v1 @ act.swapaxes(-1, -2) + vb1
        r_delta = r_residual(r_out.swapaxes(-1, -2))
        r_back = (r_delta @ w1 + delta @ v1) * slope - 2.0 * (delta @ w1) * act * r_act
        gw1 = r_delta.swapaxes(-1, -2) @ act + delta.swapaxes(-1, -2) @ r_act
        hvp = joined(
            r_back.swapaxes(-1, -2) @ phi, r_back.sum(axis=-2), gw1, r_delta.sum(axis=-2)
        )
    else:
        grad_y = gradient((delta, phi))
        hvp = gradient((r_residual(_class_major(v0, phi, vb0)), phi))
    if point.split is Split.TRAIN:
        grad_y += prob.reg.grad(ys)
        hvp += prob.reg.hvp(vs)
    return {"scores": scores, "grad_y": grad_y, "hvp_yy": hvp}


@pytest.mark.parametrize("split", [Split.TRAIN, Split.VAL], ids=lambda s: s.value)
@pytest.mark.parametrize("loss", list(LossKind), ids=lambda k: k.value)
@pytest.mark.parametrize("hidden", [0, 16])
@pytest.mark.parametrize("tasks", [1, 3])
def test_kernels_that_write_their_rows_equal_the_concatenated_products_bit_for_bit(
    tasks, hidden, loss, split
):
    prob, batch, x, ys, vs = _setting(hidden, loss, tasks, 30 + tasks + hidden)
    point = prob.at(prob.split_parts(x, batch, split), ys)
    got = {"scores": point.scores, "grad_y": point.grad_y(), "hvp_yy": point.hvp_yy(vs)}
    want = _concatenated(point, ys, vs)
    for name, answer in got.items():
        assert answer.shape == want[name].shape, name
        assert answer.tobytes() == want[name].tobytes(), name


WIDE_WAY, WIDE_DIM, WIDE_TASKS = 20, 64, 8
# relative error of hvp_yy against central differences along a random
# direction at the wide shape: at most 6.0e-7 measured over the three
# directions below (mse, train split; cross-entropy at most 3.1e-7), so
# 100x that, rounded up to a decade
WIDE_FD_HVP_REL_TOL = 1e-4


@pytest.fixture(scope="module", params=list(LossKind), ids=lambda k: k.value)
def wide_setting(request):
    """A way-20 MLP with 64 inputs and 64 tanh units, 8 tasks of 5-shot
    15-query episodes, at weights that keep the hidden layer unsaturated."""
    prob = make_meta_init_mlp(
        WIDE_DIM, WIDE_DIM, WIDE_WAY, loss=request.param, reg=Regularizer.l2(0.01)
    )
    source = SyntheticGaussian(
        num_classes=24, dim=WIDE_DIM, cluster_spread=4.0, noise_sd=0.5, seed=5
    )
    spec = EpisodeSpec(way=WIDE_WAY, shot=5, query=15, batch_size=WIDE_TASKS)
    batch = sample_task_batch(source, spec, RngStream(9, 1))
    gen = np.random.default_rng(9)
    x = ParamVector(prob.x_layout, gen.standard_normal(prob.x_layout.dim) / WIDE_DIM)
    ys = gen.standard_normal((WIDE_TASKS, prob.y_layout.dim)) / WIDE_DIM
    vs = gen.standard_normal((WIDE_TASKS, prob.y_layout.dim))
    return prob, batch, x, ys, vs


@pytest.mark.parametrize("split", [Split.TRAIN, Split.VAL], ids=lambda s: s.value)
def test_wide_stacked_rows_equal_the_per_task_oracles_bit_for_bit(wide_setting, split):
    prob, batch, x, ys, vs = wide_setting
    point = prob.at(prob.split_parts(x, batch, split), ys)
    grad, hvp = point.grad_y(), point.hvp_yy(vs)
    layout = prob.y_layout
    for j, task in enumerate(batch.tasks):
        y, v = ParamVector(layout, ys[j]), ParamVector(layout, vs[j])
        assert grad[j].tobytes() == prob.grad_y(x, y, task, split).values.tobytes(), j
        assert hvp[j].tobytes() == prob.hvp_yy(x, y, task, split, v).values.tobytes(), j


@pytest.mark.parametrize("split", [Split.TRAIN, Split.VAL], ids=lambda s: s.value)
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
        assert err <= WIDE_FD_HVP_REL_TOL
