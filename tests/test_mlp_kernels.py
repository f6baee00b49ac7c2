"""The MLP's point kernels: at a shape the preset digests do not cover (way
8), the scores, grad_y and hvp_yy of a point equal the products computed
alone and concatenated behind the task axis, bit for bit, with and without
a hidden layer, for both losses and both splits."""

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
