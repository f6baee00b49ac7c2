"""Class-major logits and split parts shared by a run's points: every batch
row matches its per-task oracle bit for bit, at ways 5 and 10 and at way 20
with width 64, at way 5 the numbers match the row-major formulas bit for
bit, and the accuracy fold picks the first of equal maxima as np.argmax
does."""

import numpy as np
import pytest

from bilevelopt import (
    EpisodeSpec,
    LossKind,
    MetaFeatureSoftmax,
    ParamVector,
    Regularizer,
    RngStream,
    Split,
    SyntheticGaussian,
    make_meta_feature_softmax,
    make_meta_init_mlp,
    sample_task_batch,
)
from bilevelopt.objectives import predicted_classes

DIM_IN, DIM_FEAT, HIDDEN = 8, 16, 16
# (dim_in, dim_feat, hidden): the reference widths, and a width where BLAS
# blocks the products as it does at scale
NARROW, WIDE = (DIM_IN, DIM_FEAT, HIDDEN), (64, 64, 64)
SPLITS = pytest.mark.parametrize("split", [Split.TRAIN, Split.VAL], ids=lambda s: s.value)


def _batch(way, dim_in=DIM_IN, tasks=4):
    """Episodes of the benchmark's reference shape: 1-shot 15-query."""
    source = SyntheticGaussian(
        num_classes=20, dim=dim_in, cluster_spread=10.0, noise_sd=0.5, seed=5
    )
    spec = EpisodeSpec(way=way, shot=1, query=15, batch_size=tasks)
    return sample_task_batch(source, spec, RngStream(5, way))


def _problems(way, dims=NARROW):
    dim_in, dim_feat, hidden = dims
    reg = Regularizer.l2(0.01)
    return {
        "softmax": make_meta_feature_softmax(dim_in, dim_feat, way, reg=reg),
        "mlp0": make_meta_init_mlp(dim_in, 0, way, reg=reg),
        "mlp16": make_meta_init_mlp(dim_in, hidden, way, reg=reg),
        "mlp16-mse": make_meta_init_mlp(
            dim_in, hidden, way, loss=LossKind.MEAN_SQUARED_ERROR, reg=reg
        ),
    }


def _cases():
    for way, dims in ((5, NARROW), (10, NARROW), (20, WIDE)):
        width = "" if dims == NARROW else f"-width{dims[-1]}"
        for name in _problems(way, dims):
            yield pytest.param(way, dims, name, id=f"way{way}{width}-{name}")


def _at(prob, x, ys, batch, split):
    """The point at ys on the parts of `split` of the batch."""
    return prob.at(prob.split_parts(x, batch, split), ys)


def _val_losses_and_scores(prob, x, ys, batch):
    return prob.val_losses_and_scores(prob.split_parts(x, batch, Split.VAL), ys)


def _draws(prob, n, seed):
    gen = np.random.default_rng(seed)
    x = ParamVector(prob.x_layout, 0.5 * gen.standard_normal(prob.x_layout.dim))
    ys = 0.5 * gen.standard_normal((n, prob.y_layout.dim))
    vs = gen.standard_normal((n, prob.y_layout.dim))
    return x, ys, vs


@SPLITS
@pytest.mark.parametrize("way, dims, name", list(_cases()))
def test_every_batch_row_equals_its_per_task_oracle_bit_for_bit(way, dims, name, split):
    prob, batch = _problems(way, dims)[name], _batch(way, dims[0])
    x, ys, vs = _draws(prob, len(batch), 3)
    point = _at(prob, x, ys, batch, split)
    batched = {
        "value": point.value(), "grad_y": point.grad_y(), "grad_x": point.grad_x(),
        "hvp_yy": point.hvp_yy(vs), "cross_hvp": point.cross_hvp(vs),
    }
    layout = prob.y_layout
    for j, task in enumerate(batch):
        y, v = ParamVector(layout, ys[j]), ParamVector(layout, vs[j])
        per_task = {
            "value": np.float64(prob.value(x, y, task, split)),
            "grad_y": prob.grad_y(x, y, task, split).values,
            "grad_x": prob.grad_x(x, y, task, split).values,
            "hvp_yy": prob.hvp_yy(x, y, task, split, v).values,
            "cross_hvp": prob.cross_hvp(x, y, task, split, v).values,
        }
        for oracle, rows in batched.items():
            assert rows[j].tobytes() == per_task[oracle].tobytes(), (oracle, j)


@pytest.mark.parametrize("way, dims, name", list(_cases()))
def test_val_losses_and_scores_rows_equal_the_per_task_oracles_bit_for_bit(way, dims, name):
    prob, batch = _problems(way, dims)[name], _batch(way, dims[0])
    x, ys, _ = _draws(prob, len(batch), 4)
    losses, scores = _val_losses_and_scores(prob, x, ys, batch)
    for j, task in enumerate(batch):
        y = ParamVector(prob.y_layout, ys[j])
        assert losses[j] == prob.value(x, y, task, Split.VAL)
        if prob.is_classifier:
            want = prob.predict(x, y, task.val_features)
            assert scores[j].tobytes() == np.ascontiguousarray(want).tobytes()


def _log_softmax_rows(z):
    zmax = z.max(axis=-1, keepdims=True)
    stable = z - zmax
    return stable - np.log(np.exp(stable).sum(axis=-1, keepdims=True))


def _row_major_reference(prob, x, ys, vs, batch, split):
    """Scores, loss, and the output layer's blocks of grad_y and (for a
    network without a hidden layer) of hvp_yy along vs, with (tasks, rows,
    classes) logits in row-major memory."""
    phi, labels = (
        (batch.train_features, batch.train_labels) if split is Split.TRAIN
        else (batch.val_features, batch.val_labels)
    )
    tasks, n = labels.shape
    way = prob.classes
    onehot = (labels[..., None] == np.arange(way)).astype(np.float64)
    softmax = isinstance(prob, MetaFeatureSoftmax)
    linear = softmax or prob.hidden == 0
    if linear:
        rows = phi @ x.values.reshape(DIM_FEAT, DIM_IN).T if softmax else phi
        width = rows.shape[-1]
        w = ys[:, : way * width].reshape(tasks, way, width)
        c = ys[:, way * width:].reshape(tasks, 1, way)
        z = rows @ w.swapaxes(-1, -2) + c
    else:
        w0 = ys[:, : HIDDEN * DIM_IN].reshape(tasks, HIDDEN, DIM_IN)
        at = HIDDEN * DIM_IN
        b0 = ys[:, at: at + HIDDEN].reshape(tasks, 1, HIDDEN)
        at += HIDDEN
        w = ys[:, at: at + way * HIDDEN].reshape(tasks, way, HIDDEN)
        c = ys[:, at + way * HIDDEN:].reshape(tasks, 1, way)
        act = np.tanh(phi @ w0.swapaxes(-1, -2) + b0)
        z = act @ w.swapaxes(-1, -2) + c
        rows = act
    log_p = _log_softmax_rows(z)
    flat = log_p.reshape(-1, way)
    loss = -flat[np.arange(len(flat)), labels.ravel()].reshape(labels.shape).mean(axis=-1)
    p = np.exp(log_p)
    delta = (p - onehot) / n
    grad_w = np.concatenate(
        [(delta.swapaxes(-1, -2) @ rows).reshape(tasks, -1), delta.sum(axis=-2)], axis=-1
    )
    hvp = None
    if linear:
        vw = vs[:, : way * width].reshape(tasks, way, width)
        dz = rows @ vw.swapaxes(-1, -2) + vs[:, way * width:].reshape(tasks, 1, way)
        u = (p * dz - p * (p * dz).sum(axis=-1, keepdims=True)) / n
        hvp = np.concatenate(
            [(u.swapaxes(-1, -2) @ rows).reshape(tasks, -1), u.sum(axis=-2)], axis=-1
        )
    if split is Split.TRAIN:
        loss = loss + prob.reg.value(ys)
        grad_w += prob.reg.grad(ys)[:, -grad_w.shape[-1]:]
        if hvp is not None:
            hvp += prob.reg.hvp(vs)
    return z, loss, grad_w, hvp


@SPLITS
@pytest.mark.parametrize("name", ["softmax", "mlp0", "mlp16"])
def test_way_5_numbers_equal_the_row_major_formulas_bit_for_bit(name, split):
    prob, batch = _problems(5)[name], _batch(5)
    x, ys, vs = _draws(prob, len(batch), 6)
    point = _at(prob, x, ys, batch, split)
    z, loss, grad_w, hvp = _row_major_reference(prob, x, ys, vs, batch, split)
    assert point.scores.tobytes() == z.tobytes()
    assert point.value().tobytes() == loss.tobytes()
    # the output layer's block of y: all of y without a hidden layer
    assert point.grad_y()[:, -grad_w.shape[-1]:].tobytes() == grad_w.tobytes()
    if hvp is not None:
        assert point.hvp_yy(vs).tobytes() == hvp.tobytes()
    if split is Split.VAL:
        losses, scores = _val_losses_and_scores(prob, x, ys, batch)
        assert losses.tobytes() == loss.tobytes()
        assert scores.tobytes() == z.tobytes()


@pytest.mark.parametrize("name", ["softmax", "mlp16"])
def test_logits_are_class_major_in_memory(name):
    prob, batch = _problems(5)[name], _batch(5)
    x, ys, vs = _draws(prob, len(batch), 7)
    point = _at(prob, x, ys, batch, Split.VAL)
    for logits in (point.scores, point.p):
        assert logits.swapaxes(-1, -2).flags.c_contiguous
    # the residual stays row-major, so its row sums keep their order
    assert point.delta.flags.c_contiguous


def test_the_points_of_a_split_share_its_parts():
    prob, batch = _problems(5)["softmax"], _batch(5)
    x, ys, _ = _draws(prob, len(batch), 8)
    parts = prob.split_parts(x, batch, Split.VAL)
    first, second = prob.at(parts, ys), prob.at(parts, 2.0 * ys)
    assert first.h is second.h is parts.h
    assert second.value().tobytes() == _at(prob, x, 2.0 * ys, batch, Split.VAL).value().tobytes()
    losses, _ = prob.val_losses_and_scores(parts, ys)
    assert losses.tobytes() == first.value().tobytes()


# --------------------------------------------------------------------------
# accuracy: the first of equal maxima
# --------------------------------------------------------------------------


def test_predicted_classes_picks_the_first_of_tied_maxima():
    scores = np.array([
        [1.0, 3.0, 3.0, 0.0, 3.0],
        [2.0, 2.0, 2.0, 2.0, 2.0],
        [0.0, 1.0, 0.0, 5.0, 5.0],
        [-1.0, -4.0, -1.0, -9.0, -2.0],
        [0.0, -0.0, 0.0, -1.0, 0.0],
        [-np.inf, -np.inf, 7.0, np.inf, np.inf],
    ])
    want = [1, 0, 3, 0, 0, 3]
    assert np.argmax(scores, axis=-1).tolist() == want
    assert predicted_classes(scores).tolist() == want
    # the same from class-major memory, as the classifiers lay scores out
    class_major = np.ascontiguousarray(scores.T).T
    assert predicted_classes(class_major).tolist() == want


@pytest.mark.parametrize("tasks", (1, 4, 100))
@pytest.mark.parametrize("way", (2, 5, 10))
def test_predicted_classes_agree_with_argmax_on_random_stacks(tasks, way):
    gen = np.random.default_rng(tasks * way)
    # one decimal, so many rows hold ties
    scores = np.round(gen.standard_normal((tasks, 15 * way, way)), 1)
    want = np.argmax(scores, axis=-1)
    assert np.array_equal(predicted_classes(scores), want)
    class_major = np.ascontiguousarray(scores.swapaxes(-1, -2)).swapaxes(-1, -2)
    assert np.array_equal(predicted_classes(class_major), want)
