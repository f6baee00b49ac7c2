"""Task objectives as a uniform oracle bundle.

Each problem exposes values, gradients, and Hessian-vector products of the
per-task loss, evaluated on either split of a task:

  * split=TRAIN is the inner (lower-level) objective: data loss on the
    support set plus the regularizer on y.
  * split=VAL is the outer integrand: unregularized data loss on the query
    set. The meta objective averages this over a batch of tasks.

Three concrete problems are provided: an analytic quadratic (closed-form
minimizer and meta-gradient, used as a correctness oracle), a shared linear
feature map with a per-task softmax head, and a per-task MLP whose
initialization is the meta-parameter.

The trainer runs a whole batch of tasks at once on (tasks, dim) stacks
through each oracle's batch form, <oracle>_batch. BilevelObjective's batch
forms, and val_losses_and_scores (the validation losses and classifier
scores of an evaluation), call the per-task oracle task by task; the two
classifier problems override them with stacked kernels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .data import TaskBatch, TaskDataset
from .errors import LayoutMismatch, LengthMismatch, NonFiniteValue
from .numerics import Layout, ParamVector, segment_rows

__all__ = [
    "Split",
    "LossKind",
    "Paradigm",
    "Regularizer",
    "BilevelObjective",
    "QuadraticBilevel",
    "MetaFeatureSoftmax",
    "MetaInitMlp",
    "make_quadratic",
    "make_meta_feature_softmax",
    "make_meta_init_mlp",
    "eval_f",
    "eval_F_batch",
]


class Split(enum.Enum):
    TRAIN = "train"
    VAL = "val"


class LossKind(enum.Enum):
    CROSS_ENTROPY = "cross_entropy"
    MEAN_SQUARED_ERROR = "mse"


class Paradigm(enum.Enum):
    """How the meta-parameter x enters the per-task problem.

    META_INIT: x carries an "init" segment used as the starting point of the
    per-task parameters; the loss itself never reads x.
    META_FEATURE: x parameterizes a shared map applied to features, y is the
    task-specific head trained in the inner loop.
    """

    META_INIT = "meta_init"
    META_FEATURE = "meta_feature"


@dataclass(frozen=True)
class Regularizer:
    """None, L1, or L2 penalty on the per-task parameters y.

    L1 uses the subgradient sign(y) with sign(0) = 0 and has zero curvature
    almost everywhere.
    """

    kind: str = "none"  # none | l1 | l2
    coef: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "l1", "l2"):
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if self.coef < 0:
            raise ValueError("regularizer coefficient must be >= 0")

    @classmethod
    def none(cls) -> "Regularizer":
        return cls("none", 0.0)

    @classmethod
    def l1(cls, coef: float) -> "Regularizer":
        return cls("l1", coef)

    @classmethod
    def l2(cls, coef: float) -> "Regularizer":
        return cls("l2", coef)

    def value(self, y: np.ndarray):
        """Penalty of y, or of each row of a (tasks, dim) stack."""
        if self.kind == "l1":
            return self.coef * np.sum(np.abs(y), axis=-1)
        if self.kind == "l2":
            # the same dot product as y @ y, row by row
            return 0.5 * self.coef * (y[..., None, :] @ y[..., :, None])[..., 0, 0]
        return 0.0

    def grad(self, y: np.ndarray) -> np.ndarray:
        if self.kind == "l1":
            return self.coef * np.sign(y)
        if self.kind == "l2":
            return self.coef * y
        return np.zeros_like(y)

    def hvp(self, v: np.ndarray) -> np.ndarray:
        if self.kind == "l2":
            return self.coef * v
        return np.zeros_like(v)


def _split_data(
    data: TaskDataset | TaskBatch, split: Split
) -> tuple[np.ndarray, np.ndarray]:
    """Features and labels of one split, of a task or stacked over a batch."""
    if split is Split.TRAIN:
        return data.train_features, data.train_labels
    return data.val_features, data.val_labels


class BilevelObjective:
    """Oracle bundle: value, grad_y, grad_x, hvp_yy, and the transposed
    cross second-order product, all per task and split, and their batch
    forms. A classifier also defines predict(x, y, features), its class
    scores.

    grad_x / cross_hvp answer in the layout of the x argument (which may
    carry extra method-specific segments beyond the problem's own); segments
    the problem does not read are zero.

    Batch forms take (x, ys, batch, split), plus a vs stack for hvp_yy and
    cross_hvp, with ys and vs (tasks, dim_y) stacks. They answer with the
    per-task answers stacked on a leading task axis. val_losses_and_scores
    gives each task's validation loss and, for a classifier, its predict
    scores on the validation features. The ones here call the per-task
    oracle task by task; a problem overrides them for speed, and a subclass
    that changes a per-task oracle overrides its batch form as well.
    """

    x_layout: Layout
    y_layout: Layout
    exact_hvp: bool = True
    is_classifier: bool = False

    def value(self, x: ParamVector, y: ParamVector, task, split: Split) -> float:
        raise NotImplementedError

    def grad_y(self, x: ParamVector, y: ParamVector, task, split: Split) -> ParamVector:
        raise NotImplementedError

    def grad_x(self, x: ParamVector, y: ParamVector, task, split: Split) -> ParamVector:
        return ParamVector.zeros(x.layout)

    def hvp_yy(
        self, x: ParamVector, y: ParamVector, task, split: Split, v: ParamVector
    ) -> ParamVector:
        raise NotImplementedError

    def cross_hvp(
        self, x: ParamVector, y: ParamVector, task, split: Split, v: ParamVector
    ) -> ParamVector:
        """Gradient with respect to x of <grad_y(x, y), v>."""
        return ParamVector.zeros(x.layout)

    def _per_task(self, oracle, x: ParamVector, ys: np.ndarray, tasks, *args) -> np.ndarray:
        """oracle at each row of ys with the matching task, and the matching
        row of each stack in args, in task order; the answers stacked."""
        if len(ys) != len(tasks):
            raise LengthMismatch(f"{len(ys)} parameter rows for {len(tasks)} tasks")
        layout = self.y_layout
        answers = []
        for j, (y, task) in enumerate(zip(ys, tasks)):
            rest = [a if isinstance(a, Split) else ParamVector(layout, a[j]) for a in args]
            answer = oracle(x, ParamVector(layout, y), task, *rest)
            answers.append(answer.values if isinstance(answer, ParamVector) else answer)
        return np.array(answers)

    def value_batch(self, x, ys: np.ndarray, batch: TaskBatch, split: Split) -> np.ndarray:
        return self._per_task(self.value, x, ys, batch, split)

    def grad_y_batch(self, x, ys: np.ndarray, batch: TaskBatch, split: Split) -> np.ndarray:
        return self._per_task(self.grad_y, x, ys, batch, split)

    def grad_x_batch(self, x, ys: np.ndarray, batch: TaskBatch, split: Split) -> np.ndarray:
        return self._per_task(self.grad_x, x, ys, batch, split)

    def hvp_yy_batch(self, x, ys, batch: TaskBatch, split: Split, vs) -> np.ndarray:
        return self._per_task(self.hvp_yy, x, ys, batch, split, vs)

    def cross_hvp_batch(self, x, ys, batch: TaskBatch, split: Split, vs) -> np.ndarray:
        return self._per_task(self.cross_hvp, x, ys, batch, split, vs)

    def val_losses_and_scores(self, x: ParamVector, ys: np.ndarray, batch: TaskBatch):
        """Each task's validation loss at its row of the (tasks, dim_y) stack
        ys and, for a classifier, its class scores on the validation
        features (None otherwise)."""
        losses = self.value_batch(x, ys, batch, Split.VAL)
        if not self.is_classifier:
            return losses, None
        return losses, self._per_task(self.predict, x, ys, batch.val_features)

    def _check_xy(self, x: ParamVector, y: ParamVector):
        for seg in self.x_layout.segments:
            if not x.layout.has(seg.name) or x.layout.length_of(seg.name) != seg.length:
                raise LayoutMismatch(
                    f"x is missing segment {seg.name!r} of length {seg.length}"
                )
        if y.layout != self.y_layout:
            raise LayoutMismatch(f"y layout {y.layout} != expected {self.y_layout}")


def eval_f(problem: BilevelObjective, x: ParamVector, y: ParamVector, task) -> float:
    """Inner objective: regularized loss on the task's train split."""
    val = problem.value(x, y, task, Split.TRAIN)
    if not np.isfinite(val):
        raise NonFiniteValue("inner objective is not finite")
    return val


def eval_F_batch(
    problem: BilevelObjective, x: ParamVector, ys: list[ParamVector], batch: TaskBatch
) -> float:
    """Outer objective: mean unregularized validation loss across tasks."""
    if len(ys) != len(batch.tasks):
        raise LengthMismatch(f"{len(ys)} parameter vectors for {len(batch.tasks)} tasks")
    total = 0.0
    for y, task in zip(ys, batch.tasks):
        total += problem.value(x, y, task, Split.VAL)
    mean = total / len(batch.tasks)
    if not np.isfinite(mean):
        raise NonFiniteValue("outer objective is not finite")
    return mean


# ---------------------------------------------------------------------------
# analytic quadratic
# ---------------------------------------------------------------------------


class QuadraticBilevel(BilevelObjective):
    """Strongly convex quadratic with closed-form answers, for verification.

    Inner:  f(x, y) = 1/2 ||y - A x||^2 + lam/2 ||y||^2
    Outer:  F(y)    = 1/2 ||y - b||^2

    Dataset splits are ignored; the split argument only selects f vs F.
    Unique inner minimizer y*(x) = A x / (1 + lam) and meta-gradient
    dF/dx = A^T (A x / (1+lam) - b) / (1 + lam).
    """

    def __init__(self, a, lam: float, b):
        if lam <= 0:
            raise ValueError("lam must be > 0")
        a_arr = np.atleast_2d(np.asarray(a, dtype=np.float64))
        b_arr = np.atleast_1d(np.asarray(b, dtype=np.float64))
        if a_arr.shape[0] != b_arr.shape[0]:
            raise ValueError(
                f"A has {a_arr.shape[0]} rows but b has {b_arr.shape[0]} entries"
            )
        self.a = a_arr
        self.lam = float(lam)
        self.b = b_arr
        self.x_layout = Layout([("theta", a_arr.shape[1])])
        self.y_layout = Layout([("y", a_arr.shape[0])])

    def _theta(self, x: ParamVector) -> np.ndarray:
        return x.segment("theta")

    def y_star(self, x: ParamVector) -> ParamVector:
        return ParamVector(self.y_layout, self.a @ self._theta(x) / (1.0 + self.lam))

    def hypergradient(self, x: ParamVector) -> ParamVector:
        ystar = self.a @ self._theta(x) / (1.0 + self.lam)
        g = self.a.T @ (ystar - self.b) / (1.0 + self.lam)
        out = ParamVector.zeros(x.layout)
        return out.with_segment("theta", g)

    def value(self, x, y, task, split):
        self._check_xy(x, y)
        yv = y.values
        if split is Split.TRAIN:
            r = yv - self.a @ self._theta(x)
            return 0.5 * float(r @ r) + 0.5 * self.lam * float(yv @ yv)
        r = yv - self.b
        return 0.5 * float(r @ r)

    def grad_y(self, x, y, task, split):
        self._check_xy(x, y)
        yv = y.values
        if split is Split.TRAIN:
            return y.like((yv - self.a @ self._theta(x)) + self.lam * yv)
        return y.like(yv - self.b)

    def grad_x(self, x, y, task, split):
        self._check_xy(x, y)
        out = ParamVector.zeros(x.layout)
        if split is Split.TRAIN:
            r = y.values - self.a @ self._theta(x)
            return out.with_segment("theta", -self.a.T @ r)
        return out

    def hvp_yy(self, x, y, task, split, v):
        self._check_xy(x, y)
        if split is Split.TRAIN:
            return (1.0 + self.lam) * v
        return v

    def cross_hvp(self, x, y, task, split, v):
        self._check_xy(x, y)
        out = ParamVector.zeros(x.layout)
        if split is Split.TRAIN:
            return out.with_segment("theta", -self.a.T @ v.values)
        return out


make_quadratic = QuadraticBilevel


# ---------------------------------------------------------------------------
# shared feature map + per-task softmax head
# ---------------------------------------------------------------------------


def _log_softmax(z: np.ndarray) -> np.ndarray:
    zmax = z.max(axis=-1, keepdims=True)
    stable = z - zmax
    return stable - np.log(np.exp(stable).sum(axis=-1, keepdims=True))


def _onehot(labels: np.ndarray, classes: int) -> np.ndarray:
    return (labels[..., None] == np.arange(classes)).astype(np.float64)


def _at_labels(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each row's entry at its own label."""
    rows = scores.reshape(-1, scores.shape[-1])
    return rows[np.arange(len(rows)), labels.ravel()].reshape(labels.shape)


def _cross_entropy(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mean cross-entropy of softmax(scores) over the rows, per task."""
    return -_at_labels(_log_softmax(scores), labels).mean(axis=-1)


def _softmax_residual(z: np.ndarray, labels: np.ndarray):
    """Softmax p of the logits and the cross-entropy residual (p - onehot) / n."""
    p = np.exp(_log_softmax(z))
    return p, (p - _onehot(labels, z.shape[-1])) / labels.shape[-1]


def _softmax_jvp(p: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Row-wise softmax Jacobian (symmetric) applied to logit directions dz."""
    return p * dz - p * (p * dz).sum(axis=-1, keepdims=True)


def _parts(layout: Layout, shapes) -> tuple:
    """(slice, shape) of each segment of the layout, for _unpack."""
    return tuple(
        (slice(seg.offset, seg.offset + seg.length), shape)
        for seg, shape in zip(layout.segments, shapes)
    )


def _unpack(values: np.ndarray, parts) -> list[np.ndarray]:
    """The segments of values (..., dim) reshaped to the shapes in `parts`,
    keeping any leading task axes. Biases are (1, length), so they broadcast
    over rows."""
    lead = values.shape[:-1]
    return [values[..., where].reshape(lead + shape) for where, shape in parts]


def _join(like: np.ndarray, *parts: np.ndarray) -> np.ndarray:
    """Flatten each part behind the leading task axes of `like` and concatenate."""
    lead = like.shape[:-1]
    return np.concatenate([part.reshape(lead + (-1,)) for part in parts], axis=-1)


class _TaskAxisObjective(BilevelObjective):
    """The five oracles, their batch forms and predict from kernels that take
    y (and v) as (..., dim_y) arrays and broadcast over leading task axes:
    _scores and _loss (behind value), _grad_y, _hvp_yy, and for a problem
    whose loss reads x, _grad_x and _cross_hvp. Each row of a batch answer
    matches the per-task oracle bit for bit.

    The batch forms, and val_losses_and_scores with its single forward pass,
    run the kernels rather than the per-task oracles. A subclass that changes
    an oracle therefore overrides its batch form too (and, for value or
    predict, val_losses_and_scores)."""

    def value(self, x, y, task, split):
        self._check_xy(x, y)
        return float(self._value(x, y.values, task, split))

    def grad_y(self, x, y, task, split):
        self._check_xy(x, y)
        return y.like(self._grad_y(x, y.values, task, split))

    def grad_x(self, x, y, task, split):
        self._check_xy(x, y)
        return x.like(self._grad_x(x, y.values, task, split))

    def hvp_yy(self, x, y, task, split, v):
        self._check_xy(x, y)
        return v.like(self._hvp_yy(x, y.values, task, split, v.values))

    def cross_hvp(self, x, y, task, split, v):
        self._check_xy(x, y)
        return x.like(self._cross_hvp(x, y.values, task, split, v.values))

    def predict(self, x, y, features):
        return self._scores(x, y.values, np.atleast_2d(features))

    def _value(self, x, yv, data, split):
        phi, labels = _split_data(data, split)
        loss = self._loss(self._scores(x, yv, phi), labels)
        if split is Split.TRAIN:
            loss = loss + self.reg.value(yv)
        return loss

    def _x_free(self, x, yv, *_):
        """Zero in every row: _grad_x and _cross_hvp of a loss that never reads x."""
        return np.zeros(yv.shape[:-1] + (x.layout.dim,))

    _grad_x = _cross_hvp = _x_free

    def _check_stack(self, batch: TaskBatch, *stacks: np.ndarray):
        for ys in stacks:
            if ys.shape != (len(batch), self.y_layout.dim):
                raise LayoutMismatch(
                    f"y stack shape {ys.shape} != ({len(batch)}, {self.y_layout.dim})"
                )

    def value_batch(self, x, ys: np.ndarray, batch: TaskBatch, split: Split) -> np.ndarray:
        self._check_stack(batch, ys)
        return self._value(x, ys, batch, split)

    def grad_y_batch(self, x, ys: np.ndarray, batch: TaskBatch, split: Split) -> np.ndarray:
        self._check_stack(batch, ys)
        return self._grad_y(x, ys, batch, split)

    def grad_x_batch(self, x, ys: np.ndarray, batch: TaskBatch, split: Split) -> np.ndarray:
        self._check_stack(batch, ys)
        return self._grad_x(x, ys, batch, split)

    def hvp_yy_batch(self, x, ys, batch: TaskBatch, split: Split, vs) -> np.ndarray:
        self._check_stack(batch, ys, vs)
        return self._hvp_yy(x, ys, batch, split, vs)

    def cross_hvp_batch(self, x, ys, batch: TaskBatch, split: Split, vs) -> np.ndarray:
        self._check_stack(batch, ys, vs)
        return self._cross_hvp(x, ys, batch, split, vs)

    def val_losses_and_scores(self, x, ys: np.ndarray, batch: TaskBatch):
        """value_batch on the val split and, for a classifier, the predict
        scores on its features, from one forward pass."""
        self._check_stack(batch, ys)
        scores = self._scores(x, ys, batch.val_features)
        return self._loss(scores, batch.val_labels), scores if self.is_classifier else None


class MetaFeatureSoftmax(_TaskAxisObjective):
    """Cross-entropy of softmax(W (M phi) + c).

    x holds the shared map M ("feat", dim_feat x dim_in, row-major); y holds
    the head weights ("w", way x dim_feat) and bias ("b", way). Because the
    logits are linear in y, the Gauss-Newton product equals the exact
    Hessian-vector product. The cross term d<grad_y, v>/dM is closed-form
    too: (delta Vw + u W)^T phi, with u the softmax-Jacobian product that
    hvp_yy builds. The regularizer never reads x, so it adds nothing there.
    """

    is_classifier = True

    def __init__(self, dim_in: int, dim_feat: int, way: int, reg: Regularizer | None = None):
        if min(dim_in, dim_feat, way) < 1:
            raise ValueError("dims must be >= 1")
        self.dim_in = dim_in
        self.dim_feat = dim_feat
        self.way = way
        self.reg = reg or Regularizer.none()
        self.x_layout = Layout([("feat", dim_feat * dim_in)])
        self.y_layout = Layout([("w", way * dim_feat), ("b", way)])
        self._y_parts = _parts(self.y_layout, ((way, dim_feat), (1, way)))

    def _logits(self, x: ParamVector, yv: np.ndarray, phi: np.ndarray):
        """Features h = phi M^T, head weights W and logits h W^T + c."""
        w, c = _unpack(yv, self._y_parts)
        h = phi @ x.segment("feat").reshape(self.dim_feat, self.dim_in).T
        return h, w, h @ w.swapaxes(-1, -2) + c

    def _forward(self, x, yv, data, split):
        """Inputs phi, head W, features h, softmax p and residual."""
        phi, labels = _split_data(data, split)
        h, w, z = self._logits(x, yv, phi)
        p, delta = _softmax_residual(z, labels)
        return phi, w, h, p, delta

    def _head_jvp(self, h, p, v):
        """Head direction Vw and the softmax-Jacobian product u, over n."""
        vw, vb = _unpack(v, self._y_parts)
        return vw, _softmax_jvp(p, h @ vw.swapaxes(-1, -2) + vb) / h.shape[-2]

    def _loss(self, scores, labels):
        return _cross_entropy(scores, labels)

    def _grad_y(self, x, yv, data, split):
        _, _, h, _, delta = self._forward(x, yv, data, split)
        out = _join(yv, delta.swapaxes(-1, -2) @ h, delta.sum(axis=-2))
        if split is Split.TRAIN:
            out += self.reg.grad(yv)
        return out

    def _scores(self, x, yv, phi):
        return self._logits(x, yv, phi)[2]

    def _feat_gradient(self, x, gm):
        """Rows in x's layout with gm, (..., dim_feat, dim_in), in segment "feat"."""
        return segment_rows(x.layout, "feat", gm.reshape(gm.shape[:-2] + (-1,)))

    def _grad_x(self, x, yv, data, split):
        phi, w, _, _, delta = self._forward(x, yv, data, split)
        return self._feat_gradient(x, (delta @ w).swapaxes(-1, -2) @ phi)

    def _hvp_yy(self, x, yv, data, split, v):
        _, _, h, p, _ = self._forward(x, yv, data, split)
        _, u = self._head_jvp(h, p, v)
        out = _join(v, u.swapaxes(-1, -2) @ h, u.sum(axis=-2))
        if split is Split.TRAIN:
            out += self.reg.hvp(v)
        return out

    def _cross_hvp(self, x, yv, data, split, v):
        phi, w, h, p, delta = self._forward(x, yv, data, split)
        vw, u = self._head_jvp(h, p, v)
        return self._feat_gradient(x, (delta @ vw + u @ w).swapaxes(-1, -2) @ phi)


make_meta_feature_softmax = MetaFeatureSoftmax


# ---------------------------------------------------------------------------
# per-task MLP whose initialization is meta-learned
# ---------------------------------------------------------------------------


class MetaInitMlp(_TaskAxisObjective):
    """Small tanh MLP trained per task; x carries its initialization.

    y holds the network weights (one hidden layer of width `hidden`, or a
    bare linear map when hidden == 0); x holds segment "init" with the same
    total length. The loss never reads x, so grad_x and cross_hvp are zero.
    Gradients are analytic backprop; hvp_yy is Pearlmutter's exact
    R-operator, a forward-mode pass through that backprop.
    """

    def __init__(
        self,
        dim_in: int,
        hidden: int,
        dim_out: int,
        loss: LossKind = LossKind.CROSS_ENTROPY,
        reg: Regularizer | None = None,
    ):
        if dim_in < 1 or dim_out < 1 or hidden < 0:
            raise ValueError("dims must be >= 1 (hidden may be 0)")
        self.dim_in = dim_in
        self.hidden = hidden
        self.dim_out = dim_out
        self.loss = loss
        self.reg = reg or Regularizer.none()
        self.is_classifier = loss is LossKind.CROSS_ENTROPY
        if hidden > 0:
            shapes = {
                "w0": (hidden, dim_in),
                "b0": (1, hidden),
                "w1": (dim_out, hidden),
                "b1": (1, dim_out),
            }
        else:
            shapes = {"w0": (dim_out, dim_in), "b0": (1, dim_out)}
        self.y_layout = Layout([(name, rows * cols) for name, (rows, cols) in shapes.items()])
        self._y_parts = _parts(self.y_layout, shapes.values())
        self.x_layout = Layout([("init", self.y_layout.dim)])

    def _forward(self, yv: np.ndarray, phi: np.ndarray):
        """Network outputs, hidden activations and output weights (the last
        two None without a hidden layer)."""
        if self.hidden > 0:
            w0, b0, w1, b1 = _unpack(yv, self._y_parts)
            a = np.tanh(phi @ w0.swapaxes(-1, -2) + b0)
            return a @ w1.swapaxes(-1, -2) + b1, a, w1
        w0, b0 = _unpack(yv, self._y_parts)
        return phi @ w0.swapaxes(-1, -2) + b0, None, None

    def _residual(self, yv: np.ndarray, data, split):
        """Inputs, activations, output weights, softmax p (None for MSE) and
        residual dloss/dout."""
        phi, labels = _split_data(data, split)
        out, act, w1 = self._forward(yv, phi)
        if self.loss is LossKind.CROSS_ENTROPY:
            p, delta = _softmax_residual(out, labels)
        else:
            p, delta = None, (out - _onehot(labels, self.dim_out)) / labels.shape[-1]
        return phi, act, w1, p, delta

    def _loss(self, scores, labels):
        if self.loss is LossKind.CROSS_ENTROPY:
            loss = _cross_entropy(scores, labels)
        else:
            r = scores - _onehot(labels, self.dim_out)
            loss = 0.5 * (r * r).sum(axis=(-2, -1)) / labels.shape[-1]
        if not np.isfinite(loss).all():
            raise NonFiniteValue("MLP loss is not finite")
        return loss

    def _grad_y(self, x, yv, data, split):
        phi, act, w1, _, delta = self._residual(yv, data, split)
        delta_t = delta.swapaxes(-1, -2)
        if self.hidden > 0:
            back = (delta @ w1) * (1.0 - act * act)
            out = _join(
                yv, back.swapaxes(-1, -2) @ phi, back.sum(axis=-2),
                delta_t @ act, delta.sum(axis=-2),
            )
        else:
            out = _join(yv, delta_t @ phi, delta.sum(axis=-2))
        if split is Split.TRAIN:
            out += self.reg.grad(yv)
        return out

    def _scores(self, x, yv, phi):
        return self._forward(yv, phi)[0]

    def _hvp_yy(self, x, yv, data, split, v):
        phi, act, w1, p, delta = self._residual(yv, data, split)
        n = delta.shape[-2]

        def r_residual(r_out):
            # directional derivative of delta along r_out = R{out}
            return r_out / n if p is None else _softmax_jvp(p, r_out) / n

        if self.hidden == 0:
            v0, vb0 = _unpack(v, self._y_parts)
            r_delta = r_residual(phi @ v0.swapaxes(-1, -2) + vb0)
            out = _join(v, r_delta.swapaxes(-1, -2) @ phi, r_delta.sum(axis=-2))
        else:
            v0, vb0, v1, vb1 = _unpack(v, self._y_parts)
            slope = 1.0 - act * act
            r_act = (phi @ v0.swapaxes(-1, -2) + vb0) * slope
            r_delta = r_residual(
                r_act @ w1.swapaxes(-1, -2) + act @ v1.swapaxes(-1, -2) + vb1
            )
            r_back = (r_delta @ w1 + delta @ v1) * slope - 2.0 * (delta @ w1) * act * r_act
            gw1 = r_delta.swapaxes(-1, -2) @ act + delta.swapaxes(-1, -2) @ r_act
            out = _join(
                v, r_back.swapaxes(-1, -2) @ phi, r_back.sum(axis=-2), gw1,
                r_delta.sum(axis=-2),
            )
        if split is Split.TRAIN:
            out += self.reg.hvp(v)
        return out


make_meta_init_mlp = MetaInitMlp
