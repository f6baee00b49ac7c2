"""Task objectives as a uniform oracle bundle.

Each problem exposes values, gradients, and Hessian-vector products of the
per-task loss, evaluated on either split of a task:

  * split=TRAIN is the inner (lower-level) objective: data loss on the
    support set plus the regularizer on y.
  * split=VAL is the outer integrand: unregularized data loss on the query
    set. The meta objective averages this over a batch of tasks.

Three concrete problems are provided: an analytic quadratic (closed-form
minimizer and meta-gradient, used as a correctness oracle) and two
classifiers that are one network kernel under two meta-learners. The
network (_TaskAxisObjective) is dense, with an optional tanh hidden layer.
MetaInitMlp trains it per task from an initialization that is the
meta-parameter; MetaFeatureSoftmax trains it without a hidden layer, a
softmax head, on the features of a shared linear map that is the
meta-parameter.

The trainer runs a whole batch of tasks at once on (tasks, dim) stacks.
It asks a problem for what the points of one split share, whatever ys,
split_parts(x, batch, split), and for a point on those parts,
at(parts, ys), and reads every oracle it needs there; evaluation reads the
validation losses and classifier scores from val_losses_and_scores(parts,
ys). BilevelObjective's points call the per-task oracles task by task. The
network builds a point from one forward pass, and its per-task oracles
are views of it; its parts add the split's inputs, the input of the
forward pass and the one-hot targets. Its kernels read y through views of
its dense layers (_dense) and write each answer into its own rows
(_dense_gradient); nothing is concatenated. Its logit-shaped arrays are
class-major in memory, (tasks, classes, rows), and the kernels read them
through (tasks, rows, classes) views, so the reductions over the few
classes run along contiguous rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .data import LabelTargets, TaskBatch
from .errors import LayoutMismatch, LengthMismatch, NonFiniteValue
from .numerics import Layout, ParamVector

__all__ = [
    "Split",
    "LossKind",
    "Paradigm",
    "Regularizer",
    "BilevelObjective",
    "Point",
    "SplitParts",
    "QuadraticBilevel",
    "MetaFeatureSoftmax",
    "MetaInitMlp",
    "make_quadratic",
    "make_meta_feature_softmax",
    "make_meta_init_mlp",
    "eval_f",
    "eval_F_batch",
    "predicted_classes",
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


class SplitParts:
    """What every point of a problem at x on the `split` of `batch` shares,
    whatever its ys. split_parts builds one; a run builds one per split and
    hands it to each of its points. This one carries x, the batch and the
    split; a problem whose points share more extends it."""

    def __init__(self, x: ParamVector, batch, split: Split):
        self.x, self.batch, self.split = x, batch, split


class Point:
    """The five oracles of `problem` at the (tasks, dim_y) stack ys on the
    split parts `parts`; hvp_yy and cross_hvp take a stack vs of ys's shape.
    Each answer is a stack with one row per task. This one calls the
    problem's per-task oracles task by task; BilevelObjective.at of a
    problem with a forward pass worth sharing returns its own."""

    couples_x = True  # False where the loss never reads x: no sweep asks for x terms

    def __init__(self, problem, ys: np.ndarray, parts: SplitParts):
        self.problem, self.ys, self.parts = problem, ys, parts
        self.x, self.split = parts.x, parts.split

    def value(self) -> np.ndarray:
        return self._per_task(self.problem.value)

    def grad_y(self) -> np.ndarray:
        return self._per_task(self.problem.grad_y)

    def grad_x(self) -> np.ndarray:
        return self._per_task(self.problem.grad_x)

    def hvp_yy(self, vs: np.ndarray) -> np.ndarray:
        self._check_directions(vs)
        return self._hvp_yy(vs)

    def cross_hvp(self, vs: np.ndarray) -> np.ndarray:
        self._check_directions(vs)
        return self._cross_hvp(vs)

    def _hvp_yy(self, vs: np.ndarray) -> np.ndarray:
        return self._per_task(self.problem.hvp_yy, vs)

    def _cross_hvp(self, vs: np.ndarray) -> np.ndarray:
        return self._per_task(self.problem.cross_hvp, vs)

    def _check_directions(self, vs: np.ndarray):
        if vs.shape != self.ys.shape:
            raise LayoutMismatch(f"direction stack shape {vs.shape} != y stack {self.ys.shape}")

    def _per_task(self, oracle, *stacks: np.ndarray) -> np.ndarray:
        """oracle(x, y, task, split, *v) at each task's row y of ys, with its
        row v of each stack, in task order; the answers stacked."""
        tasks = self.parts.batch
        if len(self.ys) != len(tasks):
            raise LengthMismatch(f"{len(self.ys)} parameter rows for {len(tasks)} tasks")
        layout = self.problem.y_layout
        answers = []
        for j, task in enumerate(tasks):
            y, *vs = (ParamVector(layout, stack[j]) for stack in (self.ys,) + stacks)
            answer = oracle(self.x, y, task, self.split, *vs)
            answers.append(answer.values if isinstance(answer, ParamVector) else answer)
        return np.array(answers)


class BilevelObjective:
    """Oracle bundle: value, grad_y, grad_x, hvp_yy, and the transposed
    cross second-order product, all per task and split, and the point
    at(parts, ys) that training reads them from. A classifier also defines
    predict(x, y, features), its class scores.

    grad_x / cross_hvp answer in the layout of the x argument (which may
    carry extra method-specific segments beyond the problem's own); segments
    the problem does not read are zero.

    split_parts(x, batch, split) builds what the points on one split share;
    at(parts, ys) is the point at the (tasks, dim_y) stack ys on those
    parts, and val_losses_and_scores(parts, ys) gives each task's
    validation loss and, for a classifier, its predict scores on the
    validation features. The ones here call the per-task oracles task by
    task; a problem may override them for speed. Training reads every
    oracle from at and evaluation from val_losses_and_scores, so a subclass
    that changes an oracle of a problem with its own at overrides at as
    well.
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

    def split_parts(self, x: ParamVector, batch: TaskBatch, split: Split) -> SplitParts:
        return SplitParts(x, batch, split)

    def at(self, parts: SplitParts, ys: np.ndarray) -> Point:
        return Point(self, ys, parts)

    def val_losses_and_scores(self, parts: SplitParts, ys: np.ndarray):
        """Each task's validation loss at its row of ys and, for a
        classifier, its class scores on the validation features (None
        otherwise), on the val split's parts."""
        _check_val(parts)
        losses = self.at(parts, ys).value()
        if not self.is_classifier:
            return losses, None
        rows = zip(ys, parts.batch.val_features)
        return losses, np.array(
            [self.predict(parts.x, ParamVector(self.y_layout, y), f) for y, f in rows]
        )

    def _check_xy(self, x: ParamVector, y: ParamVector):
        for seg in self.x_layout.segments:
            if not x.layout.has(seg.name) or x.layout.length_of(seg.name) != seg.length:
                raise LayoutMismatch(
                    f"x is missing segment {seg.name!r} of length {seg.length}"
                )
        if y.layout != self.y_layout:
            raise LayoutMismatch(f"y layout {y.layout} != expected {self.y_layout}")


def _check_val(parts: SplitParts):
    if parts.split is not Split.VAL:
        raise ValueError(f"validation losses read the val split's parts, not {parts.split.value}")


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
# the network kernel of both classifiers
# ---------------------------------------------------------------------------


def _log_softmax(z: np.ndarray) -> np.ndarray:
    stable = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    stable -= np.log(np.add.reduce(np.exp(stable), axis=-1, keepdims=True))
    return stable


def _class_major(w: np.ndarray, rows: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """The logits rows W^T + b, computed as W rows^T + b in (..., classes,
    rows) memory, with b a (..., classes, 1) column, and returned as its
    (..., rows, classes) view, so the reductions over classes run along
    contiguous rows."""
    logits = w @ rows.swapaxes(-1, -2)
    logits += bias
    return logits.swapaxes(-1, -2)


def _cross_entropy(scores: np.ndarray, at_labels: tuple) -> np.ndarray:
    """Mean cross-entropy of softmax(scores) over the rows, per task;
    at_labels indexes each row's entry at its label (_TaskAxisParts). The
    log-softmax at the labels, as _log_softmax computes it, with the exp
    taken in place, so grading holds one array of the scores' size."""
    stable = scores - np.maximum.reduce(scores, axis=-1, keepdims=True)
    picked = stable[at_labels]
    picked -= np.log(np.add.reduce(np.exp(stable, out=stable), axis=-1))
    # the bits of .mean(axis=-1), without its Python-level wrapper
    return -(np.add.reduce(picked, axis=-1) / picked.shape[-1])


def _softmax_residual(z: np.ndarray, onehot: np.ndarray):
    """Softmax p of the logits, in their layout, and the cross-entropy
    residual (p - onehot) / n, row-major: its row sums then run in row
    order, whatever the layout of z."""
    p = _log_softmax(z)
    np.exp(p, out=p)
    delta = np.subtract(p, onehot, order="C")
    delta /= onehot.shape[-2]
    return p, delta


def _softmax_jvp(p: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Row-wise softmax Jacobian (symmetric) applied to logit directions dz,
    row-major, as the residual is."""
    pdz = p * dz
    return np.subtract(pdz, p * np.add.reduce(pdz, axis=-1, keepdims=True), order="C")


def predicted_classes(scores: np.ndarray) -> np.ndarray:
    """The class of each row's largest score, the first of equal ones, as
    np.argmax(scores, axis=-1) gives for scores without NaN. A fold over
    the class columns, which run along contiguous rows in the classifiers'
    class-major scores."""
    best = np.maximum.reduce(scores, axis=-1)
    classes = np.full(best.shape, scores.shape[-1] - 1)
    for c in range(scores.shape[-1] - 2, -1, -1):
        np.putmask(classes, scores[..., c] == best, c)
    return classes


def _dense(yv: np.ndarray, at: int, rows: int, cols: int):
    """Views of the weights W, (..., rows, cols), and the bias b, (..., rows),
    of the dense layer stored at offset `at` of the rows yv: W row-major,
    then b."""
    end = at + rows * cols
    return yv[..., at:end].reshape(yv.shape[:-1] + (rows, cols)), yv[..., end:end + rows]


def _dense_gradient(out: np.ndarray, at: int, a: np.ndarray, h: np.ndarray):
    """Write a^T h and the column sums of a, for a (..., n, rows) stack a and
    its layer's (..., n, cols) inputs h, into the dense layer at offset `at`
    of the rows out."""
    w, b = _dense(out, at, a.shape[-1], h.shape[-1])
    np.matmul(a.swapaxes(-1, -2), h, out=w)
    np.add.reduce(a, axis=-2, out=b)


class _TaskAxisParts(SplitParts):
    """The split parts of a _TaskAxisObjective, for a TaskBatch or one
    TaskDataset: the split's inputs phi and labels, their targets (the
    batch's shared LabelTargets where they are for the problem's classes),
    and h, the input of the forward pass (the features phi M^T of the
    feature softmax, phi itself for the MLP)."""

    def __init__(self, problem, x: ParamVector, batch, split: Split):
        super().__init__(x, batch, split)
        if split is Split.TRAIN:
            self.phi, self.labels = batch.train_features, batch.train_labels
            targets = getattr(batch, "train_targets", None)
        else:
            self.phi, self.labels = batch.val_features, batch.val_labels
            targets = getattr(batch, "val_targets", None)
        if targets is None or targets.classes != problem.classes:
            targets = LabelTargets(self.labels, problem.classes)
        self.targets, self.at_labels = targets, targets.at_labels
        self.h = problem._features(x, self.phi)

    @property
    def onehot(self) -> np.ndarray:
        # built on first read, as grading cross-entropy scores never reads it
        return self.targets.onehot


def _residual_part(i: int) -> property:  # item i of the residual, computed on first read
    return property(lambda self: (self._pd or self._read_residual())[i])


class _TaskAxisPoint(Point):
    """The network of a _TaskAxisObjective at the stack ys on its parts,
    whose ys and batch may carry any leading task axes, or none for one
    task. The forward pass runs when the point is built and keeps the
    scores, the output layer's input act (the hidden activations, or h
    without a hidden layer) and its weights w1; the residual runs on its
    first read, before the kernel that reads it allocates. Each oracle
    kernel is written once (grad_y's as _grad_y, run once per point), for
    the per-task oracles and points alike. grad_x and cross_hvp here are
    those of a loss that never reads x: zero in every row."""

    def __init__(self, problem, ys, parts: _TaskAxisParts):
        super().__init__(problem, ys, parts)
        self.phi, self.h, self._g, self._pd = parts.phi, parts.h, None, None
        self.scores, self.act, self.w1 = problem._forward(ys, self.h)

    p, delta = _residual_part(0), _residual_part(1)
    slope, delta_w1 = _residual_part(2), _residual_part(3)

    def _read_residual(self):
        self._pd = self._residual()
        return self._pd

    def _residual(self):
        """Softmax p (None for a squared error), the row-major residual dloss/dscores,
        then, None without a hidden layer, its tanh' (slope, first) and delta W1 (last)."""
        prob, slope, onehot = self.problem, None, self.parts.onehot
        if prob.hidden:  # 1 - act^2 in one array of the hidden layer's size
            slope = self.act * self.act
            np.subtract(1.0, slope, out=slope)
        if prob.loss is LossKind.CROSS_ENTROPY:
            p, delta = _softmax_residual(self.scores, onehot)
        else:
            p, delta = None, np.subtract(self.scores, onehot, order="C") / onehot.shape[-2]
        return p, delta, slope, delta @ self.w1 if prob.hidden else None

    def grad_y(self):
        """_grad_y's answer, computed on the first call; read-only."""
        if self._g is None:
            self._g = self._grad_y()
            self._g.setflags(write=False)
        return self._g

    def _grad_y(self):
        prob, delta, out = self.problem, self.delta, np.empty(self.ys.shape)
        _dense_gradient(out, prob._out_at, delta, self.act)
        if prob.hidden:
            _dense_gradient(out, 0, self.delta_w1 * self.slope, self.h)
        if self.split is Split.TRAIN:
            out += prob.reg.grad(self.ys)
        return out

    def value(self):
        loss = self.problem._loss(self.scores, self.parts)
        if self.split is Split.TRAIN:
            loss = loss + self.problem.reg.value(self.ys)
        return loss

    couples_x = False  # grad_x and cross_hvp are zero, so a sweep asks for neither

    def grad_x(self):
        return np.zeros(self.ys.shape[:-1] + (self.x.layout.dim,))

    def _cross_hvp(self, vs):
        return self.grad_x()

    def _hvp_yy(self, vs):
        """Pearlmutter's R-operator, a forward-mode pass through the backprop of _grad_y."""
        prob, act = self.problem, self.act
        if prob.hidden == 0:
            u = self._head_jvp(vs)[1]
            out = np.empty(vs.shape)
            _dense_gradient(out, 0, u, act)
        else:
            delta, w1, h, slope = self.delta, self.w1, self.h, self.slope
            out = np.empty(vs.shape)
            v0, vb0 = _dense(vs, 0, prob.hidden, prob.dim_in)
            v1, vb1 = _dense(vs, prob._out_at, prob.classes, prob.hidden)
            r_act = (h @ v0.swapaxes(-1, -2) + vb0[..., None, :]) * slope
            # this order of the three terms, or the bits move
            r_out = w1 @ r_act.swapaxes(-1, -2) + v1 @ act.swapaxes(-1, -2) + vb1[..., None]
            r_delta = self._r_delta(r_out.swapaxes(-1, -2))
            r_back = (r_delta @ w1 + delta @ v1) * slope - 2.0 * self.delta_w1 * act * r_act
            _dense_gradient(out, 0, r_back, h)
            _dense_gradient(out, prob._out_at, r_delta, act)
            gw1 = _dense(out, prob._out_at, prob.classes, prob.hidden)[0]
            np.add(gw1, delta.swapaxes(-1, -2) @ r_act, out=gw1)
        if self.split is Split.TRAIN:
            out += prob.reg.hvp(vs)
        return out

    _kept = None

    def _head_jvp(self, vs):
        """The R-op of a network without a hidden layer: the output layer's
        direction Vw, and R{delta} along the logit direction Vw act^T + vb.
        A point whose cross_hvp reads them (couples_x) keeps them for it if
        vs cannot change under them: a read-only array that owns its memory."""
        act = self.act
        vw, vb = _dense(vs, 0, self.problem.classes, act.shape[-1])
        u = self._r_delta(_class_major(vw, act, vb[..., None]))
        keep = self.couples_x and vs.flags.owndata and not vs.flags.writeable
        self._kept = (vs, vw, u) if keep else None
        return vw, u

    def _r_delta(self, r_out):
        """The directional derivative of delta along r_out = R{scores}, a
        class-major logit direction; row-major, as delta is."""
        p, n = self.p, r_out.shape[-2]
        if p is None:
            return np.divide(r_out, n, order="C")
        u = _softmax_jvp(p, r_out)
        u /= n
        return u


class _TaskAxisObjective(BilevelObjective):
    """A problem whose points (_point_type) run its network on y and v as
    (..., dim_y) arrays over any leading task axes: on the input h of
    _features, a tanh hidden layer of width `hidden` at offset 0 of y if
    hidden > 0, then the output layer, one unit per class, at _out_at; the
    loss is cross-entropy of its softmax or half the squared error against
    the one-hot targets. Every per-task oracle is a view of the point of one
    task, so each row of a point's answer matches the per-task oracle bit
    for bit. Training reads every oracle from at, and evaluation reads
    val_losses_and_scores, one forward pass through _forward and _loss. A
    subclass that changes an oracle therefore overrides at (and, for value
    or predict, val_losses_and_scores)."""

    _point_type: type[_TaskAxisPoint] = _TaskAxisPoint
    classes: int
    # the bare network: no hidden layer, the output layer at offset 0
    hidden = _out_at = 0
    loss = LossKind.CROSS_ENTROPY

    def split_parts(self, x, batch, split) -> _TaskAxisParts:
        return _TaskAxisParts(self, x, batch, split)

    def at(self, parts, ys):
        self._check_stack(parts, ys)
        return self._point_type(self, ys, parts)

    def _task_point(self, x, y, task, split) -> _TaskAxisPoint:
        self._check_xy(x, y)
        return self._point_type(self, y.values, self.split_parts(x, task, split))

    def value(self, x, y, task, split):
        return float(self._task_point(x, y, task, split).value())

    def grad_y(self, x, y, task, split):
        return y.like(self._task_point(x, y, task, split).grad_y())

    def grad_x(self, x, y, task, split):
        return x.like(self._task_point(x, y, task, split).grad_x())

    def hvp_yy(self, x, y, task, split, v):
        return v.like(self._task_point(x, y, task, split).hvp_yy(v.values))

    def cross_hvp(self, x, y, task, split, v):
        return x.like(self._task_point(x, y, task, split).cross_hvp(v.values))

    def predict(self, x, y, features):
        return self._forward(y.values, self._features(x, np.atleast_2d(features)))[0]

    def _features(self, x: ParamVector, phi: np.ndarray) -> np.ndarray:
        """The input of the forward pass: phi itself here."""
        return phi

    def _forward(self, yv: np.ndarray, h: np.ndarray):
        """Class-major network outputs, the output layer's input act (the
        hidden activations, or h without a hidden layer) and its weights."""
        act = h
        if self.hidden > 0:
            w0, b0 = _dense(yv, 0, self.hidden, self.dim_in)
            act = h @ w0.swapaxes(-1, -2)
            act += b0[..., None, :]
            np.tanh(act, out=act)
        w1, b1 = _dense(yv, self._out_at, self.classes, act.shape[-1])
        return _class_major(w1, act, b1[..., None]), act, w1

    def _loss(self, scores: np.ndarray, parts: _TaskAxisParts) -> np.ndarray:
        if self.loss is LossKind.CROSS_ENTROPY:
            loss = _cross_entropy(scores, parts.at_labels)
        else:
            # row-major, so the sum runs in the order of row-major scores
            r = np.subtract(scores, parts.onehot, order="C")
            loss = 0.5 * (r * r).sum(axis=(-2, -1)) / parts.labels.shape[-1]
        if not np.isfinite(loss).all():
            raise NonFiniteValue(f"{type(self).__name__} loss is not finite")
        return loss

    def _check_stack(self, parts, ys: np.ndarray):
        if ys.shape != (len(parts.batch), self.y_layout.dim):
            raise LayoutMismatch(
                f"y stack shape {ys.shape} != ({len(parts.batch)}, {self.y_layout.dim})"
            )

    def val_losses_and_scores(self, parts, ys):
        """The val split's point's value and, for a classifier, the predict
        scores on its features, from one forward pass."""
        _check_val(parts)
        self._check_stack(parts, ys)
        scores = self._forward(ys, parts.h)[0]
        return self._loss(scores, parts), scores if self.is_classifier else None


# ---------------------------------------------------------------------------
# shared feature map + per-task softmax head
# ---------------------------------------------------------------------------


class _SoftmaxPoint(_TaskAxisPoint):
    """MetaFeatureSoftmax at a point: the bare network's point on the
    shared features h = phi M^T, with what the feature map adds, grad_x and
    cross_hvp. cross_hvp of the direction whose head R-op hvp_yy kept reads
    that R-op; either way, cross_hvp leaves the point without one."""

    couples_x = True

    def grad_x(self):
        return self.problem._feat_gradient(self.x, self.delta @ self.w1, self.phi)

    def _cross_hvp(self, vs):
        kept = self._kept
        vw, u = kept[1:] if kept is not None and kept[0] is vs else self._head_jvp(vs)
        self._kept = None
        return self.problem._feat_gradient(self.x, self.delta @ vw + u @ self.w1, self.phi)


class MetaFeatureSoftmax(_TaskAxisObjective):
    """Cross-entropy of softmax(W (M phi) + c): the bare network on the
    shared features h = phi M^T.

    x holds the shared map M ("feat", dim_feat x dim_in, row-major); y holds
    the head weights ("w", way x dim_feat) and bias ("b", way). Because the
    logits are linear in y, the Gauss-Newton product equals the exact
    Hessian-vector product. The cross term d<grad_y, v>/dM is closed-form
    too: (delta Vw + u W)^T phi, with u the softmax-Jacobian product that
    hvp_yy builds. The regularizer never reads x, so it adds nothing there.
    """

    is_classifier = True
    _point_type = _SoftmaxPoint

    def __init__(self, dim_in: int, dim_feat: int, way: int, reg: Regularizer | None = None):
        if min(dim_in, dim_feat, way) < 1:
            raise ValueError("dims must be >= 1")
        self.dim_in = dim_in
        self.dim_feat = dim_feat
        self.way = self.classes = way
        self.reg = reg or Regularizer.none()
        self.x_layout = Layout([("feat", dim_feat * dim_in)])
        self.y_layout = Layout([("w", way * dim_feat), ("b", way)])

    def _features(self, x, phi):
        """Features h = phi M^T."""
        return phi @ x.segment("feat").reshape(self.dim_feat, self.dim_in).T

    def _feat_gradient(self, x, a, phi):
        """Rows in x's layout with a^T phi, (..., dim_feat, dim_in), written
        in segment "feat", for a (..., rows, dim_feat) stack a."""
        out = np.zeros(a.shape[:-2] + (x.layout.dim,))
        gm = out[..., x.layout.slice_of("feat")]
        gm = gm.reshape(gm.shape[:-1] + (self.dim_feat, self.dim_in))
        np.matmul(a.swapaxes(-1, -2), phi, out=gm)
        return out


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
        self.dim_out = self.classes = dim_out
        self.loss = loss
        self.reg = reg or Regularizer.none()
        self.is_classifier = loss is LossKind.CROSS_ENTROPY
        if hidden > 0:
            segments = [("w0", hidden * dim_in), ("b0", hidden)]
            segments += [("w1", dim_out * hidden), ("b1", dim_out)]
        else:
            segments = [("w0", dim_out * dim_in), ("b0", dim_out)]
        self.y_layout = Layout(segments)
        # the offset of the output layer, behind the hidden one if any
        self._out_at = hidden * (dim_in + 1)
        self.x_layout = Layout([("init", self.y_layout.dim)])


make_meta_init_mlp = MetaInitMlp
