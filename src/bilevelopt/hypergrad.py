"""Estimators for the meta-gradient d/dx of the validation loss at the end
of an inner run.

Five strategies with different cost/accuracy trade-offs:

  * reverse: exact adjoint sweep back through the stored trajectory.
  * truncated reverse: same sweep, stopped after the last K steps.
  * implicit: linear solve against the inner Hessian at the final iterate
    (valid near an inner stationary point).
  * first order: all curvature terms dropped.
  * darts-style: one-step estimate whose curvature term is a central
    difference of gradients, costing two extra gradient evaluations.

Each estimator is written once, for a batch of tasks stacked on a leading
axis (compute_hypergradient_batch); the per-task functions run it on a
batch of one, so a task's estimate never depends on the rest of its batch.
Every estimator takes an inner run (inner.InnerRun), the (tasks, dim_y)
stacks it kept with its config, problem, x and batch; the two reverse
sweeps need it recorded (InnerRun.recorded), and the others read only its
last stack, y_T. Each reads the problem's oracles from one point per
(iterate, split) it visits (InnerRun.at), so the sweeps reuse the points
the inner steps were taken from, and every CG iteration applies the
Hessian of one point at y_T.

Named compositions of (paradigm, inner rule, estimator) for ten methods from
the meta-learning literature are exposed through compose_named_method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Union

import numpy as np

from .errors import (
    IndefiniteCurvature,
    InsufficientIterates,
    NonFiniteValue,
    TrajectoryNotRecorded,
    UnknownMethod,
)
from .inner import (
    InnerRule,
    InnerRun,
    InnerTrajectory,
    solo_run,
    step_points,
    step_transposed_jvps_batch,
)
from .numerics import (
    ParamVector,
    conjugate_gradient_batch,
    row_dots,
    segment_add,
    segment_rows,
)
from .objectives import BilevelObjective, Paradigm, Split

__all__ = [
    "Reverse",
    "TruncatedReverse",
    "Implicit",
    "FirstOrder",
    "Darts",
    "HyperGradMethod",
    "HyperGradResult",
    "HyperGradBatch",
    "hypergrad_reverse",
    "hypergrad_truncated",
    "hypergrad_implicit",
    "hypergrad_first_order",
    "hypergrad_darts",
    "compute_hypergradient",
    "compute_hypergradient_batch",
    "needs_full_trajectory",
    "compose_named_method",
    "ComposedMethod",
    "METHOD_NAMES",
]


@dataclass(frozen=True)
class Reverse:
    pass


@dataclass(frozen=True)
class TruncatedReverse:
    """Reverse sweep over the last k steps only; k=None means ceil(T/2)."""

    k: int | None = None

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise ValueError("truncation k must be >= 1")


@dataclass(frozen=True)
class Implicit:
    cg_tol: float = 1e-8
    cg_max_iter: int | None = None
    prox_lambda: float | None = None  # None: 0 under meta-feature, 1.0 under meta-init

    def __post_init__(self):
        if self.cg_tol <= 0:
            raise ValueError("cg_tol must be > 0")
        if self.cg_max_iter is not None and self.cg_max_iter < 1:
            raise ValueError("cg_max_iter must be >= 1")
        if self.prox_lambda is not None and self.prox_lambda < 0:
            raise ValueError("prox_lambda must be >= 0")


@dataclass(frozen=True)
class FirstOrder:
    pass


@dataclass(frozen=True)
class Darts:
    delta: float = 1e-2

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be > 0")


HyperGradMethod = Union[Reverse, TruncatedReverse, Implicit, FirstOrder, Darts]


@dataclass(frozen=True)
class HyperGradResult:
    grad_x: ParamVector
    ul_value: float
    cg_iters: int | None = None
    cg_residual: float | None = None
    truncation_k: int | None = None
    cg_converged: bool | None = None

    def __post_init__(self):
        if not self.grad_x.is_finite() or not math.isfinite(self.ul_value):
            raise NonFiniteValue("hypergradient result is not finite")


@dataclass(frozen=True)
class HyperGradBatch:
    """HyperGradResults of a task batch, stacked on a leading task axis:
    grad_x is (tasks, dim_x) in x's layout; ul_value, cg_iters,
    cg_residual and cg_converged are (tasks,)."""

    grad_x: np.ndarray
    ul_value: np.ndarray
    cg_iters: np.ndarray | None = None
    cg_residual: np.ndarray | None = None
    truncation_k: int | None = None
    cg_converged: np.ndarray | None = None

    def __post_init__(self):
        if not (np.all(np.isfinite(self.grad_x)) and np.all(np.isfinite(self.ul_value))):
            raise NonFiniteValue("hypergradient result is not finite")

    def row(self, j: int, x_layout) -> HyperGradResult:
        """The result of task j alone."""
        return HyperGradResult(
            grad_x=ParamVector(x_layout, self.grad_x[j]),
            ul_value=float(self.ul_value[j]),
            cg_iters=None if self.cg_iters is None else int(self.cg_iters[j]),
            cg_residual=None if self.cg_residual is None else float(self.cg_residual[j]),
            truncation_k=self.truncation_k,
            cg_converged=None if self.cg_converged is None else bool(self.cg_converged[j]),
        )


def _reverse_sweep(
    run: InnerRun, first_step: int, include_init: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint recurrence over steps T..first_step of a recorded run, the
    (tasks, dim_y) stacks y_0..y_T, every task at once.

    lam starts as the validation gradient at y_T; each visited step t adds
    the x-coupling term and pulls lam back through the step Jacobian, at the
    points step t was taken from, under the run's step map. When
    include_init is set (meta-init paradigm, sweep reaching y_0), what is
    left of lam is exactly the gradient through the initialization.
    """
    config = run.config
    final = run.at(-1, Split.VAL)
    ul, lam, g = final.value(), final.grad_y(), final.grad_x()
    for t in range(config.steps, first_step - 1, -1):
        points = step_points(config, partial(run.at, t - 1))
        a_t, b_t = step_transposed_jvps_batch(config, points, lam, run.step_map)
        g = g + b_t
        lam = a_t
    if include_init:
        g = segment_add(g, run.x.layout, "init", lam)
    return g, ul


def _reverse(paradigm, run) -> HyperGradBatch:
    if not run.recorded:
        raise TrajectoryNotRecorded(
            "reverse hypergradient needs the full trajectory; rerun with record=True"
        )
    g, ul = _reverse_sweep(run, first_step=1, include_init=paradigm is Paradigm.META_INIT)
    return HyperGradBatch(grad_x=g, ul_value=ul)


def _truncated(paradigm, run, k) -> HyperGradBatch:
    t_total = run.config.steps
    if k is None:
        k = max(1, math.ceil(t_total / 2))
    if t_total < 1 or not 1 <= k <= t_total:
        raise InsufficientIterates(f"truncation k={k} outside 1..{t_total}")
    if not run.recorded:
        raise InsufficientIterates(
            "truncated reverse needs recorded iterates; rerun with record=True"
        )
    g, ul = _reverse_sweep(
        run,
        first_step=t_total - k + 1,
        include_init=(paradigm is Paradigm.META_INIT and k == t_total),
    )
    return HyperGradBatch(grad_x=g, ul_value=ul, truncation_k=k)


def _resolve_prox(cfg: Implicit, paradigm: Paradigm) -> float:
    if cfg.prox_lambda is not None:
        return cfg.prox_lambda
    return 1.0 if paradigm is Paradigm.META_INIT else 0.0


def _implicit(paradigm, run, cfg: Implicit) -> HyperGradBatch:
    prox = _resolve_prox(cfg, paradigm)
    inner, final = run.at(-1, Split.TRAIN), run.at(-1, Split.VAL)

    def apply(v: np.ndarray) -> np.ndarray:
        hv = inner.hvp_yy(v)
        if prox != 0.0:
            hv = hv + prox * v
        return hv

    try:
        q, iters, residual, converged = conjugate_gradient_batch(
            apply, final.grad_y(), tol=cfg.cg_tol, max_iter=cfg.cg_max_iter
        )
    except IndefiniteCurvature as e:
        e.args = (
            f"{e}; hint: H + prox_lambda*I is not positive definite at the inner "
            f"solution, so raise hypergrad.prox_lambda (now {prox:g})",
        )
        raise
    g = final.grad_x() - inner.cross_hvp(q)
    if paradigm is Paradigm.META_INIT and prox != 0.0:
        g = segment_add(g, run.x.layout, "init", prox * q)
    return HyperGradBatch(
        grad_x=g, ul_value=final.value(),
        cg_iters=iters, cg_residual=residual, cg_converged=converged,
    )


def _first_order(paradigm, run) -> HyperGradBatch:
    final = run.at(-1, Split.VAL)
    if paradigm is Paradigm.META_INIT:
        g = segment_rows(run.x.layout, "init", final.grad_y())
    else:
        g = final.grad_x()
    return HyperGradBatch(grad_x=g, ul_value=final.value())


def _darts(paradigm, run, cfg: Darts, step_size: float) -> HyperGradBatch:
    final = run.at(-1, Split.VAL)
    v = final.grad_y()
    # each task's own difference step, from its own direction's norm
    eps = (cfg.delta / np.maximum(np.sqrt(row_dots(v, v)), 1e-12))[:, None]
    # the difference points share the run's train parts
    ys, shift, train = run[-1], eps * v, run.parts(Split.TRAIN)
    plus, minus = run.problem.at(train, ys + shift), run.problem.at(train, ys - shift)
    scale = step_size / (2.0 * eps)
    if paradigm is Paradigm.META_INIT:
        bracket = plus.grad_y() - minus.grad_y()
        g = segment_rows(run.x.layout, "init", v - scale * bracket)
    else:
        bracket = plus.grad_x() - minus.grad_x()
        g = final.grad_x() - scale * bracket
    return HyperGradBatch(grad_x=g, ul_value=final.value())


def hypergrad_reverse(
    problem: BilevelObjective,
    paradigm: Paradigm,
    traj: InnerTrajectory,
    x: ParamVector,
    task,
) -> HyperGradResult:
    """Exact meta-gradient for the realized trajectory by backpropagating
    through every inner step (and through the initialization under the
    meta-init paradigm)."""
    res = _reverse(paradigm, solo_run(traj.config, problem, x, task, traj.iterates))
    return res.row(0, x.layout)


def hypergrad_truncated(
    problem: BilevelObjective,
    paradigm: Paradigm,
    traj: InnerTrajectory,
    x: ParamVector,
    task,
    k: int | None = None,
) -> HyperGradResult:
    """Reverse sweep over the last k steps, treating y_{T-k} as constant.

    With k = T this is exactly hypergrad_reverse. With k < T the path
    through the initialization is cut, so under meta-init only the step
    couplings survive.
    """
    res = _truncated(paradigm, solo_run(traj.config, problem, x, task, traj.iterates), k)
    return res.row(0, x.layout)


def hypergrad_implicit(
    problem: BilevelObjective,
    paradigm: Paradigm,
    x: ParamVector,
    y_final: ParamVector,
    task,
    cfg: Implicit,
) -> HyperGradResult:
    """Implicit-function-theorem meta-gradient at an (approximate) inner
    stationary point.

    Solves (H + prox*I) q = grad_y(val) by conjugate gradient, where H is
    the inner Hessian at y_final, then combines q with the cross term.
    Under meta-init the inner loss never reads x, so a proximal coupling
    (prox/2)*||y - x["init"]||^2 supplies the missing dependence; prox = 0
    there degenerates to a zero init gradient.
    """
    res = _implicit(paradigm, solo_run(None, problem, x, task, (y_final,)), cfg)
    return res.row(0, x.layout)


def hypergrad_first_order(
    problem: BilevelObjective,
    paradigm: Paradigm,
    x: ParamVector,
    y_final: ParamVector,
    task,
) -> HyperGradResult:
    """Curvature-free estimate: y_final is treated as a constant."""
    res = _first_order(paradigm, solo_run(None, problem, x, task, (y_final,)))
    return res.row(0, x.layout)


def hypergrad_darts(
    problem: BilevelObjective,
    paradigm: Paradigm,
    x: ParamVector,
    y_final: ParamVector,
    task,
    delta: float,
    step_size: float,
) -> HyperGradResult:
    """One-step estimate with the curvature term replaced by a central
    difference of inner gradients along the validation-gradient direction.

    The difference step is delta normalized by the direction's norm, so
    delta controls absolute perturbation size. Cost is two gradient
    evaluations regardless of dimension.
    """
    res = _darts(paradigm, solo_run(None, problem, x, task, (y_final,)), Darts(delta), step_size)
    return res.row(0, x.layout)


def needs_full_trajectory(method: HyperGradMethod) -> bool:
    return isinstance(method, (Reverse, TruncatedReverse))


def compute_hypergradient(
    method: HyperGradMethod,
    problem: BilevelObjective,
    paradigm: Paradigm,
    traj: InnerTrajectory,
    x: ParamVector,
    task,
) -> HyperGradResult:
    """Dispatch on the method type; trajectory-free estimators read only the
    final iterate (and the step size, for the darts estimator)."""
    run = solo_run(traj.config, problem, x, task, traj.iterates)
    return compute_hypergradient_batch(method, paradigm, run).row(0, x.layout)


def compute_hypergradient_batch(
    method: HyperGradMethod, paradigm: Paradigm, run: InnerRun
) -> HyperGradBatch:
    """compute_hypergradient for every task of the run's batch at once.

    run is the InnerRun that run_inner_batch returned, whose points the
    estimators read; the reverse sweeps need it recorded, and the other
    estimators read only its last stack, y_T.
    """
    if isinstance(method, Reverse):
        return _reverse(paradigm, run)
    if isinstance(method, TruncatedReverse):
        return _truncated(paradigm, run, method.k)
    if isinstance(method, Implicit):
        return _implicit(paradigm, run, method)
    if isinstance(method, FirstOrder):
        return _first_order(paradigm, run)
    if isinstance(method, Darts):
        return _darts(paradigm, run, method, run.config.step_size)
    raise TypeError(f"unknown hypergradient method {method!r}")


class ComposedMethod(NamedTuple):
    paradigm: Paradigm
    inner_rule: InnerRule
    hypergrad_method: HyperGradMethod
    notes: str


_TABLE: dict[str, ComposedMethod] = {
    "RHG": ComposedMethod(
        Paradigm.META_FEATURE, InnerRule.GD, Reverse(),
        "shared features, full reverse sweep",
    ),
    "TRHG": ComposedMethod(
        Paradigm.META_FEATURE, InnerRule.GD, TruncatedReverse(),
        "shared features, reverse sweep over the last K steps",
    ),
    "HOAG": ComposedMethod(
        Paradigm.META_FEATURE, InnerRule.GD, Implicit(),
        "shared features, implicit gradient via conjugate-gradient solve",
    ),
    "MAML": ComposedMethod(
        Paradigm.META_INIT, InnerRule.GD, Reverse(),
        "learned initialization, exact backprop through adaptation",
    ),
    "FMAML": ComposedMethod(
        Paradigm.META_INIT, InnerRule.GD, FirstOrder(),
        "learned initialization, curvature terms dropped",
    ),
    "MT-net": ComposedMethod(
        Paradigm.META_INIT, InnerRule.MTNET_MASK, Reverse(),
        "learned initialization plus per-segment step masks",
    ),
    "Meta-SGD": ComposedMethod(
        Paradigm.META_INIT, InnerRule.META_SGD, Reverse(),
        "learned initialization plus per-coordinate step sizes",
    ),
    "WarpGrad": ComposedMethod(
        Paradigm.META_INIT, InnerRule.WARP_GRAD_DIAG, Reverse(),
        "learned initialization plus a diagonal gradient warp",
    ),
    "DARTS": ComposedMethod(
        Paradigm.META_FEATURE, InnerRule.GD, Darts(),
        "shared features, finite-difference curvature term",
    ),
    "BDA": ComposedMethod(
        Paradigm.META_FEATURE, InnerRule.BDA, Reverse(),
        "shared features, inner steps aggregate train and val gradients",
    ),
}

METHOD_NAMES = tuple(_TABLE)
_BY_KEY = {name.lower(): composed for name, composed in _TABLE.items()}


def compose_named_method(name: str) -> ComposedMethod:
    """Look up a method by name (case-insensitive; '_' and '-' interchangeable)."""
    key = name.strip().lower().replace("_", "-")
    if key not in _BY_KEY:
        raise UnknownMethod(
            f"unknown method {name!r}; valid names: {', '.join(METHOD_NAMES)}"
        )
    return _BY_KEY[key]
