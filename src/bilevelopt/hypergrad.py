"""Estimators for the meta-gradient d/dx of the validation loss at the end
of an inner run.

Five strategies with different cost/accuracy trade-offs. The first three
are windows of one adjoint sweep (_sweep) over a run's last T, K or 0 steps;
the last two correct the x gradient of its window of no steps in place:

  * reverse: exact adjoint sweep back through the stored trajectory.
  * truncated reverse: same sweep, stopped after the last K steps.
  * first order: same sweep over no step; all curvature terms dropped.
  * implicit: linear solve against the inner Hessian at the final iterate
    (valid near an inner stationary point).
  * darts-style: one-step estimate whose curvature term is a central
    difference of gradients, costing two extra gradient evaluations.

Each estimator is written once, for a batch of tasks stacked on a leading
axis. compute_hypergradient_batch is the only way in and the only place
that sets numpy's error state for an estimate; the per-task functions run
it on a batch of one, so a task's estimate never depends on the others.
Every estimator takes an inner run (inner.InnerRun), the (tasks, dim_y)
stacks it kept with its config, problem, x and batch; the reverse and
truncated windows need it recorded (InnerRun.recorded), and the window
of no steps reads only its last stack, y_T. Each reads the problem's
oracles from one point per (iterate, split) it visits (InnerRun.at), so
the sweep reuses the points the inner steps were taken from, and every
CG iteration applies the Hessian of one point at y_T.

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
    InnerConfig,
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


def _sweep(
    paradigm: Paradigm, run: InnerRun, k: int, to_init: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g, ul, lam) of the adjoint recurrence over the last k steps the run
    kept, indexed from len(run), so a window of none never reads run.config.

    lam starts as the validation gradient at y_T and g as a copy of its
    grad_x, as a point may hand out a cached or read-only answer. Each step
    adds its x-coupling term into g and pulls lam back through its Jacobian,
    at the points it was taken from, under the run's step map. Under
    meta-init with to_init, the sweep having reached y_0, what is left of lam
    is the gradient through the initialization, and it is added into g.
    """
    final = run.at(-1, Split.VAL)
    ul, lam = final.value(), final.grad_y()
    g = final.grad_x().copy() if final.couples_x else np.zeros((len(lam), run.x.layout.dim))
    for t in range(len(run) - 1, len(run) - 1 - k, -1):
        points = step_points(run.config, partial(run.at, t - 1))
        lam = step_transposed_jvps_batch(run.config, points, lam, run.step_map, g)
        # lam is the sweep's own and never changes, so a point may reuse
        # in cross_hvp what its hvp_yy computed from it
        lam.setflags(write=False)
    if to_init and paradigm is Paradigm.META_INIT:
        g[..., run.x.layout.slice_of("init")] += lam
    return g, ul, lam


def _reverse(paradigm, run) -> HyperGradBatch:
    if not run.recorded:
        raise TrajectoryNotRecorded(
            "reverse hypergradient needs the full trajectory; rerun with record=True"
        )
    g, ul, _ = _sweep(paradigm, run, run.config.steps, True)
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
    g, ul, _ = _sweep(paradigm, run, k, k == t_total)
    return HyperGradBatch(grad_x=g, ul_value=ul, truncation_k=k)


def _implicit(paradigm, run, cfg: Implicit) -> HyperGradBatch:
    prox = cfg.prox_lambda
    if prox is None:
        prox = 1.0 if paradigm is Paradigm.META_INIT else 0.0
    g, ul, v = _sweep(paradigm, run, 0, False)
    inner = run.at(-1, Split.TRAIN)

    def apply(w: np.ndarray) -> np.ndarray:
        hw = inner.hvp_yy(w)
        hw += prox * w
        return hw

    try:
        q, iters, residual, converged = conjugate_gradient_batch(
            apply if prox != 0.0 else inner.hvp_yy, v,
            tol=cfg.cg_tol, max_iter=cfg.cg_max_iter,
        )
    except IndefiniteCurvature as e:
        e.args = (
            f"{e}; hint: H + prox_lambda*I is not positive definite at the inner "
            f"solution, so raise hypergrad.prox_lambda (now {prox:g})",
        )
        raise
    g -= inner.cross_hvp(q)
    if paradigm is Paradigm.META_INIT and prox != 0.0:
        g[..., run.x.layout.slice_of("init")] += prox * q
    return HyperGradBatch(
        grad_x=g, ul_value=ul,
        cg_iters=iters, cg_residual=residual, cg_converged=converged,
    )


def _first_order(paradigm, run) -> HyperGradBatch:
    g, ul, _ = _sweep(paradigm, run, 0, True)
    return HyperGradBatch(grad_x=g, ul_value=ul)


def _darts(paradigm, run, cfg: Darts) -> HyperGradBatch:
    g, ul, v = _sweep(paradigm, run, 0, True)
    # each task's own difference step from its direction's norm; 0 if that overflows
    eps = (cfg.delta / np.maximum(np.sqrt(row_dots(v, v)), 1e-12))[:, None]
    # the difference points share the run's train parts
    ys, shift, train = run[-1], eps * v, run.parts(Split.TRAIN)
    plus = run.problem.at(train, ys + shift)
    minus = run.problem.at(train, np.subtract(ys, shift, out=shift))
    # the curvature term, subtracted from the rows of g it corrects
    if paradigm is Paradigm.META_INIT:
        bracket, rows = plus.grad_y() - minus.grad_y(), g[..., run.x.layout.slice_of("init")]
    else:
        bracket, rows = plus.grad_x() - minus.grad_x(), g
    bracket *= run.config.step_size / (2.0 * eps)
    rows -= bracket
    return HyperGradBatch(grad_x=g, ul_value=ul)


def _run_of(traj: InnerTrajectory, problem: BilevelObjective, x: ParamVector, task) -> InnerRun:
    """The run behind traj, which the per-task estimators read; a problem,
    x or task other than its own is a ValueError, not a second run."""
    run = traj.run
    if problem is not run.problem:
        raise ValueError("the trajectory was run on another problem object")
    if x != run.x:
        raise ValueError("the trajectory was run at another x")
    if task is not run.batch.tasks[0]:
        raise ValueError("the trajectory was run on another task object")
    return run


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
    return compute_hypergradient(Reverse(), problem, paradigm, traj, x, task)


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
    return compute_hypergradient(TruncatedReverse(k), problem, paradigm, traj, x, task)


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
    run = solo_run(None, problem, x, task, y_final)
    return compute_hypergradient_batch(cfg, paradigm, run).row(0, x.layout)


def hypergrad_first_order(
    problem: BilevelObjective,
    paradigm: Paradigm,
    x: ParamVector,
    y_final: ParamVector,
    task,
) -> HyperGradResult:
    """Curvature-free estimate: y_final is treated as a constant."""
    run = solo_run(None, problem, x, task, y_final)
    return compute_hypergradient_batch(FirstOrder(), paradigm, run).row(0, x.layout)


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
    run = solo_run(InnerConfig(0, step_size), problem, x, task, y_final)
    return compute_hypergradient_batch(Darts(delta), paradigm, run).row(0, x.layout)


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
    """compute_hypergradient_batch on the run behind traj, a batch of one."""
    run = _run_of(traj, problem, x, task)
    return compute_hypergradient_batch(method, paradigm, run).row(0, x.layout)


def compute_hypergradient_batch(
    method: HyperGradMethod, paradigm: Paradigm, run: InnerRun
) -> HyperGradBatch:
    """compute_hypergradient for every task of the run's batch at once.

    run is the InnerRun that run_inner_batch returned, whose points the
    estimators read; the reverse and truncated windows need it recorded,
    and the other estimators read only its last stack, y_T.
    """
    # a non-finite value raises where it is checked (each step's product,
    # CG, the MLP loss, HyperGradBatch), not as a numpy warning before that
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if isinstance(method, Reverse):
            return _reverse(paradigm, run)
        if isinstance(method, TruncatedReverse):
            return _truncated(paradigm, run, method.k)
        if isinstance(method, Implicit):
            return _implicit(paradigm, run, method)
        if isinstance(method, FirstOrder):
            return _first_order(paradigm, run)
        if isinstance(method, Darts):
            return _darts(paradigm, run, method)
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
