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
Every estimator takes the iterates an inner run kept, as (tasks, dim_y)
stacks; the two reverse sweeps need them recorded (inner.is_recorded), and
the others read only the last one, y_T.

Named compositions of (paradigm, inner rule, estimator) for ten methods from
the meta-learning literature are exposed through compose_named_method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .data import TaskBatch
from .errors import (
    InsufficientIterates,
    NonFiniteValue,
    TrajectoryNotRecorded,
    UnknownMethod,
)
from .inner import (
    InnerConfig,
    InnerRule,
    InnerTrajectory,
    is_recorded,
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

    def __post_init__(self):
        if not self.grad_x.is_finite() or not math.isfinite(self.ul_value):
            raise NonFiniteValue("hypergradient result is not finite")


@dataclass(frozen=True)
class HyperGradBatch:
    """HyperGradResults of a task batch, stacked on a leading task axis:
    grad_x is (tasks, dim_x) in x's layout; ul_value, cg_iters and
    cg_residual are (tasks,)."""

    grad_x: np.ndarray
    ul_value: np.ndarray
    cg_iters: np.ndarray | None = None
    cg_residual: np.ndarray | None = None
    truncation_k: int | None = None

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
        )


def _rows(traj: InnerTrajectory) -> tuple[np.ndarray, ...]:
    """One task's kept iterates as a batch of one: (1, dim_y) stacks."""
    return tuple(y.values[None] for y in traj.iterates)


def _reverse_sweep(
    problem: BilevelObjective,
    config: InnerConfig,
    x: ParamVector,
    traj: tuple[np.ndarray, ...],
    batch,
    first_step: int,
    include_init: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint recurrence over steps T..first_step of a recorded trajectory,
    the (tasks, dim_y) stacks y_0..y_T, every task at once.

    lam starts as the validation gradient at y_T; each visited step t adds
    the x-coupling term and pulls lam back through the step Jacobian. When
    include_init is set (meta-init paradigm, sweep reaching y_0), what is
    left of lam is exactly the gradient through the initialization.
    """
    y_final = traj[-1]
    ul = problem.value_batch(x, y_final, batch, Split.VAL)
    lam = problem.grad_y_batch(x, y_final, batch, Split.VAL)
    g = problem.grad_x_batch(x, y_final, batch, Split.VAL)
    for t in range(config.steps, first_step - 1, -1):
        a_t, b_t = step_transposed_jvps_batch(config, problem, x, traj[t - 1], batch, lam)
        g = g + b_t
        lam = a_t
    if include_init:
        g = segment_add(g, x.layout, "init", lam)
    return g, ul


def _reverse(problem, paradigm, config, x, traj, batch) -> HyperGradBatch:
    if not is_recorded(config, traj):
        raise TrajectoryNotRecorded(
            "reverse hypergradient needs the full trajectory; rerun with record=True"
        )
    g, ul = _reverse_sweep(
        problem, config, x, traj, batch,
        first_step=1,
        include_init=paradigm is Paradigm.META_INIT,
    )
    return HyperGradBatch(grad_x=g, ul_value=ul)


def _truncated(problem, paradigm, config, x, traj, batch, k) -> HyperGradBatch:
    t_total = config.steps
    if k is None:
        k = max(1, math.ceil(t_total / 2))
    if t_total < 1 or not 1 <= k <= t_total:
        raise InsufficientIterates(f"truncation k={k} outside 1..{t_total}")
    if not is_recorded(config, traj):
        raise InsufficientIterates(
            "truncated reverse needs recorded iterates; rerun with record=True"
        )
    g, ul = _reverse_sweep(
        problem, config, x, traj, batch,
        first_step=t_total - k + 1,
        include_init=(paradigm is Paradigm.META_INIT and k == t_total),
    )
    return HyperGradBatch(grad_x=g, ul_value=ul, truncation_k=k)


def _resolve_prox(cfg: Implicit, paradigm: Paradigm) -> float:
    if cfg.prox_lambda is not None:
        return cfg.prox_lambda
    return 1.0 if paradigm is Paradigm.META_INIT else 0.0


def _implicit(problem, paradigm, x, ys, batch, cfg: Implicit) -> HyperGradBatch:
    prox = _resolve_prox(cfg, paradigm)
    def apply(v: np.ndarray) -> np.ndarray:
        hv = problem.hvp_yy_batch(x, ys, batch, Split.TRAIN, v)
        if prox != 0.0:
            hv = hv + prox * v
        return hv

    rhs = problem.grad_y_batch(x, ys, batch, Split.VAL)
    q, iters, residual, _ = conjugate_gradient_batch(
        apply, rhs, tol=cfg.cg_tol, max_iter=cfg.cg_max_iter
    )
    g = problem.grad_x_batch(x, ys, batch, Split.VAL)
    g = g - problem.cross_hvp_batch(x, ys, batch, Split.TRAIN, q)
    if paradigm is Paradigm.META_INIT and prox != 0.0:
        g = segment_add(g, x.layout, "init", prox * q)
    ul = problem.value_batch(x, ys, batch, Split.VAL)
    return HyperGradBatch(grad_x=g, ul_value=ul, cg_iters=iters, cg_residual=residual)


def _first_order(problem, paradigm, x, ys, batch) -> HyperGradBatch:
    ul = problem.value_batch(x, ys, batch, Split.VAL)
    if paradigm is Paradigm.META_INIT:
        g_init = problem.grad_y_batch(x, ys, batch, Split.VAL)
        g = segment_rows(x.layout, "init", g_init)
    else:
        g = problem.grad_x_batch(x, ys, batch, Split.VAL)
    return HyperGradBatch(grad_x=g, ul_value=ul)


def _darts(problem, paradigm, x, ys, batch, cfg: Darts, step_size: float) -> HyperGradBatch:
    grad_y, grad_x = problem.grad_y_batch, problem.grad_x_batch
    v = grad_y(x, ys, batch, Split.VAL)
    ul = problem.value_batch(x, ys, batch, Split.VAL)
    # each task's own difference step, from its own direction's norm
    eps = (cfg.delta / np.maximum(np.sqrt(row_dots(v, v)), 1e-12))[:, None]
    y_plus = ys + eps * v
    y_minus = ys - eps * v
    scale = step_size / (2.0 * eps)
    if paradigm is Paradigm.META_INIT:
        bracket = grad_y(x, y_plus, batch, Split.TRAIN) - grad_y(x, y_minus, batch, Split.TRAIN)
        g = segment_rows(x.layout, "init", v - scale * bracket)
    else:
        bracket = grad_x(x, y_plus, batch, Split.TRAIN) - grad_x(x, y_minus, batch, Split.TRAIN)
        g = grad_x(x, ys, batch, Split.VAL) - scale * bracket
    return HyperGradBatch(grad_x=g, ul_value=ul)


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
    res = _reverse(problem, paradigm, traj.config, x, _rows(traj), TaskBatch((task,)))
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
    res = _truncated(problem, paradigm, traj.config, x, _rows(traj), TaskBatch((task,)), k)
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
    res = _implicit(problem, paradigm, x, y_final.values[None], TaskBatch((task,)), cfg)
    return res.row(0, x.layout)


def hypergrad_first_order(
    problem: BilevelObjective,
    paradigm: Paradigm,
    x: ParamVector,
    y_final: ParamVector,
    task,
) -> HyperGradResult:
    """Curvature-free estimate: y_final is treated as a constant."""
    res = _first_order(problem, paradigm, x, y_final.values[None], TaskBatch((task,)))
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
    res = _darts(
        problem, paradigm, x, y_final.values[None], TaskBatch((task,)), Darts(delta), step_size
    )
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
    res = compute_hypergradient_batch(
        method, problem, paradigm, traj.config, x, _rows(traj), TaskBatch((task,))
    )
    return res.row(0, x.layout)


def compute_hypergradient_batch(
    method: HyperGradMethod,
    problem: BilevelObjective,
    paradigm: Paradigm,
    config: InnerConfig,
    x: ParamVector,
    ys: np.ndarray,
    batch: TaskBatch,
) -> HyperGradBatch:
    """compute_hypergradient for every task of `batch` at once.

    ys is the tuple of (tasks, dim_y) stacks that run_inner_batch kept under
    `config`; the reverse sweeps need it recorded, and the other estimators
    read only its last stack, y_T.
    """
    if isinstance(method, Reverse):
        return _reverse(problem, paradigm, config, x, ys, batch)
    if isinstance(method, TruncatedReverse):
        return _truncated(problem, paradigm, config, x, ys, batch, method.k)
    y_final = ys[-1]
    if isinstance(method, Implicit):
        return _implicit(problem, paradigm, x, y_final, batch, method)
    if isinstance(method, FirstOrder):
        return _first_order(problem, paradigm, x, y_final, batch)
    if isinstance(method, Darts):
        return _darts(problem, paradigm, x, y_final, batch, method, config.step_size)
    raise TypeError(f"unknown hypergradient method {method!r}")


class ComposedMethod(NamedTuple):
    paradigm: Paradigm
    inner_rule: InnerRule
    hypergrad_method: HyperGradMethod
    notes: str


_TABLE: dict[str, ComposedMethod] = {
    "rhg": ComposedMethod(
        Paradigm.META_FEATURE, InnerRule.GD, Reverse(),
        "shared features, full reverse sweep",
    ),
    "trhg": ComposedMethod(
        Paradigm.META_FEATURE, InnerRule.GD, TruncatedReverse(),
        "shared features, reverse sweep over the last K steps",
    ),
    "hoag": ComposedMethod(
        Paradigm.META_FEATURE, InnerRule.GD, Implicit(),
        "shared features, implicit gradient via conjugate-gradient solve",
    ),
    "maml": ComposedMethod(
        Paradigm.META_INIT, InnerRule.GD, Reverse(),
        "learned initialization, exact backprop through adaptation",
    ),
    "fmaml": ComposedMethod(
        Paradigm.META_INIT, InnerRule.GD, FirstOrder(),
        "learned initialization, curvature terms dropped",
    ),
    "mt-net": ComposedMethod(
        Paradigm.META_INIT, InnerRule.MTNET_MASK, Reverse(),
        "learned initialization plus per-segment step masks",
    ),
    "meta-sgd": ComposedMethod(
        Paradigm.META_INIT, InnerRule.META_SGD, Reverse(),
        "learned initialization plus per-coordinate step sizes",
    ),
    "warpgrad": ComposedMethod(
        Paradigm.META_INIT, InnerRule.WARP_GRAD_DIAG, Reverse(),
        "learned initialization plus a diagonal gradient warp",
    ),
    "darts": ComposedMethod(
        Paradigm.META_FEATURE, InnerRule.GD, Darts(),
        "shared features, finite-difference curvature term",
    ),
    "bda": ComposedMethod(
        Paradigm.META_FEATURE, InnerRule.BDA, Reverse(),
        "shared features, inner steps aggregate train and val gradients",
    ),
}

METHOD_NAMES = (
    "RHG",
    "TRHG",
    "HOAG",
    "MAML",
    "FMAML",
    "MT-net",
    "Meta-SGD",
    "WarpGrad",
    "DARTS",
    "BDA",
)


def compose_named_method(name: str) -> ComposedMethod:
    """Look up a method by name (case-insensitive; '_' and '-' interchangeable)."""
    key = name.strip().lower().replace("_", "-")
    if key not in _TABLE:
        raise UnknownMethod(
            f"unknown method {name!r}; valid names: {', '.join(METHOD_NAMES)}"
        )
    return _TABLE[key]
