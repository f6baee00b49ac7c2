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

Named compositions of (paradigm, inner rule, estimator) for ten methods from
the meta-learning literature are exposed through compose_named_method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

from .errors import (
    InsufficientIterates,
    NonFiniteValue,
    TrajectoryNotRecorded,
    UnknownMethod,
)
from .inner import InnerRule, InnerTrajectory, step_transposed_jvps
from .numerics import ParamVector, conjugate_gradient
from .objectives import BilevelObjective, Paradigm, Split

__all__ = [
    "Reverse",
    "TruncatedReverse",
    "Implicit",
    "FirstOrder",
    "Darts",
    "HyperGradMethod",
    "HyperGradResult",
    "hypergrad_reverse",
    "hypergrad_truncated",
    "hypergrad_implicit",
    "hypergrad_first_order",
    "hypergrad_darts",
    "compute_hypergradient",
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


def _reverse_sweep(
    problem: BilevelObjective,
    traj: InnerTrajectory,
    x: ParamVector,
    task,
    first_step: int,
    include_init: bool,
) -> tuple[ParamVector, float]:
    """Adjoint recurrence over steps T..first_step of the trajectory.

    lam starts as the validation gradient at y_T; each visited step t adds
    the x-coupling term and pulls lam back through the step Jacobian. When
    include_init is set (meta-init paradigm, sweep reaching y_0), what is
    left of lam is exactly the gradient through the initialization.
    """
    y_final = traj.y_final
    ul = problem.value(x, y_final, task, Split.VAL)
    lam = problem.grad_y(x, y_final, task, Split.VAL)
    g = problem.grad_x(x, y_final, task, Split.VAL)
    for t in range(traj.steps, first_step - 1, -1):
        y_prev = traj.iterate(t - 1)
        aT, bT = step_transposed_jvps(
            traj.config.rule, traj.config, problem, x, y_prev, task, lam
        )
        g = g + bT
        lam = aT
    if include_init:
        g = g.add_to_segment("init", lam.values)
    return g, ul


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
    if not traj.recorded:
        raise TrajectoryNotRecorded(
            "reverse hypergradient needs the full trajectory; rerun with record=True"
        )
    g, ul = _reverse_sweep(
        problem, traj, x, task,
        first_step=1,
        include_init=paradigm is Paradigm.META_INIT,
    )
    return HyperGradResult(grad_x=g, ul_value=ul)


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
    t_total = traj.steps
    if k is None:
        k = max(1, math.ceil(t_total / 2))
    if t_total < 1 or not 1 <= k <= t_total:
        raise InsufficientIterates(f"truncation k={k} outside 1..{t_total}")
    if not traj.recorded:
        raise InsufficientIterates(
            "truncated reverse needs recorded iterates; rerun with record=True"
        )
    g, ul = _reverse_sweep(
        problem, traj, x, task,
        first_step=t_total - k + 1,
        include_init=(paradigm is Paradigm.META_INIT and k == t_total),
    )
    return HyperGradResult(grad_x=g, ul_value=ul, truncation_k=k)


def _resolve_prox(cfg: Implicit, paradigm: Paradigm) -> float:
    if cfg.prox_lambda is not None:
        return cfg.prox_lambda
    return 1.0 if paradigm is Paradigm.META_INIT else 0.0


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
    prox = _resolve_prox(cfg, paradigm)

    def apply(v: ParamVector) -> ParamVector:
        hv = problem.hvp_yy(x, y_final, task, Split.TRAIN, v)
        if prox != 0.0:
            hv = hv + prox * v
        return hv

    rhs = problem.grad_y(x, y_final, task, Split.VAL)
    sol = conjugate_gradient(apply, rhs, tol=cfg.cg_tol, max_iter=cfg.cg_max_iter)
    g = problem.grad_x(x, y_final, task, Split.VAL) - problem.cross_hvp(
        x, y_final, task, Split.TRAIN, sol.q
    )
    if paradigm is Paradigm.META_INIT and prox != 0.0:
        g = g.add_to_segment("init", prox * sol.q.values)
    ul = problem.value(x, y_final, task, Split.VAL)
    return HyperGradResult(
        grad_x=g, ul_value=ul, cg_iters=sol.iters, cg_residual=sol.residual
    )


def hypergrad_first_order(
    problem: BilevelObjective,
    paradigm: Paradigm,
    x: ParamVector,
    y_final: ParamVector,
    task,
) -> HyperGradResult:
    """Curvature-free estimate: y_final is treated as a constant."""
    ul = problem.value(x, y_final, task, Split.VAL)
    if paradigm is Paradigm.META_INIT:
        gy = problem.grad_y(x, y_final, task, Split.VAL)
        g = ParamVector.zeros(x.layout).with_segment("init", gy.values)
    else:
        g = problem.grad_x(x, y_final, task, Split.VAL)
    return HyperGradResult(grad_x=g, ul_value=ul)


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
    if delta <= 0:
        raise ValueError("delta must be > 0")
    s = step_size
    v = problem.grad_y(x, y_final, task, Split.VAL)
    ul = problem.value(x, y_final, task, Split.VAL)
    eps = delta / max(v.norm(), 1e-12)
    y_plus = y_final + eps * v
    y_minus = y_final - eps * v
    scale = s / (2.0 * eps)
    if paradigm is Paradigm.META_INIT:
        bracket = problem.grad_y(x, y_plus, task, Split.TRAIN) - problem.grad_y(
            x, y_minus, task, Split.TRAIN
        )
        g_init = v.values - scale * bracket.values
        g = ParamVector.zeros(x.layout).with_segment("init", g_init)
    else:
        bracket = problem.grad_x(x, y_plus, task, Split.TRAIN) - problem.grad_x(
            x, y_minus, task, Split.TRAIN
        )
        g = problem.grad_x(x, y_final, task, Split.VAL) - scale * bracket
    return HyperGradResult(grad_x=g, ul_value=ul)


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
    if isinstance(method, Reverse):
        return hypergrad_reverse(problem, paradigm, traj, x, task)
    if isinstance(method, TruncatedReverse):
        return hypergrad_truncated(problem, paradigm, traj, x, task, method.k)
    if isinstance(method, Implicit):
        return hypergrad_implicit(problem, paradigm, x, traj.y_final, task, method)
    if isinstance(method, FirstOrder):
        return hypergrad_first_order(problem, paradigm, x, traj.y_final, task)
    if isinstance(method, Darts):
        return hypergrad_darts(
            problem, paradigm, x, traj.y_final, task,
            method.delta, traj.config.step_size,
        )
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
