"""Per-task inner dynamics.

An inner run is a short optimization of the task parameters y: an
initialization rule followed by T applications of a step rule. Five step
rules are supported; every one is an explicit map y_next = Phi(x, y_prev)
whose Jacobian-transpose products against a vector come from just two
problem oracles (hvp_yy and cross_hvp), which is what the reverse-mode
hypergradient needs. Four rules are y - scale * d(x) * grad_y and differ
only in the per-coordinate factor d; BDA mixes the gradients of both splits.

Rules with a factor keep its meta-parameters inside extra segments of x:

  meta_sgd       "rates"        per-coordinate step sizes through softplus
  mtnet_mask     "mask_logits"  one logit per y segment, sigmoid-gated step
  warp_grad_diag "warp_logdiag" elementwise log of a diagonal warp
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import TaskBatch
from .errors import MissingSegment, NonFiniteValue
from .numerics import Layout, ParamVector, RngStream
from .objectives import BilevelObjective, Paradigm, Split

__all__ = [
    "InnerRule",
    "InnerConfig",
    "InnerTrajectory",
    "init_task_params",
    "inner_step",
    "run_inner",
    "run_inner_batch",
    "step_transposed_jvps",
    "required_x_segments",
    "softplus",
    "softplus_inverse",
    "sigmoid",
]

DEFAULT_INIT_SD = 0.01


class InnerRule(enum.Enum):
    GD = "gd"
    META_SGD = "meta_sgd"
    BDA = "bda"
    MTNET_MASK = "mtnet_mask"
    WARP_GRAD_DIAG = "warp_grad_diag"


def softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


def softplus_inverse(s: float) -> float:
    """Solve softplus(r) = s for r; s must be positive."""
    if s <= 0:
        raise ValueError("softplus is positive; no preimage for s <= 0")
    return float(np.log(np.expm1(s)))


def sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass(frozen=True)
class InnerConfig:
    steps: int
    step_size: float
    rule: InnerRule = InnerRule.GD
    bda_alpha: float = 0.5

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.step_size <= 0:
            raise ValueError("step_size must be > 0")
        if not 0.0 <= self.bda_alpha <= 1.0:
            raise ValueError("bda_alpha must be in [0, 1]")


@dataclass(frozen=True)
class InnerTrajectory:
    """Iterates of one inner run.

    When recorded, iterates holds y_0..y_T; otherwise only (y_0, y_T) was
    kept and the reverse pass cannot revisit intermediate steps. Runs of at
    most one step are always effectively recorded.
    """

    iterates: tuple[ParamVector, ...]
    config: InnerConfig
    recorded: bool = True

    @property
    def steps(self) -> int:
        return self.config.steps

    @property
    def y_final(self) -> ParamVector:
        return self.iterates[-1]

    def iterate(self, t: int) -> ParamVector:
        if not 0 <= t <= self.steps:
            raise IndexError(f"iterate {t} outside 0..{self.steps}")
        if self.recorded:
            return self.iterates[t]
        if t == 0:
            return self.iterates[0]
        if t == self.steps:
            return self.iterates[-1]
        raise IndexError(f"iterate {t} was not recorded")


def required_x_segments(rule: InnerRule, y_layout: Layout) -> tuple[tuple[str, int], ...]:
    """Extra x segments a rule needs, as (name, length) pairs."""
    if rule is InnerRule.META_SGD:
        return (("rates", y_layout.dim),)
    if rule is InnerRule.MTNET_MASK:
        return (("mask_logits", len(y_layout.segments)),)
    if rule is InnerRule.WARP_GRAD_DIAG:
        return (("warp_logdiag", y_layout.dim),)
    return ()


def init_task_params(
    paradigm: Paradigm,
    problem: BilevelObjective,
    x: ParamVector,
    rng: RngStream,
    init_sd: float = DEFAULT_INIT_SD,
) -> ParamVector:
    """y_0 for one task: a copy of x["init"], or a small Gaussian draw."""
    if paradigm is Paradigm.META_INIT:
        if not x.layout.has("init"):
            raise MissingSegment("meta-init paradigm needs x segment 'init'")
        return ParamVector(problem.y_layout, x.segment("init"))
    gen = rng.generator()
    values = init_sd * gen.standard_normal(problem.y_layout.dim)
    return ParamVector(problem.y_layout, values, copy=False)


def _require_segment(x: ParamVector, name: str, rule: InnerRule) -> np.ndarray:
    if not x.layout.has(name):
        raise MissingSegment(f"rule {rule.value} needs x segment {name!r}")
    return x.segment(name)


def _factor(rule: InnerRule, config: InnerConfig, x: ParamVector, y_layout: Layout):
    """The rule's step as y - scale * d(x) * g: returns (scale, d, name, pullback).

    d is the per-coordinate factor read from x segment `name` (None, and no
    segment, for GD and BDA). pullback(c, g, v) is the gradient of
    c * <d * g, v> with respect to that segment; c comes first so each
    product keeps its evaluation order.
    """
    s = config.step_size
    if rule is InnerRule.META_SGD:
        rates = _require_segment(x, "rates", rule)
        return 1.0, softplus(rates), "rates", lambda c, g, v: c * sigmoid(rates) * g * v
    if rule is InnerRule.MTNET_MASK:
        logits = _require_segment(x, "mask_logits", rule)
        if logits.shape[0] != len(y_layout.segments):
            raise MissingSegment(
                f"mask_logits has {logits.shape[0]} entries for "
                f"{len(y_layout.segments)} y segments"
            )
        sig = sigmoid(logits)
        mask = np.repeat(sig, [seg.length for seg in y_layout.segments])
        offsets = [seg.offset for seg in y_layout.segments]

        def pullback(c, g, v):
            return c * sig * (1.0 - sig) * np.add.reduceat(g * v, offsets)

        return s, mask, "mask_logits", pullback
    if rule is InnerRule.WARP_GRAD_DIAG:
        d = np.exp(_require_segment(x, "warp_logdiag", rule))
        return s, d, "warp_logdiag", lambda c, g, v: c * d * g * v
    return s, None, None, None


def _mix(rule: InnerRule, config: InnerConfig, f):
    """f(Split.TRAIN), or under BDA the bda_alpha-weighted mix of f over
    the train and val splits."""
    if rule is not InnerRule.BDA:
        return f(Split.TRAIN)
    a = config.bda_alpha
    return a * f(Split.TRAIN) + (1.0 - a) * f(Split.VAL)


def _step(rule: InnerRule, config: InnerConfig, y_layout: Layout, x: ParamVector, y, grad):
    """One step of `rule` on y values of shape (..., dim); grad(split) gives
    grad_y values at y in the same shape."""
    scale, d, _, _ = _factor(rule, config, x, y_layout)
    g = _mix(rule, config, grad)
    y_next = y - scale * g if d is None else y - scale * d * g
    if not np.all(np.isfinite(y_next)):
        raise NonFiniteValue(f"inner step under rule {rule.value} produced non-finite y")
    return y_next


def inner_step(
    rule: InnerRule,
    config: InnerConfig,
    problem: BilevelObjective,
    x: ParamVector,
    y_prev: ParamVector,
    task,
) -> ParamVector:
    def grad(split: Split) -> np.ndarray:
        return problem.grad_y(x, y_prev, task, split).values

    return y_prev.like(_step(rule, config, y_prev.layout, x, y_prev.values, grad))


def run_inner(
    rule: InnerRule,
    config: InnerConfig,
    problem: BilevelObjective,
    x: ParamVector,
    y_0: ParamVector,
    task,
    record: bool = True,
) -> InnerTrajectory:
    y = y_0
    kept = [y_0]
    for _ in range(config.steps):
        y = inner_step(rule, config, problem, x, y, task)
        if record:
            kept.append(y)
    if not record and config.steps >= 1:
        kept.append(y)
    return InnerTrajectory(
        iterates=tuple(kept),
        config=config,
        recorded=record or config.steps <= 1,
    )


def run_inner_batch(
    rule: InnerRule,
    config: InnerConfig,
    problem: BilevelObjective,
    x: ParamVector,
    ys: np.ndarray,
    batch: TaskBatch,
) -> np.ndarray:
    """Final iterates of the inner runs of every task of `batch` at once,
    from the rows of ys. Needs the problem's grad_y_batch."""
    for _ in range(config.steps):
        grad = partial(problem.grad_y_batch, x, ys, batch)
        ys = _step(rule, config, problem.y_layout, x, ys, grad)
    return ys


def step_transposed_jvps(
    rule: InnerRule,
    config: InnerConfig,
    problem: BilevelObjective,
    x: ParamVector,
    y_prev: ParamVector,
    task,
    v: ParamVector,
) -> tuple[ParamVector, ParamVector]:
    """Transpose-Jacobian products of one step map Phi at (x, y_prev).

    Returns (aT_v, bT_v) where aT_v = (dPhi/dy_prev)^T v in y's layout and
    bT_v = (dPhi/dx)^T v in x's layout. These drive the reverse recurrence:
    the adjoint flows backward through aT_v while bT_v accumulates into the
    meta-gradient.
    """
    scale, d, name, pullback = _factor(rule, config, x, y_prev.layout)
    w = v if d is None else v.like(d * v.values)
    aT = v - scale * _mix(rule, config, lambda split: problem.hvp_yy(x, y_prev, task, split, w))
    bT = -scale * _mix(rule, config, lambda split: problem.cross_hvp(x, y_prev, task, split, w))
    if d is not None:
        g_f = problem.grad_y(x, y_prev, task, Split.TRAIN)
        bT = bT.add_to_segment(name, pullback(-scale, g_f.values, v.values))

    if not (aT.is_finite() and bT.is_finite()):
        raise NonFiniteValue(f"transposed products under rule {rule.value} are non-finite")
    return aT, bT
