"""Inner dynamics, for one task or for a batch of tasks at once.

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

The steps and their transposed products are written once, on (tasks, dim_y)
stacks of y with one row per task; the per-task functions run them on a
batch of one. A run keeps either every iterate y_0..y_T or only y_0 and
y_T; it is recorded when it kept all T + 1 (is_recorded), as the reverse
sweeps need, which a run of at most one step always is.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .data import TaskBatch
from .errors import MissingSegment, NonFiniteValue
from .numerics import Layout, ParamVector, RngStream, segment_add
from .objectives import BilevelObjective, Paradigm, Split

__all__ = [
    "InnerRule",
    "InnerConfig",
    "InnerTrajectory",
    "is_recorded",
    "init_task_params",
    "inner_step",
    "run_inner",
    "run_inner_batch",
    "step_transposed_jvps",
    "step_transposed_jvps_batch",
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


def is_recorded(config: InnerConfig, kept) -> bool:
    """Whether the iterates kept by a run under config are all of y_0..y_T."""
    return len(kept) == config.steps + 1


@dataclass(frozen=True)
class InnerTrajectory:
    """Iterates of one inner run: y_0..y_T when recorded (is_recorded),
    otherwise only y_0 and y_T, which the reverse sweeps cannot run on."""

    iterates: tuple[ParamVector, ...]
    config: InnerConfig

    @property
    def recorded(self) -> bool:
        return is_recorded(self.config, self.iterates)

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


def _with_rule(config: InnerConfig, rule: InnerRule) -> InnerConfig:
    """config set to run `rule`. The public functions take both and the rule
    wins, so a trajectory records the rule that was run."""
    return config if config.rule is rule else replace(config, rule=rule)


def _require_segment(x: ParamVector, name: str, rule: InnerRule) -> np.ndarray:
    if not x.layout.has(name):
        raise MissingSegment(f"rule {rule.value} needs x segment {name!r}")
    return x.segment(name)


def _factor(config: InnerConfig, x: ParamVector, y_layout: Layout):
    """The rule's step as y - scale * d(x) * g: returns (scale, d, name, pullback).

    d is the per-coordinate factor read from x segment `name` (None, and no
    segment, for GD and BDA). pullback(c, g, v) is the gradient of
    c * <d * g, v> with respect to that segment, one row per row of the
    (tasks, dim_y) stacks g and v; c comes first so each product keeps its
    evaluation order.
    """
    rule, s = config.rule, config.step_size
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
            return c * sig * (1.0 - sig) * np.add.reduceat(g * v, offsets, axis=-1)

        return s, mask, "mask_logits", pullback
    if rule is InnerRule.WARP_GRAD_DIAG:
        d = np.exp(_require_segment(x, "warp_logdiag", rule))
        return s, d, "warp_logdiag", lambda c, g, v: c * d * g * v
    return s, None, None, None


def _mix(config: InnerConfig, f):
    """f(Split.TRAIN), or under BDA the bda_alpha-weighted mix of f over
    the train and val splits."""
    if config.rule is not InnerRule.BDA:
        return f(Split.TRAIN)
    a = config.bda_alpha
    return a * f(Split.TRAIN) + (1.0 - a) * f(Split.VAL)


def _step(config: InnerConfig, problem: BilevelObjective, x: ParamVector, ys, batch):
    """One step of config.rule on every row of the (tasks, dim_y) stack ys."""
    scale, d, _, _ = _factor(config, x, problem.y_layout)
    g = _mix(config, partial(problem.grad_y_batch, x, ys, batch))
    y_next = ys - scale * g if d is None else ys - scale * d * g
    if not np.all(np.isfinite(y_next)):
        raise NonFiniteValue(f"inner step under rule {config.rule.value} produced non-finite y")
    return y_next


def inner_step(
    rule: InnerRule,
    config: InnerConfig,
    problem: BilevelObjective,
    x: ParamVector,
    y_prev: ParamVector,
    task,
) -> ParamVector:
    ys = _step(_with_rule(config, rule), problem, x, y_prev.values[None], TaskBatch((task,)))
    return y_prev.like(ys[0])


def run_inner(
    rule: InnerRule,
    config: InnerConfig,
    problem: BilevelObjective,
    x: ParamVector,
    y_0: ParamVector,
    task,
    record: bool = True,
) -> InnerTrajectory:
    config = _with_rule(config, rule)
    kept = run_inner_batch(config, problem, x, y_0.values[None], TaskBatch((task,)), record)
    return InnerTrajectory(
        iterates=(y_0,) + tuple(y_0.like(ys[0]) for ys in kept[1:]), config=config
    )


def run_inner_batch(
    config: InnerConfig,
    problem: BilevelObjective,
    x: ParamVector,
    ys: np.ndarray,
    batch: TaskBatch,
    record: bool = False,
) -> tuple[np.ndarray, ...]:
    """The inner runs of every task of `batch` at once under config.rule,
    from the rows of the (tasks, dim_y) stack ys.

    Returns the (tasks, dim_y) stacks it kept: y_0..y_T with record, else
    y_0 and (after any step) y_T. Either way the last one is y_T.
    """
    kept = [ys]
    for t in range(1, config.steps + 1):
        ys = _step(config, problem, x, ys, batch)
        if record or t == config.steps:
            kept.append(ys)
    return tuple(kept)


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
    a_t, b_t = step_transposed_jvps_batch(
        _with_rule(config, rule), problem, x, y_prev.values[None], TaskBatch((task,)),
        v.values[None],
    )
    return v.like(a_t[0]), x.like(b_t[0])


def step_transposed_jvps_batch(
    config: InnerConfig,
    problem: BilevelObjective,
    x: ParamVector,
    ys: np.ndarray,
    batch: TaskBatch,
    vs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """step_transposed_jvps for every task of `batch` at once, at the rows
    of the (tasks, dim_y) stacks ys and vs, under config.rule; returns the
    (tasks, dim_y) and (tasks, dim_x) stacks."""
    scale, d, name, pullback = _factor(config, x, problem.y_layout)
    w = vs if d is None else d * vs

    def products(batch_form):
        return _mix(config, lambda split: batch_form(x, ys, batch, split, w))

    a_t = vs - scale * products(problem.hvp_yy_batch)
    b_t = -scale * products(problem.cross_hvp_batch)
    if d is not None:
        g_f = problem.grad_y_batch(x, ys, batch, Split.TRAIN)
        b_t = segment_add(b_t, x.layout, name, pullback(-scale, g_f, vs))

    if not (np.all(np.isfinite(a_t)) and np.all(np.isfinite(b_t))):
        raise NonFiniteValue(f"transposed products under rule {config.rule.value} are non-finite")
    return a_t, b_t
