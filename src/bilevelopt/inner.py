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
batch of one. Both read the problem's oracles from its points
(BilevelObjective.at), one per split the rule reads. A run keeps either
every iterate y_0..y_T or only y_0 and y_T; it is recorded when it kept all
T + 1 (is_recorded), as the reverse sweeps need, which a run of at most one
step always is. A recorded run also keeps the points its steps were taken
from, so the reverse sweeps reuse their forward passes (InnerRun); a
built-in point answers grad_y once. A run builds once what its points on a
split share, whatever y (split_parts), and its rule's step map (scale,
factor d(x) and pullback), which the sweep over it reuses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .data import TaskBatch
from .errors import MissingSegment, NonFiniteValue
from .numerics import Layout, ParamVector, RngStream, segment_add
from .objectives import BilevelObjective, Paradigm, Point, Split

__all__ = [
    "InnerRule",
    "InnerConfig",
    "InnerTrajectory",
    "InnerRun",
    "is_recorded",
    "init_task_params",
    "init_task_params_batch",
    "inner_step",
    "run_inner",
    "run_inner_batch",
    "step_transposed_jvps",
    "step_transposed_jvps_batch",
    "step_points",
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


class _SharedParts(dict):
    """problem.split_parts at x of each split of `batch`, built on first
    use: what the points of one run on a split share."""

    def __init__(self, problem: BilevelObjective, x: ParamVector, batch):
        super().__init__()
        self.problem, self.x, self.batch = problem, x, batch

    def __missing__(self, split: Split):
        parts = self[split] = self.problem.split_parts(self.x, self.batch, split)
        return parts

    def at(self, ys: np.ndarray, split: Split) -> Point:
        """The problem's point at the stack ys on `split`."""
        return self.problem.at(self.x, ys, self[split], split)


class InnerRun(tuple):
    """The (tasks, dim_y) stacks an inner run of `problem` at x on `batch`
    kept, as a tuple: y_0..y_T when recorded (is_recorded), otherwise y_0
    and y_T. at(t, split) is the problem's point at stack t, built at most
    once; a recorded run holds the points its steps were taken from. All
    its points on a split share one parts(split), and all its steps under a
    config one step_map(config)."""

    def __new__(
        cls, stacks, problem: BilevelObjective, x: ParamVector, batch, points=(), shared=None,
        maps=(),
    ):
        run = super().__new__(cls, stacks)
        run.problem, run.x, run.batch = problem, x, batch
        run._points, run._maps = dict(points), dict(maps)
        run._shared = _SharedParts(problem, x, batch) if shared is None else shared
        return run

    def step_map(self, config: InnerConfig):
        """The step map of config at x (_step_map), built at most once."""
        if self._maps.get(config) is None:
            self._maps[config] = _step_map(config, self.x, self.problem.y_layout)
        return self._maps[config]

    def parts(self, split: Split):
        """problem.split_parts at x on `split` of the batch, built at most once."""
        return self._shared[split]

    def at(self, t: int, split: Split) -> Point:
        key = (t % len(self), split)
        if key not in self._points:
            self._points[key] = self._shared.at(self[t], split)
        return self._points[key]


def required_x_segments(rule: InnerRule, y_layout: Layout) -> tuple[tuple[str, int], ...]:
    """Extra x segments a rule needs, as (name, length) pairs."""
    if rule is InnerRule.META_SGD:
        return (("rates", y_layout.dim),)
    if rule is InnerRule.MTNET_MASK:
        return (("mask_logits", len(y_layout.segments)),)
    if rule is InnerRule.WARP_GRAD_DIAG:
        return (("warp_logdiag", y_layout.dim),)
    return ()


def init_task_params_batch(
    paradigm: Paradigm,
    problem: BilevelObjective,
    x: ParamVector,
    rng: RngStream,
    n_tasks: int,
) -> np.ndarray:
    """y_0 of n_tasks tasks as a (tasks, dim_y) stack: copies of x["init"],
    or small Gaussian rows from one draw on `rng`, filled in task order, so a
    row does not depend on how many tasks follow it."""
    if paradigm is Paradigm.META_INIT:
        if not x.layout.has("init"):
            raise MissingSegment("meta-init paradigm needs x segment 'init'")
        return np.tile(x.segment("init"), (n_tasks, 1))
    gen = rng.generator()
    return DEFAULT_INIT_SD * gen.standard_normal((n_tasks, problem.y_layout.dim))


def init_task_params(
    paradigm: Paradigm,
    problem: BilevelObjective,
    x: ParamVector,
    rng: RngStream,
) -> ParamVector:
    """y_0 for one task: init_task_params_batch for a batch of one."""
    values = init_task_params_batch(paradigm, problem, x, rng, 1)[0]
    return ParamVector(problem.y_layout, values, copy=False)


def _with_rule(config: InnerConfig, rule: InnerRule) -> InnerConfig:
    """config set to run `rule`. The public functions take both and the rule
    wins, so a trajectory records the rule that was run."""
    return config if config.rule is rule else replace(config, rule=rule)


def _require_segment(x: ParamVector, name: str, rule: InnerRule) -> np.ndarray:
    if not x.layout.has(name):
        raise MissingSegment(f"rule {rule.value} needs x segment {name!r}")
    return x.segment(name)


def _step_map(config: InnerConfig, x: ParamVector, y_layout: Layout):
    """The rule's step as y - scale * d(x) * g: returns (scale, d, name, pullback),
    built once per (config, x), with every coefficient that reads only x.

    d is the per-coordinate factor read from x segment `name` (None, and no
    segment, for GD and BDA). pullback(g, v) is the gradient of
    -scale * <d * g, v> with respect to that segment, one row per row of the
    (tasks, dim_y) stacks g and v. Its coefficient, -scale times what reads
    only x, comes first in each product, so each keeps its evaluation order.
    """
    rule, s = config.rule, config.step_size
    # an overflow here leaves a non-finite factor, on which the steps raise
    with np.errstate(over="ignore", invalid="ignore"):
        if rule is InnerRule.META_SGD:
            rates = _require_segment(x, "rates", rule)
            coef = -sigmoid(rates)
            return 1.0, softplus(rates), "rates", lambda g, v: coef * g * v
        if rule is InnerRule.MTNET_MASK:
            logits = _require_segment(x, "mask_logits", rule)
            if logits.shape[0] != len(y_layout.segments):
                raise MissingSegment(
                    f"mask_logits has {logits.shape[0]} entries for "
                    f"{len(y_layout.segments)} y segments"
                )
            sig = sigmoid(logits)
            coef = -s * sig * (1.0 - sig)
            mask = np.repeat(sig, [seg.length for seg in y_layout.segments])
            offsets = [seg.offset for seg in y_layout.segments]

            def pullback(g, v):
                return coef * np.add.reduceat(g * v, offsets, axis=-1)

            return s, mask, "mask_logits", pullback
        if rule is InnerRule.WARP_GRAD_DIAG:
            d = np.exp(_require_segment(x, "warp_logdiag", rule))
            coef = -s * d
            return s, d, "warp_logdiag", lambda g, v: coef * g * v
    return s, None, None, None


def _mix(config: InnerConfig, points: tuple[Point, ...], f):
    """f of the train point, or under BDA the bda_alpha-weighted mix of f
    over the train and val points."""
    if config.rule is not InnerRule.BDA:
        return f(points[0])
    a = config.bda_alpha
    return a * f(points[0]) + (1.0 - a) * f(points[1])


def step_points(config: InnerConfig, at) -> tuple[Point, ...]:
    """at(split), a point at one stack, for each split a step of
    config.rule reads: the train split, then under BDA the val split."""
    if config.rule is InnerRule.BDA:
        return at(Split.TRAIN), at(Split.VAL)
    return (at(Split.TRAIN),)


def _step(config: InnerConfig, points: tuple[Point, ...], step_map) -> np.ndarray:
    """One step of config.rule under step_map on every row of the points' stack."""
    ys = points[0].ys
    g = _mix(config, points, lambda point: point.grad_y())
    # points the caller does not keep die here, before y_next is allocated,
    # as the arrays of a step that built no points did; freeing them later
    # measured more page faults per evaluation
    del points
    scale, d, _, _ = step_map
    # an overflow here leaves a non-finite y, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        y_next = ys - scale * g if d is None else ys - scale * d * g
    if not np.isfinite(y_next).all():
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
    config = _with_rule(config, rule)
    points = step_points(config, partial(problem.at, x, y_prev.values[None], TaskBatch((task,))))
    return y_prev.like(_step(config, points, _step_map(config, x, problem.y_layout))[0])


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
) -> InnerRun:
    """The inner runs of every task of `batch` at once under config.rule,
    from the rows of the (tasks, dim_y) stack ys.

    Returns the (tasks, dim_y) stacks it kept: y_0..y_T with record, else
    y_0 and (after any step) y_T. Either way the last one is y_T. With
    record it keeps the points of each step too. Its points on a split
    share one problem.split_parts, and its steps one step map, which the
    returned run lends on.
    """
    shared = _SharedParts(problem, x, batch)
    step_map = _step_map(config, x, problem.y_layout) if config.steps else None
    kept, kept_points = [ys], {}
    for t in range(config.steps):
        at = partial(shared.at, ys)
        if record:
            points = step_points(config, at)
            kept_points.update(zip(((t, Split.TRAIN), (t, Split.VAL)), points))
            ys = _step(config, points, step_map)
        else:
            ys = _step(config, step_points(config, at), step_map)
        if record or t + 1 == config.steps:
            kept.append(ys)
    return InnerRun(kept, problem, x, batch, kept_points, shared, {config: step_map})


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
    config = _with_rule(config, rule)
    at = partial(problem.at, x, y_prev.values[None], TaskBatch((task,)))
    a_t, b_t = step_transposed_jvps_batch(config, step_points(config, at), v.values[None])
    return v.like(a_t[0]), x.like(b_t[0])


def step_transposed_jvps_batch(
    config: InnerConfig, points: tuple[Point, ...], vs: np.ndarray, step_map=None
) -> tuple[np.ndarray, np.ndarray]:
    """step_transposed_jvps for every task of a batch at once, under
    config.rule, at the points of one stack (step_points) and the rows of
    the (tasks, dim_y) stack vs; returns the (tasks, dim_y) and
    (tasks, dim_x) stacks. step_map is the rule's map at the points' x
    (InnerRun.step_map), built here when None."""
    train = points[0]
    x = train.x
    scale, d, name, pullback = step_map or _step_map(config, x, train.problem.y_layout)
    # an overflow here leaves a non-finite product, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        w = vs if d is None else d * vs
        a_t = vs - scale * _mix(config, points, lambda point: point.hvp_yy(w))
        b_t = -scale * _mix(config, points, lambda point: point.cross_hvp(w))
        if d is not None:
            b_t = segment_add(b_t, x.layout, name, pullback(train.grad_y(), vs))

    if not (np.isfinite(a_t).all() and np.isfinite(b_t).all()):
        raise NonFiniteValue(f"transposed products under rule {config.rule.value} are non-finite")
    return a_t, b_t
