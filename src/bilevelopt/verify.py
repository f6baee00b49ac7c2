"""Independent correctness oracles and the gradcheck suite.

The library's finite differences live here: central-difference gradients
and Hessian-vector products of any oracle (fd_gradient, fd_hvp), and a
hypergradient (fd_hypergradient) that treats the whole pipeline
(initialization, T inner steps, validation loss) as a black-box scalar
function of x and differences it one coordinate at a time. It is slow and
dumb on purpose; every estimator is judged against it.

run_gradcheck_suite executes the numeric identities the estimators and step
rules are supposed to satisfy and returns one row per check, serializable
as JSON lines.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from operator import ge, le, lt
from typing import Callable

import numpy as np

from . import hypergrad as hg
from .data import EpisodeSpec, SyntheticGaussian, sample_task_batch
from .errors import ConfigError, LayoutMismatch, NonFiniteValue
from .inner import (
    InnerConfig,
    InnerRule,
    init_task_params,
    inner_step,
    required_x_segments,
    run_inner,
    softplus_inverse,
    step_transposed_jvps,
)
from .numerics import Layout, ParamVector, RngStream
from .objectives import (
    BilevelObjective,
    MetaFeatureSoftmax,
    MetaInitMlp,
    Paradigm,
    QuadraticBilevel,
    Regularizer,
    Split,
)

__all__ = [
    "fd_gradient",
    "fd_hvp",
    "fd_hypergradient",
    "analytic_quadratic_hypergrad",
    "ZeroCurvatureInner",
    "make_zero_curvature",
    "CheckResult",
    "run_gradcheck_suite",
    "report_to_jsonl",
    "PROFILES",
]


def fd_gradient(
    h: Callable[[ParamVector], float], p: ParamVector, eps: float = 1e-5
) -> ParamVector:
    """Central-difference gradient of a scalar function, one coordinate at a time."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    base = p.values
    out = np.empty(p.layout.dim)
    for k in range(p.layout.dim):
        work = base.copy()
        work[k] = base[k] + eps
        hp = float(h(ParamVector(p.layout, work, copy=False)))
        work = base.copy()
        work[k] = base[k] - eps
        hm = float(h(ParamVector(p.layout, work, copy=False)))
        if not (math.isfinite(hp) and math.isfinite(hm)):
            raise NonFiniteValue(f"fd_gradient: non-finite evaluation at coordinate {k}")
        out[k] = (hp - hm) / (2.0 * eps)
    return ParamVector(p.layout, out, copy=False)


def fd_hvp(
    g: Callable[[ParamVector], ParamVector],
    p: ParamVector,
    v: ParamVector,
    eps: float | None = None,
) -> ParamVector:
    """Hessian-vector product by central differences of a gradient oracle.

    Default step balances truncation against round-off at double precision:
    eps = 1e-4 * (1 + ||p||_inf) / (1 + ||v||_inf).
    """
    if p.layout != v.layout:
        raise LayoutMismatch("p and v layouts differ in fd_hvp")
    if eps is None:
        eps = 1e-4 * (1.0 + p.inf_norm()) / (1.0 + v.inf_norm())
    if eps <= 0:
        raise ValueError("eps must be positive")
    gp = g(p + eps * v)
    gm = g(p - eps * v)
    out = (1.0 / (2.0 * eps)) * (gp - gm)
    if not out.is_finite():
        raise NonFiniteValue("fd_hvp: non-finite gradient evaluation")
    return out


def fd_hypergradient(
    problem: BilevelObjective,
    paradigm: Paradigm,
    rule: InnerRule,
    inner_config: InnerConfig,
    x: ParamVector,
    y0_seed: int,
    task,
    eps: float = 1e-5,
) -> ParamVector:
    """Brute-force meta-gradient by central differences over x.

    Each perturbation reruns the full inner loop with the same rng, so the
    initialization under the meta-feature paradigm is held fixed while the
    meta-init paradigm sees the perturbation through y_0. The step for
    coordinate k is eps*(1+|x_k|) to cope with mixed-magnitude segments.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")

    def h(values: np.ndarray) -> float:
        xp = ParamVector(x.layout, values)
        y0 = init_task_params(paradigm, problem, xp, RngStream(y0_seed))
        traj = run_inner(rule, inner_config, problem, xp, y0, task, record=False)
        return problem.value(xp, traj.y_final, task, Split.VAL)

    base = x.values
    out = np.empty_like(base)
    for k in range(base.size):
        step = eps * (1.0 + abs(base[k]))
        plus = base.copy()
        plus[k] += step
        minus = base.copy()
        minus[k] -= step
        out[k] = (h(plus) - h(minus)) / (2.0 * step)
    return ParamVector(x.layout, out, copy=False)


def analytic_quadratic_hypergrad(a, lam: float, b, x: ParamVector) -> ParamVector:
    """Closed-form d/dx of the quadratic problem's true outer objective,
    computed from scratch here so it shares no code with the problem class."""
    if lam <= 0:
        raise ValueError("lam must be > 0")
    a_arr = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b_arr = np.atleast_1d(np.asarray(b, dtype=np.float64))
    theta = x.segment("theta")
    y_star = a_arr @ theta / (1.0 + lam)
    g = a_arr.T @ (y_star - b_arr) / (1.0 + lam)
    return ParamVector.zeros(x.layout).with_segment("theta", g)


class ZeroCurvatureInner(BilevelObjective):
    """Inner loss linear in y (so hvp_yy is exactly zero), outer loss a
    plain quadratic pull toward a target. Exists to isolate estimator
    behavior when all curvature terms vanish."""

    def __init__(self, c, b):
        c_arr = np.atleast_1d(np.asarray(c, dtype=np.float64))
        b_arr = np.atleast_1d(np.asarray(b, dtype=np.float64))
        if c_arr.shape != b_arr.shape:
            raise ValueError("c and b must have the same length")
        self.c = c_arr
        self.b = b_arr
        self.y_layout = Layout([("y", c_arr.shape[0])])
        self.x_layout = Layout([("init", c_arr.shape[0])])

    def value(self, x, y, task, split):
        self._check_xy(x, y)
        if split is Split.TRAIN:
            return float(self.c @ y.values)
        r = y.values - self.b
        return 0.5 * float(r @ r)

    def grad_y(self, x, y, task, split):
        self._check_xy(x, y)
        if split is Split.TRAIN:
            return y.like(self.c.copy())
        return y.like(y.values - self.b)

    def hvp_yy(self, x, y, task, split, v):
        self._check_xy(x, y)
        if split is Split.TRAIN:
            return ParamVector.zeros(v.layout)
        return v


make_zero_curvature = ZeroCurvatureInner


# ---------------------------------------------------------------------------
# gradcheck suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    estimator: str
    problem: str
    rule: str
    metric: str
    value: float
    threshold: float
    passed: bool

    def as_json_dict(self) -> dict:
        return {
            "estimator": self.estimator,
            "problem": self.problem,
            "rule": self.rule,
            "metric": self.metric,
            "value": float(self.value),
            "threshold": float(self.threshold),
            "pass": bool(self.passed),
        }


def report_to_jsonl(results: list[CheckResult]) -> str:
    return "".join(json.dumps(r.as_json_dict()) + "\n" for r in results)


def _row(
    estimator: str, problem: str, rule: str, metric: str,
    value: float, compare: Callable[[float, float], bool], threshold: float,
) -> CheckResult:
    """One check: it passes when compare(value, threshold) holds, compare
    being le (at most), ge (at least) or lt (below). A non-finite value
    means the check itself broke, so it raises rather than failing."""
    if not math.isfinite(value):
        raise AssertionError(f"check {metric} produced non-finite value")
    return CheckResult(
        estimator, problem, rule, metric, value, threshold, compare(value, threshold)
    )


@dataclass(frozen=True)
class _Fixture:
    name: str
    problem: BilevelObjective
    paradigm: Paradigm
    task: object
    steps: int
    step_size: float
    x_base: ParamVector
    y0_seed: int
    # checks of this fixture beyond the per-rule suite
    extra_checks: Callable[[_Fixture, int], list[CheckResult]] | None = None


_EXACT_PROBLEMS = ("quadratic", "feature_softmax", "zero_curvature")
_FD_PROBLEMS = ("init_mlp",)
PROFILES = {
    "exact": _EXACT_PROBLEMS,
    "fd": _FD_PROBLEMS,
    "all": _EXACT_PROBLEMS + _FD_PROBLEMS,
}


def _classification_task(seed: int, dim: int, way: int):
    src = SyntheticGaussian(
        num_classes=2 * way, dim=dim, cluster_spread=3.0, noise_sd=0.6, seed=seed
    )
    batch = sample_task_batch(
        src, EpisodeSpec(way=way, shot=2, query=4, batch_size=1), RngStream(seed, 77)
    )
    return batch.tasks[0]


def _make_fixture(name: str, seed: int) -> _Fixture:
    gen = RngStream(seed, 5).generator()
    if name == "quadratic":
        a = np.array([[2.0, -0.7], [0.4, 1.5]])
        problem = QuadraticBilevel(a, lam=1.0, b=np.array([1.0, -0.5]))
        x = ParamVector(problem.x_layout, gen.standard_normal(problem.x_layout.dim))
        return _Fixture(
            name, problem, Paradigm.META_FEATURE, None, 3, 0.2, x, seed + 1,
            _quadratic_extra_checks,
        )
    if name == "feature_softmax":
        problem = MetaFeatureSoftmax(5, 6, 3, Regularizer.l2(0.1))
        task = _classification_task(seed, dim=5, way=3)
        x = ParamVector(
            problem.x_layout, 0.5 * gen.standard_normal(problem.x_layout.dim)
        )
        return _Fixture(
            name, problem, Paradigm.META_FEATURE, task, 3, 0.5, x, seed + 1,
            _softmax_extra_checks,
        )
    if name == "init_mlp":
        problem = MetaInitMlp(5, 4, 3, reg=Regularizer.l2(0.05))
        task = _classification_task(seed + 3, dim=5, way=3)
        x = ParamVector(
            problem.x_layout, 0.4 * gen.standard_normal(problem.x_layout.dim)
        )
        return _Fixture(name, problem, Paradigm.META_INIT, task, 3, 0.3, x, seed + 1)
    if name == "zero_curvature":
        problem = ZeroCurvatureInner(gen.standard_normal(3), gen.standard_normal(3))
        x = ParamVector(problem.x_layout, gen.standard_normal(problem.x_layout.dim))
        return _Fixture(
            name, problem, Paradigm.META_INIT, None, 3, 0.3, x, seed + 1,
            _zero_curvature_extra_checks,
        )
    raise ConfigError(f"unknown problem fixture {name!r}")


def _rule_x(fix: _Fixture, rule: InnerRule, fill: np.random.Generator | float) -> ParamVector:
    """The fixture's x with the rule's extra segments appended: all set to
    fill when it is a number, else drawn from it to nontrivial values."""
    layout, values = fix.x_base.layout, [fix.x_base.values]
    for seg_name, length in required_x_segments(rule, fix.problem.y_layout):
        layout = layout.extended(seg_name, length)
        if not isinstance(fill, np.random.Generator):
            part = np.full(length, fill)
        elif seg_name == "rates":
            part = softplus_inverse(fix.step_size) + 0.2 * fill.standard_normal(length)
        else:
            part = (0.5 if seg_name == "mask_logits" else 0.3) * fill.standard_normal(length)
        values.append(part)
    return ParamVector(layout, np.concatenate(values))


def _rel_err(got: ParamVector, want: ParamVector) -> float:
    denom = max(want.norm(), 1e-12)
    return (got - want).norm() / denom


def _gd_run(fix: _Fixture):
    """The recorded plain-GD trajectory of the fixture from its base x."""
    y0 = init_task_params(fix.paradigm, fix.problem, fix.x_base, RngStream(fix.y0_seed))
    cfg = InnerConfig(fix.steps, fix.step_size)
    return run_inner(InnerRule.GD, cfg, fix.problem, fix.x_base, y0, fix.task, record=True)


def _step_jvp_gaps(
    fix: _Fixture, rule: InnerRule, cfg: InnerConfig, x: ParamVector, y: ParamVector, gen
) -> tuple[float, float]:
    """Worst fd-consistency gap of (aT_v, bT_v) over a few random pairs."""

    def gap(v, jvp, p, w, step):
        # <jvp, w> against the central difference of <v, step(p + t w)>, w unit
        w /= np.linalg.norm(w)
        eps = 1e-6 * (1.0 + p.inf_norm())
        phi_p, phi_m = step(p.like(p.values + eps * w)), step(p.like(p.values - eps * w))
        fd_dir = v.values @ (phi_p.values - phi_m.values) / (2.0 * eps)
        return abs(jvp.values @ w - fd_dir) / (1.0 + abs(fd_dir))

    def phi(xp, yp):
        return inner_step(rule, cfg, fix.problem, xp, yp, fix.task)

    gaps = []
    for _ in range(3):
        v = y.like(gen.standard_normal(y.layout.dim))
        w_y = gen.standard_normal(y.layout.dim)
        w_x = gen.standard_normal(x.layout.dim)
        aT, bT = step_transposed_jvps(rule, cfg, fix.problem, x, y, fix.task, v)
        gaps.append((
            gap(v, aT, y, w_y, lambda yp: phi(x, yp)),
            gap(v, bT, x, w_x, lambda xp: phi(xp, y)),
        ))
    # np.max, unlike max, keeps a NaN gap for its row to raise on
    return tuple(np.max(gaps, axis=0))


def _suite_for_fixture(fix: _Fixture, seed: int) -> list[CheckResult]:
    rows: list[CheckResult] = []
    problem, paradigm, task, name = fix.problem, fix.paradigm, fix.task, fix.name
    gen = RngStream(seed, 13).generator()

    for rule in InnerRule:
        x = _rule_x(fix, rule, gen)
        cfg = InnerConfig(fix.steps, fix.step_size, rule=rule, bda_alpha=0.7)
        y0 = init_task_params(paradigm, problem, x, RngStream(fix.y0_seed))
        y_mid = inner_step(rule, cfg, problem, x, y0, task)
        gaps = _step_jvp_gaps(fix, rule, cfg, x, y_mid, gen)
        for metric, gap in zip(("fd_gap_y", "fd_gap_x"), gaps):
            rows.append(_row("step_jvps", name, rule.value, metric, gap, le, 1e-4))

        traj = run_inner(rule, cfg, problem, x, y0, task, record=True)
        rev = hg.hypergrad_reverse(problem, paradigm, traj, x, task)
        fd = fd_hypergradient(problem, paradigm, rule, cfg, x, fix.y0_seed, task)
        err = _rel_err(rev.grad_x, fd)
        rows.append(_row("reverse", name, rule.value, "vs_fd_oracle", err, le, 1e-4))

        if rule is InnerRule.GD:
            trunc = hg.hypergrad_truncated(problem, paradigm, traj, x, task, k=fix.steps)
            gap = (trunc.grad_x - rev.grad_x).inf_norm()
            rows.append(_row("truncated", name, "gd", "k_equals_t_vs_reverse", gap, le, 1e-12))

    # rule-reduction identities against the plain-GD trajectory, each rule's
    # extra x segments (BDA has none) set to the value that reduces it to GD
    traj_gd = _gd_run(fix)
    for rule, fill, metric, tol in (
        (InnerRule.BDA, 0.0, "alpha1_equals_gd", 1e-12),
        (InnerRule.WARP_GRAD_DIAG, 0.0, "warp0_equals_gd", 1e-9),
        (InnerRule.MTNET_MASK, 40.0, "saturated_mask_equals_gd", 1e-9),
    ):
        cfg = InnerConfig(fix.steps, fix.step_size, rule=rule, bda_alpha=1.0)
        x = _rule_x(fix, rule, fill)
        traj = run_inner(rule, cfg, problem, x, traj_gd.iterates[0], task, record=True)
        gap = max((a - b).inf_norm() for a, b in zip(traj.iterates, traj_gd.iterates))
        rows.append(_row("inner_step", name, rule.value, metric, gap, le, tol))

    if fix.extra_checks is not None:
        rows.extend(fix.extra_checks(fix, seed))
    return rows


def _quadratic_extra_checks(fix: _Fixture, seed: int) -> list[CheckResult]:
    # a scalar quadratic of its own, whose closed form is easy to read
    rows: list[CheckResult] = []
    a, lam, b = 2.0, 1.0, 1.0
    problem = QuadraticBilevel(a, lam, b)
    paradigm = Paradigm.META_FEATURE
    x = ParamVector(problem.x_layout, np.array([2.0]))
    s = 0.5 / (1.0 + lam)
    analytic = analytic_quadratic_hypergrad(a, lam, b, x)

    cfg = InnerConfig(200, s)
    y0 = init_task_params(paradigm, problem, x, RngStream(seed))
    traj = run_inner(InnerRule.GD, cfg, problem, x, y0, None, record=True)
    rev = hg.hypergrad_reverse(problem, paradigm, traj, x, None)
    err = _rel_err(rev.grad_x, analytic)
    rows.append(_row("reverse", "quadratic", "gd", "vs_analytic_t200", err, le, 1e-3))

    imp = hg.hypergrad_implicit(
        problem, paradigm, x, traj.y_final, None, hg.Implicit(cg_tol=1e-10)
    )
    err = _rel_err(imp.grad_x, analytic)
    rows.append(_row("implicit", "quadratic", "gd", "vs_analytic", err, le, 1e-6))

    fd = fd_hypergradient(problem, paradigm, InnerRule.GD, cfg, x, seed, None)
    err = _rel_err(fd, analytic)
    rows.append(_row("fd_oracle", "quadratic", "gd", "vs_analytic_t200", err, le, 1e-4))

    # darts with a constant inner Hessian reproduces the one-step reverse
    # gradient exactly; anchor at the inner fixed point so both see the
    # same evaluation point
    y_star = problem.y_star(x)
    one_step = InnerConfig(1, s)
    traj1 = run_inner(InnerRule.GD, one_step, problem, x, y_star, None, record=True)
    rev1 = hg.hypergrad_reverse(problem, paradigm, traj1, x, None)
    darts = hg.hypergrad_darts(problem, paradigm, x, y_star, None, delta=0.3, step_size=s)
    gap = (darts.grad_x - rev1.grad_x).inf_norm()
    rows.append(_row("darts", "quadratic", "gd", "equals_one_step_reverse", gap, le, 1e-8))

    gen = RngStream(seed, 21).generator()
    y = ParamVector(problem.y_layout, 2.0 + gen.standard_normal(1))
    contraction = InnerConfig(30, 0.2)
    traj_c = run_inner(InnerRule.GD, contraction, problem, x, y, None, record=True)
    dists = [(it - y_star).norm() for it in traj_c.iterates]
    worst = max(b_ / a_ for a_, b_ in zip(dists, dists[1:]) if a_ > 0)
    rows.append(_row("inner_step", "quadratic", "gd", "contraction_ratio", worst, lt, 1.0))
    return rows


def _softmax_extra_checks(fix: _Fixture, seed: int) -> list[CheckResult]:
    problem, paradigm, task, x, s = (
        fix.problem, fix.paradigm, fix.task, fix.x_base, fix.step_size
    )
    traj = _gd_run(fix)
    y_t = traj.y_final

    # darts order check: as delta shrinks the estimate approaches the
    # same-point one-step gradient grad_x(val) - s*cross_hvp(train, v),
    # with error O(delta^2), so halving delta divides the error by ~4
    v = problem.grad_y(x, y_t, task, Split.VAL)
    target = problem.grad_x(x, y_t, task, Split.VAL) - s * problem.cross_hvp(
        x, y_t, task, Split.TRAIN, v
    )
    errs = []
    for d in (0.08, 0.04, 0.02, 0.01):
        est = hg.hypergrad_darts(problem, paradigm, x, y_t, task, delta=d, step_size=s)
        errs.append((est.grad_x - target).norm())
    ratios = [e0 / e1 for e0, e1 in zip(errs, errs[1:])]
    rows = [
        _row("darts", fix.name, "gd", "halving_ratio_min", min(ratios), ge, 3.0),
        _row("darts", fix.name, "gd", "halving_ratio_max", max(ratios), le, 5.0),
    ]

    # fd oracle self-consistency: halving eps divides its own error by ~4
    rev = hg.hypergrad_reverse(problem, paradigm, traj, x, task)
    fd = partial(
        fd_hypergradient, problem, paradigm, InnerRule.GD, traj.config, x, fix.y0_seed, task
    )
    e_big, e_small = ((fd(eps=eps) - rev.grad_x).norm() for eps in (2e-3, 1e-3))
    ratio = e_big / max(e_small, 1e-300)
    return rows + [
        _row("fd_oracle", fix.name, "gd", "richardson_ratio_min", ratio, ge, 3.0),
        _row("fd_oracle", fix.name, "gd", "richardson_ratio_max", ratio, le, 5.0),
    ]


def _zero_curvature_extra_checks(fix: _Fixture, seed: int) -> list[CheckResult]:
    traj = _gd_run(fix)
    rev = hg.hypergrad_reverse(fix.problem, fix.paradigm, traj, fix.x_base, None)
    fo = hg.hypergrad_first_order(fix.problem, fix.paradigm, fix.x_base, traj.y_final, None)
    gap = (fo.grad_x - rev.grad_x).inf_norm()
    return [
        _row("first_order", fix.name, "gd", "equals_reverse_no_curvature", gap, le, 1e-10)
    ]


def run_gradcheck_suite(
    profile: str = "all", problems: list[str] | None = None, seed: int = 0
) -> list[CheckResult]:
    """Run every numeric identity check for the chosen tolerance profile.

    profile chooses the default problem set ("exact", "fd", or "all"); an
    explicit problems list overrides it (an empty list yields an empty
    report). Results are deterministic for a given seed.
    """
    if profile not in PROFILES:
        raise ConfigError(
            f"unknown profile {profile!r}; expected one of {sorted(PROFILES)}"
        )
    names = PROFILES[profile] if problems is None else tuple(problems)
    return [row for name in names for row in _suite_for_fixture(_make_fixture(name, seed), seed)]
