"""Independent correctness oracles and the gradcheck suite.

The finite-difference hypergradient here treats the whole pipeline
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

import numpy as np

from . import hypergrad as hg
from .data import EpisodeSpec, SyntheticGaussian, sample_task_batch
from .errors import ConfigError
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
    Paradigm,
    Regularizer,
    Split,
    make_meta_feature_softmax,
    make_meta_init_mlp,
    make_quadratic,
)

__all__ = [
    "fd_hypergradient",
    "analytic_quadratic_hypergrad",
    "ZeroCurvatureInner",
    "make_zero_curvature",
    "CheckResult",
    "run_gradcheck_suite",
    "report_to_jsonl",
    "PROFILES",
]


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


def make_zero_curvature(c, b) -> ZeroCurvatureInner:
    return ZeroCurvatureInner(c, b)


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


_EXACT_PROBLEMS = ("quadratic", "feature_softmax", "zero_curvature")
_FD_PROBLEMS = ("init_mlp",)
PROFILES = {
    "exact": _EXACT_PROBLEMS,
    "fd": _FD_PROBLEMS,
    "all": _EXACT_PROBLEMS + _FD_PROBLEMS,
}

_ALL_RULES = (
    InnerRule.GD,
    InnerRule.META_SGD,
    InnerRule.BDA,
    InnerRule.MTNET_MASK,
    InnerRule.WARP_GRAD_DIAG,
)


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
        problem = make_quadratic(a, lam=1.0, b=np.array([1.0, -0.5]))
        x = ParamVector(problem.x_layout, gen.standard_normal(problem.x_layout.dim))
        return _Fixture(name, problem, Paradigm.META_FEATURE, None, 3, 0.2, x, seed + 1)
    if name == "feature_softmax":
        problem = make_meta_feature_softmax(5, 6, 3, Regularizer.l2(0.1))
        task = _classification_task(seed, dim=5, way=3)
        x = ParamVector(
            problem.x_layout, 0.5 * gen.standard_normal(problem.x_layout.dim)
        )
        return _Fixture(name, problem, Paradigm.META_FEATURE, task, 3, 0.5, x, seed + 1)
    if name == "init_mlp":
        problem = make_meta_init_mlp(5, 4, 3, reg=Regularizer.l2(0.05))
        task = _classification_task(seed + 3, dim=5, way=3)
        x = ParamVector(
            problem.x_layout, 0.4 * gen.standard_normal(problem.x_layout.dim)
        )
        return _Fixture(name, problem, Paradigm.META_INIT, task, 3, 0.3, x, seed + 1)
    if name == "zero_curvature":
        problem = make_zero_curvature(
            gen.standard_normal(3), gen.standard_normal(3)
        )
        x = ParamVector(problem.x_layout, gen.standard_normal(problem.x_layout.dim))
        return _Fixture(name, problem, Paradigm.META_INIT, None, 3, 0.3, x, seed + 1)
    raise ConfigError(f"unknown problem fixture {name!r}")


def _extend_for_rule(fix: _Fixture, rule: InnerRule, gen: np.random.Generator) -> ParamVector:
    """x with the rule's extra segments appended and given nontrivial values."""
    layout = fix.x_base.layout
    values = [fix.x_base.values]
    for seg_name, length in required_x_segments(rule, fix.problem.y_layout):
        layout = layout.extended(seg_name, length)
        if seg_name == "rates":
            vals = softplus_inverse(fix.step_size) + 0.2 * gen.standard_normal(length)
        elif seg_name == "mask_logits":
            vals = 0.5 * gen.standard_normal(length)
        else:
            vals = 0.3 * gen.standard_normal(length)
        values.append(vals)
    return ParamVector(layout, np.concatenate(values))


def _rel_err(got: ParamVector, want: ParamVector) -> float:
    denom = max(want.norm(), 1e-12)
    return (got - want).norm() / denom


def _step_jvp_gaps(
    fix: _Fixture, rule: InnerRule, cfg: InnerConfig, x: ParamVector, y: ParamVector, gen
) -> tuple[float, float]:
    """Worst fd-consistency gap of (aT_v, bT_v) over a few random pairs."""
    problem, task = fix.problem, fix.task
    gap_a = 0.0
    gap_b = 0.0
    for _ in range(3):
        v = y.like(gen.standard_normal(y.layout.dim))
        w_y = gen.standard_normal(y.layout.dim)
        w_y /= np.linalg.norm(w_y)
        w_x = gen.standard_normal(x.layout.dim)
        w_x /= np.linalg.norm(w_x)
        aT, bT = step_transposed_jvps(rule, cfg, problem, x, y, task, v)

        eps_y = 1e-6 * (1.0 + y.inf_norm())
        phi_p = inner_step(rule, cfg, problem, x, y.like(y.values + eps_y * w_y), task)
        phi_m = inner_step(rule, cfg, problem, x, y.like(y.values - eps_y * w_y), task)
        fd_dir = v.values @ (phi_p.values - phi_m.values) / (2.0 * eps_y)
        got = aT.values @ w_y
        gap_a = max(gap_a, abs(got - fd_dir) / (1.0 + abs(fd_dir)))

        eps_x = 1e-6 * (1.0 + x.inf_norm())
        phi_p = inner_step(rule, cfg, problem, x.like(x.values + eps_x * w_x), y, task)
        phi_m = inner_step(rule, cfg, problem, x.like(x.values - eps_x * w_x), y, task)
        fd_dir = v.values @ (phi_p.values - phi_m.values) / (2.0 * eps_x)
        got = bT.values @ w_x
        gap_b = max(gap_b, abs(got - fd_dir) / (1.0 + abs(fd_dir)))
    return gap_a, gap_b


def _suite_for_fixture(fix: _Fixture, seed: int) -> list[CheckResult]:
    rows: list[CheckResult] = []
    problem, paradigm, task = fix.problem, fix.paradigm, fix.task
    tol = 1e-4 if problem.exact_hvp else 1e-2
    gen = RngStream(seed, 13).generator()

    for rule in _ALL_RULES:
        x = _extend_for_rule(fix, rule, gen)
        cfg = InnerConfig(fix.steps, fix.step_size, rule=rule, bda_alpha=0.7)
        y_mid = init_task_params(paradigm, problem, x, RngStream(fix.y0_seed))
        y_mid = inner_step(rule, cfg, problem, x, y_mid, task)

        gap_a, gap_b = _step_jvp_gaps(fix, rule, cfg, x, y_mid, gen)
        rows.append(
            CheckResult("step_jvps", fix.name, rule.value, "fd_gap_y", gap_a, tol, gap_a <= tol)
        )
        rows.append(
            CheckResult("step_jvps", fix.name, rule.value, "fd_gap_x", gap_b, tol, gap_b <= tol)
        )

        y0 = init_task_params(paradigm, problem, x, RngStream(fix.y0_seed))
        traj = run_inner(rule, cfg, problem, x, y0, task, record=True)
        rev = hg.hypergrad_reverse(problem, paradigm, traj, x, task)
        fd = fd_hypergradient(problem, paradigm, rule, cfg, x, fix.y0_seed, task)
        err = _rel_err(rev.grad_x, fd)
        rows.append(
            CheckResult("reverse", fix.name, rule.value, "vs_fd_oracle", err, tol, err <= tol)
        )

        if rule is InnerRule.GD:
            trunc = hg.hypergrad_truncated(problem, paradigm, traj, x, task, k=fix.steps)
            gap = (trunc.grad_x - rev.grad_x).inf_norm()
            rows.append(
                CheckResult(
                    "truncated", fix.name, rule.value, "k_equals_t_vs_reverse",
                    gap, 1e-12, gap <= 1e-12,
                )
            )

    # rule-reduction identities, all on the plain-GD trajectory
    x_gd = _extend_for_rule(fix, InnerRule.GD, gen)
    cfg_gd = InnerConfig(fix.steps, fix.step_size)
    y0 = init_task_params(paradigm, problem, x_gd, RngStream(fix.y0_seed))
    traj_gd = run_inner(InnerRule.GD, cfg_gd, problem, x_gd, y0, task, record=True)

    cfg_bda = InnerConfig(fix.steps, fix.step_size, rule=InnerRule.BDA, bda_alpha=1.0)
    traj_bda = run_inner(InnerRule.BDA, cfg_bda, problem, x_gd, y0, task, record=True)
    gap = max(
        (a - b).inf_norm() for a, b in zip(traj_bda.iterates, traj_gd.iterates)
    )
    rows.append(
        CheckResult("inner_step", fix.name, "bda", "alpha1_equals_gd", gap, 1e-12, gap <= 1e-12)
    )

    for rule, seg_name, seg_value, metric, tol_id in (
        (InnerRule.WARP_GRAD_DIAG, "warp_logdiag", 0.0, "warp0_equals_gd", 1e-9),
        (InnerRule.MTNET_MASK, "mask_logits", 40.0, "saturated_mask_equals_gd", 1e-9),
    ):
        layout = fix.x_base.layout
        parts = [fix.x_base.values]
        for name, length in required_x_segments(rule, problem.y_layout):
            layout = layout.extended(name, length)
            parts.append(np.full(length, seg_value))
        x_rule = ParamVector(layout, np.concatenate(parts))
        cfg_rule = InnerConfig(fix.steps, fix.step_size, rule=rule)
        traj_rule = run_inner(rule, cfg_rule, problem, x_rule, y0, task, record=True)
        gap = max(
            (a - b).inf_norm() for a, b in zip(traj_rule.iterates, traj_gd.iterates)
        )
        rows.append(
            CheckResult("inner_step", fix.name, rule.value, metric, gap, tol_id, gap <= tol_id)
        )

    return rows


def _quadratic_extra_checks(seed: int) -> list[CheckResult]:
    rows: list[CheckResult] = []
    a, lam, b = 2.0, 1.0, 1.0
    problem = make_quadratic(a, lam, b)
    x = ParamVector(problem.x_layout, np.array([2.0]))
    s = 0.5 / (1.0 + lam)
    analytic = analytic_quadratic_hypergrad(a, lam, b, x)

    cfg = InnerConfig(200, s)
    y0 = init_task_params(Paradigm.META_FEATURE, problem, x, RngStream(seed))
    traj = run_inner(InnerRule.GD, cfg, problem, x, y0, None, record=True)
    rev = hg.hypergrad_reverse(problem, Paradigm.META_FEATURE, traj, x, None)
    err = _rel_err(rev.grad_x, analytic)
    rows.append(
        CheckResult("reverse", "quadratic", "gd", "vs_analytic_t200", err, 1e-3, err <= 1e-3)
    )

    imp = hg.hypergrad_implicit(
        problem, Paradigm.META_FEATURE, x, traj.y_final, None, hg.Implicit(cg_tol=1e-10)
    )
    err = _rel_err(imp.grad_x, analytic)
    rows.append(
        CheckResult("implicit", "quadratic", "gd", "vs_analytic", err, 1e-6, err <= 1e-6)
    )

    fd = fd_hypergradient(
        problem, Paradigm.META_FEATURE, InnerRule.GD, cfg, x, seed, None
    )
    err = _rel_err(fd, analytic)
    rows.append(
        CheckResult("fd_oracle", "quadratic", "gd", "vs_analytic_t200", err, 1e-4, err <= 1e-4)
    )

    # darts with a constant inner Hessian reproduces the one-step reverse
    # gradient exactly; anchor at the inner fixed point so both see the
    # same evaluation point
    y_star = problem.y_star(x)
    one_step = InnerConfig(1, s)
    traj1 = run_inner(InnerRule.GD, one_step, problem, x, y_star, None, record=True)
    rev1 = hg.hypergrad_reverse(problem, Paradigm.META_FEATURE, traj1, x, None)
    darts = hg.hypergrad_darts(
        problem, Paradigm.META_FEATURE, x, y_star, None, delta=0.3, step_size=s
    )
    gap = (darts.grad_x - rev1.grad_x).inf_norm()
    rows.append(
        CheckResult("darts", "quadratic", "gd", "equals_one_step_reverse", gap, 1e-8, gap <= 1e-8)
    )

    gen = RngStream(seed, 21).generator()
    y = ParamVector(problem.y_layout, 2.0 + gen.standard_normal(1))
    contraction = InnerConfig(30, 0.2)
    traj_c = run_inner(InnerRule.GD, contraction, problem, x, y, None, record=True)
    target = problem.y_star(x)
    dists = [(it - target).norm() for it in traj_c.iterates]
    worst = max(b_ / a_ for a_, b_ in zip(dists, dists[1:]) if a_ > 0)
    rows.append(
        CheckResult("inner_step", "quadratic", "gd", "contraction_ratio", worst, 1.0, worst < 1.0)
    )
    return rows


def _softmax_extra_checks(seed: int) -> list[CheckResult]:
    rows: list[CheckResult] = []
    fix = _make_fixture("feature_softmax", seed)
    problem, task = fix.problem, fix.task
    x = fix.x_base
    cfg = InnerConfig(fix.steps, fix.step_size)
    y0 = init_task_params(Paradigm.META_FEATURE, problem, x, RngStream(fix.y0_seed))
    traj = run_inner(InnerRule.GD, cfg, problem, x, y0, task, record=True)
    y_t = traj.y_final

    # darts order check: as delta shrinks the estimate approaches the
    # same-point one-step gradient grad_x(val) - s*cross_hvp(train, v),
    # with error O(delta^2), so halving delta divides the error by ~4
    v = problem.grad_y(x, y_t, task, Split.VAL)
    target = problem.grad_x(x, y_t, task, Split.VAL) - fix.step_size * problem.cross_hvp(
        x, y_t, task, Split.TRAIN, v
    )
    deltas = [0.08, 0.04, 0.02, 0.01]
    errs = []
    for d in deltas:
        est = hg.hypergrad_darts(
            problem, Paradigm.META_FEATURE, x, y_t, task, delta=d, step_size=fix.step_size
        )
        errs.append((est.grad_x - target).norm())
    ratios = [e0 / e1 for e0, e1 in zip(errs, errs[1:])]
    rows.append(
        CheckResult(
            "darts", "feature_softmax", "gd", "halving_ratio_min",
            min(ratios), 3.0, min(ratios) >= 3.0,
        )
    )
    rows.append(
        CheckResult(
            "darts", "feature_softmax", "gd", "halving_ratio_max",
            max(ratios), 5.0, max(ratios) <= 5.0,
        )
    )

    # fd oracle self-consistency: halving eps divides its own error by ~4
    rev = hg.hypergrad_reverse(problem, Paradigm.META_FEATURE, traj, x, task)
    e_big = (
        fd_hypergradient(problem, Paradigm.META_FEATURE, InnerRule.GD, cfg, x, fix.y0_seed, task, eps=2e-3)
        - rev.grad_x
    ).norm()
    e_small = (
        fd_hypergradient(problem, Paradigm.META_FEATURE, InnerRule.GD, cfg, x, fix.y0_seed, task, eps=1e-3)
        - rev.grad_x
    ).norm()
    ratio = e_big / max(e_small, 1e-300)
    rows.append(
        CheckResult(
            "fd_oracle", "feature_softmax", "gd", "richardson_ratio",
            ratio, 4.0, 3.0 <= ratio <= 5.0,
        )
    )
    return rows


def _zero_curvature_extra_checks(seed: int) -> list[CheckResult]:
    fix = _make_fixture("zero_curvature", seed)
    cfg = InnerConfig(fix.steps, fix.step_size)
    x = fix.x_base
    y0 = init_task_params(Paradigm.META_INIT, fix.problem, x, RngStream(fix.y0_seed))
    traj = run_inner(InnerRule.GD, cfg, fix.problem, x, y0, None, record=True)
    rev = hg.hypergrad_reverse(fix.problem, Paradigm.META_INIT, traj, x, None)
    fo = hg.hypergrad_first_order(
        fix.problem, Paradigm.META_INIT, x, traj.y_final, None
    )
    gap = (fo.grad_x - rev.grad_x).inf_norm()
    return [
        CheckResult(
            "first_order", "zero_curvature", "gd", "equals_reverse_no_curvature",
            gap, 1e-10, gap <= 1e-10,
        )
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
    rows: list[CheckResult] = []
    for name in names:
        fix = _make_fixture(name, seed)
        rows.extend(_suite_for_fixture(fix, seed))
        if name == "quadratic":
            rows.extend(_quadratic_extra_checks(seed))
        elif name == "feature_softmax":
            rows.extend(_softmax_extra_checks(seed))
        elif name == "zero_curvature":
            rows.extend(_zero_curvature_extra_checks(seed))
    for row in rows:
        if not math.isfinite(row.value):
            raise AssertionError(f"check {row.metric} produced non-finite value")
    return rows
