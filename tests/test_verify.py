"""The verification harness itself: oracle quality, suite coverage, and the
suite's power to catch a broken estimator."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bilevelopt import (
    ConfigError,
    HyperGradResult,
    InnerConfig,
    InnerRule,
    Paradigm,
    ParamVector,
    Split,
    analytic_quadratic_hypergrad,
    fd_hypergradient,
    make_quadratic,
    make_zero_curvature,
    report_to_jsonl,
    run_gradcheck_suite,
)
import bilevelopt.hypergrad as hg


# --------------------------------------------------------------------------
# the oracles
# --------------------------------------------------------------------------


def test_analytic_hypergrad_matches_hand_value():
    prob = make_quadratic(2.0, 1.0, 1.0)
    x = ParamVector(prob.x_layout, [2.0])
    got = analytic_quadratic_hypergrad(2.0, 1.0, 1.0, x)
    assert got.segment("theta")[0] == pytest.approx(1.0)


def test_analytic_hypergrad_agrees_with_problem_formula(quad2):
    gen = np.random.default_rng(2)
    x = ParamVector(quad2.x_layout, gen.standard_normal(2))
    independent = analytic_quadratic_hypergrad(
        [[2.0, -0.7], [0.4, 1.5]], 1.0, [1.0, -0.5], x
    )
    assert np.allclose(independent.values, quad2.hypergradient(x).values, atol=1e-14)


def test_fd_hypergradient_recovers_the_scalar_gradient():
    # long GD run converges, so the fd meta-gradient matches the closed form
    prob = make_quadratic(2.0, 1.0, 1.0)
    x = ParamVector(prob.x_layout, [2.0])
    cfg = InnerConfig(steps=120, step_size=0.25)
    fd = fd_hypergradient(prob, Paradigm.META_FEATURE, InnerRule.GD, cfg, x, 0, None)
    assert fd.segment("theta")[0] == pytest.approx(1.0, abs=1e-6)


def test_fd_hypergradient_sees_the_initialization_path():
    # under the learned-init paradigm a perturbation of x moves y_0 too
    prob = make_zero_curvature([0.0, 0.0], [1.0, -1.0])
    x = ParamVector(prob.x_layout, [0.3, 0.4])
    cfg = InnerConfig(steps=2, step_size=0.1)
    fd = fd_hypergradient(prob, Paradigm.META_INIT, InnerRule.GD, cfg, x, 0, None)
    # with c = 0 the inner loop is a no-op: dF/dinit = y_0 - b
    assert np.allclose(fd.segment("init"), [0.3 - 1.0, 0.4 + 1.0], atol=1e-9)


def test_fd_hypergradient_validates_eps():
    prob = make_quadratic(2.0, 1.0, 1.0)
    x = ParamVector(prob.x_layout, [1.0])
    cfg = InnerConfig(steps=1, step_size=0.2)
    with pytest.raises(ValueError):
        fd_hypergradient(
            prob, Paradigm.META_FEATURE, InnerRule.GD, cfg, x, 0, None, eps=-1.0
        )


def test_zero_curvature_problem_has_flat_inner_hessian():
    prob = make_zero_curvature([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    x = ParamVector.zeros(prob.x_layout)
    y = ParamVector(prob.y_layout, [0.5, -0.5, 1.0])
    v = ParamVector(prob.y_layout, [1.0, 1.0, 1.0])
    hv = prob.hvp_yy(x, y, None, Split.TRAIN, v)
    assert np.array_equal(hv.values, np.zeros(3))
    # train gradient is the constant slope, val gradient pulls toward b
    assert np.array_equal(prob.grad_y(x, y, None, Split.TRAIN).values, [1.0, 2.0, 3.0])


# --------------------------------------------------------------------------
# suite coverage
# --------------------------------------------------------------------------


def test_full_suite_passes():
    rows = run_gradcheck_suite(profile="all", seed=0)
    failed = [r for r in rows if not r.passed]
    assert not failed, [f"{r.estimator}/{r.problem}/{r.metric}" for r in failed]
    assert len(rows) >= 60


def test_profiles_partition_the_problems():
    exact = {r.problem for r in run_gradcheck_suite(profile="exact", seed=0)}
    fd = {r.problem for r in run_gradcheck_suite(profile="fd", seed=0)}
    assert "init_mlp" not in exact
    assert fd == {"init_mlp"}
    both = {r.problem for r in run_gradcheck_suite(profile="all", seed=0)}
    assert both == exact | fd


def test_explicit_problem_list_overrides_profile():
    rows = run_gradcheck_suite(profile="all", problems=["quadratic"], seed=0)
    assert {r.problem for r in rows} == {"quadratic"}
    assert run_gradcheck_suite(profile="all", problems=[], seed=0) == []


def test_suite_covers_every_rule_and_estimator():
    rows = run_gradcheck_suite(profile="all", seed=0)
    rules = {r.rule for r in rows}
    assert {"gd", "meta_sgd", "bda", "mtnet_mask", "warp_grad_diag"} <= rules
    estimators = {r.estimator for r in rows}
    assert {
        "reverse",
        "truncated",
        "implicit",
        "first_order",
        "darts",
        "fd_oracle",
        "step_jvps",
        "inner_step",
    } <= estimators


def test_suite_is_deterministic_per_seed():
    a = run_gradcheck_suite(profile="exact", seed=4)
    b = run_gradcheck_suite(profile="exact", seed=4)
    assert a == b


def test_unknown_profile_and_fixture_are_rejected():
    with pytest.raises(ConfigError):
        run_gradcheck_suite(profile="strict")
    with pytest.raises(ConfigError):
        run_gradcheck_suite(problems=["rosenbrock"])


def test_report_jsonl_shape():
    rows = run_gradcheck_suite(profile="fd", seed=0)
    lines = report_to_jsonl(rows).splitlines()
    assert len(lines) == len(rows)
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {
            "estimator",
            "problem",
            "rule",
            "metric",
            "value",
            "threshold",
            "pass",
        }
        assert rec["pass"] is True


# --------------------------------------------------------------------------
# mutation sensitivity: the suite must catch a wrong estimator
# --------------------------------------------------------------------------


def test_suite_flags_a_scaled_reverse_gradient(monkeypatch):
    true_reverse = hg.hypergrad_reverse

    def skewed(problem, paradigm, traj, x, task):
        res = true_reverse(problem, paradigm, traj, x, task)
        return HyperGradResult(grad_x=1.2 * res.grad_x, ul_value=res.ul_value)

    monkeypatch.setattr(hg, "hypergrad_reverse", skewed)
    rows = run_gradcheck_suite(profile="all", seed=0)
    reverse_rows = [r for r in rows if r.estimator == "reverse"]
    assert reverse_rows
    assert all(not r.passed for r in reverse_rows)
    # checks that never consult the reverse estimator still pass
    for r in rows:
        if r.estimator in ("step_jvps", "inner_step", "implicit"):
            assert r.passed, f"{r.estimator}/{r.problem}/{r.metric}"


def test_suite_flags_a_biased_darts_estimator(monkeypatch):
    true_darts = hg.hypergrad_darts

    def biased(problem, paradigm, x, y_final, task, delta, step_size):
        res = true_darts(problem, paradigm, x, y_final, task, delta, step_size)
        return HyperGradResult(grad_x=1.2 * res.grad_x, ul_value=res.ul_value)

    monkeypatch.setattr(hg, "hypergrad_darts", biased)
    rows = run_gradcheck_suite(profile="exact", seed=0)
    by_key = {(r.problem, r.metric): r for r in rows if r.estimator == "darts"}
    # a uniform bias breaks the fixed-point identity and flattens the
    # convergence-order ratios toward 1; the upper ratio bound is one-sided
    # and stays satisfied, which is fine because the lower bound trips
    assert not by_key[("quadratic", "equals_one_step_reverse")].passed
    assert not by_key[("feature_softmax", "halving_ratio_min")].passed
    assert not all(r.passed for r in rows)
    for r in rows:
        if r.estimator == "reverse":
            assert r.passed


def test_suite_flags_a_broken_inner_rule(monkeypatch):
    import bilevelopt.verify as verify_mod

    true_jvps = verify_mod.step_transposed_jvps

    def wrong(rule, config, problem, x, y_prev, task, v):
        aT, bT = true_jvps(rule, config, problem, x, y_prev, task, v)
        if rule is InnerRule.META_SGD:
            return aT, 0.9 * bT
        return aT, bT

    monkeypatch.setattr(verify_mod, "step_transposed_jvps", wrong)
    rows = run_gradcheck_suite(profile="exact", problems=["quadratic"], seed=0)
    bad = [
        r for r in rows
        if r.rule == "meta_sgd" and r.estimator == "step_jvps" and r.metric == "fd_gap_x"
    ]
    assert bad and all(not r.passed for r in bad)
    good = [r for r in rows if r.rule == "gd" and r.estimator == "step_jvps"]
    assert good and all(r.passed for r in good)


# --------------------------------------------------------------------------
# loading
# --------------------------------------------------------------------------


def test_importing_the_package_leaves_the_harness_unloaded():
    # training never calls the harness, so it loads on its first name
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys, bilevelopt\n"
        "assert 'bilevelopt.verify' not in sys.modules\n"
        "from bilevelopt import fd_hypergradient\n"
        "assert fd_hypergradient is sys.modules['bilevelopt.verify'].fd_hypergradient\n"
        "assert bilevelopt.verify is sys.modules['bilevelopt.verify']\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
