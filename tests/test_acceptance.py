"""Acceptance gate: seven end-to-end criteria, one pass/fail line each.

Each test prints (and records for the terminal summary) a single verdict
line with the measured quantity next to its threshold.
"""

import json
import time

import numpy as np

import conftest
from bilevelopt import (
    EpisodeSpec,
    Implicit,
    InnerConfig,
    InnerRule,
    METHOD_NAMES,
    Paradigm,
    ParamVector,
    Regularizer,
    RngStream,
    Split,
    SyntheticGaussian,
    analytic_quadratic_hypergrad,
    build_experiment,
    ExperimentConfig,
    compose_named_method,
    fd_hypergradient,
    hypergrad_darts,
    hypergrad_first_order,
    hypergrad_implicit,
    hypergrad_reverse,
    hypergrad_truncated,
    init_task_params,
    make_meta_feature_softmax,
    make_meta_init_mlp,
    make_quadratic,
    make_zero_curvature,
    meta_evaluate,
    meta_train,
    required_x_segments,
    run_inner,
    sample_task_batch,
)
from bilevelopt.cli import entry


def _report(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def _episode(seed, way=3, dim=5):
    source = SyntheticGaussian(
        num_classes=2 * way, dim=dim, cluster_spread=3.0, noise_sd=0.6, seed=seed
    )
    spec = EpisodeSpec(way=way, shot=2, query=4)
    return sample_task_batch(source, spec, RngStream(seed, 77)).tasks[0]


def _rel_err(got, want):
    return (got - want).norm() / max(want.norm(), 1e-12)


# --------------------------------------------------------------------------
# 1. method parity
# --------------------------------------------------------------------------


def test_criterion_1_all_ten_methods_train(capsys):
    start = time.perf_counter()
    final_losses = {}
    for name in METHOD_NAMES:
        composed = compose_named_method(name)
        kind = "mlp" if composed.paradigm is Paradigm.META_INIT else "feature_softmax"
        cfg = ExperimentConfig.from_dict(
            {
                "data": {
                    "num_classes": 10,
                    "dim": 8,
                    "cluster_spread": 10.0,
                    "noise_sd": 0.5,
                    "way": 5,
                    "shot": 1,
                    "query": 10,
                    "batch_size": 2,
                },
                "problem": {
                    "kind": kind,
                    "hidden": 8,
                    "dim_feat": 12,
                    "reg": "l2",
                    "reg_coef": 0.1,
                },
                "inner": {"steps": 4, "step_size": 0.05},
                "run": {
                    "method": name,
                    "meta_iterations": 10,
                    "eval_every": 10**9,
                    "seed": 1,
                },
            }
        )
        exp, state = build_experiment(cfg)
        state, records = meta_train(exp, state)
        assert len(records) == 10, name
        assert all(np.isfinite(r.ul_loss) for r in records), name
        final_losses[name] = records[-1].ul_loss

    assert entry(["list-methods"]) == 0
    listed = [
        line.split()[0]
        for line in capsys.readouterr().out.splitlines()
        if line.strip()
    ]
    elapsed = time.perf_counter() - start

    ok = (
        len(final_losses) == 10
        and listed == list(METHOD_NAMES)
        and elapsed < 60.0
    )
    _report(
        1,
        ok,
        f"ten methods trained 10 meta-iterations each and list-methods "
        f"printed {len(listed)} rows in {elapsed:.1f}s (< 60s)",
    )


# --------------------------------------------------------------------------
# 2. hypergradient oracle agreement
# --------------------------------------------------------------------------


def test_criterion_2_reverse_matches_fd_oracle():
    start = time.perf_counter()
    quad = make_quadratic([[2.0, -0.7], [0.4, 1.5]], 1.0, [1.0, -0.5])
    softmax = make_meta_feature_softmax(5, 6, 3, Regularizer.l2(0.1))
    mlp = make_meta_init_mlp(5, 4, 3, reg=Regularizer.l2(0.05))
    setups = [
        ("quadratic", quad, Paradigm.META_FEATURE, None, 0.2, 1e-4),
        ("softmax", softmax, Paradigm.META_FEATURE, _episode(0), 0.5, 1e-4),
        ("mlp", mlp, Paradigm.META_INIT, _episode(3), 0.3, 1e-4),
    ]
    worst = {}
    for label, problem, paradigm, task, step, tol in setups:
        cfg = InnerConfig(steps=3, step_size=step)
        errs = []
        for trial in range(10):
            gen = RngStream(trial, 500).generator()
            x = ParamVector(
                problem.x_layout, 0.4 * gen.standard_normal(problem.x_layout.dim)
            )
            y0 = init_task_params(paradigm, problem, x, RngStream(trial + 1))
            traj = run_inner(InnerRule.GD, cfg, problem, x, y0, task)
            rev = hypergrad_reverse(problem, paradigm, traj, x, task)
            fd = fd_hypergradient(
                problem, paradigm, InnerRule.GD, cfg, x, trial + 1, task
            )
            errs.append(_rel_err(rev.grad_x, fd))
        worst[label] = (max(errs), tol)
    elapsed = time.perf_counter() - start

    ok = all(err <= tol for err, tol in worst.values()) and elapsed < 60.0
    summary = ", ".join(
        f"{label} {err:.2e} (tol {tol:g})" for label, (err, tol) in worst.items()
    )
    _report(
        2,
        ok,
        f"reverse vs fd oracle over 10 random x per problem: {summary}; "
        f"{elapsed:.1f}s (< 60s)",
    )


# --------------------------------------------------------------------------
# 3. analytic convergence on the quadratic
# --------------------------------------------------------------------------


def test_criterion_3_quadratic_analytic_convergence():
    prob = make_quadratic(2.0, 1.0, 1.0)
    rev_errs, imp_errs = [], []
    for x_val in (2.0, -1.3):
        x = ParamVector(prob.x_layout, [x_val])
        analytic = analytic_quadratic_hypergrad(2.0, 1.0, 1.0, x)
        cfg = InnerConfig(steps=200, step_size=0.25)
        y0 = init_task_params(Paradigm.META_FEATURE, prob, x, RngStream(7))
        traj = run_inner(InnerRule.GD, cfg, prob, x, y0, None)
        rev = hypergrad_reverse(prob, Paradigm.META_FEATURE, traj, x, None)
        rev_errs.append(_rel_err(rev.grad_x, analytic))
        imp = hypergrad_implicit(
            prob, Paradigm.META_FEATURE, x, traj.y_final, None, Implicit(cg_tol=1e-10)
        )
        imp_errs.append(_rel_err(imp.grad_x, analytic))

    ok = max(rev_errs) <= 1e-3 and max(imp_errs) <= 1e-6
    _report(
        3,
        ok,
        f"reverse T=200 s=0.25 err {max(rev_errs):.2e} (tol 1e-3); "
        f"implicit cg_tol=1e-10 err {max(imp_errs):.2e} (tol 1e-6)",
    )


# --------------------------------------------------------------------------
# 4. structural identities
# --------------------------------------------------------------------------


def test_criterion_4_structural_identities():
    gaps = {}

    # truncated with the full window reproduces the full reverse sweep
    softmax = make_meta_feature_softmax(5, 6, 3, Regularizer.l2(0.1))
    task = _episode(0)
    gen = RngStream(0, 501).generator()
    x = ParamVector(softmax.x_layout, 0.5 * gen.standard_normal(30))
    cfg = InnerConfig(steps=4, step_size=0.5)
    y0 = init_task_params(Paradigm.META_FEATURE, softmax, x, RngStream(1))
    traj = run_inner(InnerRule.GD, cfg, softmax, x, y0, task)
    full = hypergrad_reverse(softmax, Paradigm.META_FEATURE, traj, x, task)
    trunc = hypergrad_truncated(softmax, Paradigm.META_FEATURE, traj, x, task, k=4)
    gaps["trhg_k_equals_t"] = ((full.grad_x - trunc.grad_x).inf_norm(), 1e-12)

    # aggregated inner dynamics with alpha=1 reduce to plain descent
    cfg_bda = InnerConfig(steps=4, step_size=0.5, rule=InnerRule.BDA, bda_alpha=1.0)
    traj_bda = run_inner(InnerRule.BDA, cfg_bda, softmax, x, y0, task)
    bda_gap = max(
        (a - b).inf_norm() for a, b in zip(traj_bda.iterates, traj.iterates)
    )
    gaps["bda_alpha1_equals_gd"] = (bda_gap, 1e-12)

    # a zero log-diagonal warp is the identity preconditioner
    mlp = make_meta_init_mlp(5, 4, 3, reg=Regularizer.l2(0.05))
    task_mlp = _episode(3)
    x_init = ParamVector(
        mlp.x_layout, 0.4 * RngStream(2, 502).generator().standard_normal(39)
    )
    layout = mlp.x_layout
    for name, length in required_x_segments(InnerRule.WARP_GRAD_DIAG, mlp.y_layout):
        layout = layout.extended(name, length)
    x_warp = ParamVector(layout, np.concatenate([x_init.values, np.zeros(39)]))
    y0_mlp = init_task_params(Paradigm.META_INIT, mlp, x_init, RngStream(3))
    cfg_mlp = InnerConfig(steps=4, step_size=0.3)
    cfg_warp = InnerConfig(steps=4, step_size=0.3, rule=InnerRule.WARP_GRAD_DIAG)
    traj_gd = run_inner(InnerRule.GD, cfg_mlp, mlp, x_init, y0_mlp, task_mlp)
    traj_warp = run_inner(
        InnerRule.WARP_GRAD_DIAG, cfg_warp, mlp, x_warp, y0_mlp, task_mlp
    )
    warp_traj_gap = max(
        (a - b).inf_norm() for a, b in zip(traj_warp.iterates, traj_gd.iterates)
    )
    g_gd = hypergrad_reverse(mlp, Paradigm.META_INIT, traj_gd, x_init, task_mlp)
    g_warp = hypergrad_reverse(mlp, Paradigm.META_INIT, traj_warp, x_warp, task_mlp)
    warp_grad_gap = float(
        np.max(np.abs(g_gd.grad_x.segment("init") - g_warp.grad_x.segment("init")))
    )
    gaps["warp0_equals_gd"] = (max(warp_traj_gap, warp_grad_gap), 1e-9)

    # with zero inner curvature the first-order shortcut is already exact
    zc = make_zero_curvature([0.4, -0.8, 0.3], [1.0, 0.5, -0.2])
    x_zc = ParamVector(zc.x_layout, [0.6, -0.1, 0.9])
    y0_zc = init_task_params(Paradigm.META_INIT, zc, x_zc, RngStream(4))
    cfg_zc = InnerConfig(steps=3, step_size=0.3)
    traj_zc = run_inner(InnerRule.GD, cfg_zc, zc, x_zc, y0_zc, None)
    rev_zc = hypergrad_reverse(zc, Paradigm.META_INIT, traj_zc, x_zc, None)
    fo_zc = hypergrad_first_order(zc, Paradigm.META_INIT, x_zc, traj_zc.y_final, None)
    gaps["first_order_no_curvature"] = (
        (rev_zc.grad_x - fo_zc.grad_x).inf_norm(),
        1e-10,
    )

    ok = all(gap <= tol for gap, tol in gaps.values())
    summary = ", ".join(f"{k} {v:.1e} (tol {t:g})" for k, (v, t) in gaps.items())
    _report(4, ok, summary)


# --------------------------------------------------------------------------
# 5. darts estimator order check
# --------------------------------------------------------------------------


def test_criterion_5_darts_order():
    # on the softmax problem the error against the delta->0 limit must shrink
    # about fourfold per halving of delta
    softmax = make_meta_feature_softmax(5, 6, 3, Regularizer.l2(0.1))
    task = _episode(0)
    gen = RngStream(0, 503).generator()
    x = ParamVector(softmax.x_layout, 0.5 * gen.standard_normal(30))
    step = 0.5
    cfg = InnerConfig(steps=3, step_size=step)
    y0 = init_task_params(Paradigm.META_FEATURE, softmax, x, RngStream(1))
    y_t = run_inner(InnerRule.GD, cfg, softmax, x, y0, task).y_final

    v = softmax.grad_y(x, y_t, task, Split.VAL)
    target = softmax.grad_x(x, y_t, task, Split.VAL) - step * softmax.cross_hvp(
        x, y_t, task, Split.TRAIN, v
    )
    errs = []
    for delta in (0.08, 0.04, 0.02, 0.01):
        est = hypergrad_darts(
            softmax, Paradigm.META_FEATURE, x, y_t, task, delta=delta, step_size=step
        )
        errs.append((est.grad_x - target).norm())
    ratios = [a / b for a, b in zip(errs, errs[1:])]

    # on the quadratic the curvature is constant, so the central difference
    # is exact and the estimate equals the one-step reverse gradient
    quad = make_quadratic([[2.0, -0.7], [0.4, 1.5]], 1.0, [1.0, -0.5])
    xq = ParamVector(quad.x_layout, RngStream(5, 504).generator().standard_normal(2))
    y_star = quad.y_star(xq)
    traj1 = run_inner(InnerRule.GD, InnerConfig(1, 0.3), quad, xq, y_star, None)
    rev1 = hypergrad_reverse(quad, Paradigm.META_FEATURE, traj1, xq, None)
    est1 = hypergrad_darts(
        quad, Paradigm.META_FEATURE, xq, y_star, None, delta=0.3, step_size=0.3
    )
    quad_gap = (est1.grad_x - rev1.grad_x).inf_norm()

    ok = all(3.0 <= r <= 5.0 for r in ratios) and quad_gap <= 1e-8
    _report(
        5,
        ok,
        f"halving ratios {[f'{r:.2f}' for r in ratios]} within [3, 5]; "
        f"quadratic gap {quad_gap:.1e} (tol 1e-8)",
    )


# --------------------------------------------------------------------------
# 6. meta-learning efficacy
# --------------------------------------------------------------------------


def test_criterion_6_maml_beats_untrained_baseline():
    start = time.perf_counter()
    baselines, trained = [], []
    for seed in range(5):
        cfg = ExperimentConfig.from_dict(
            {
                "data": {
                    "num_classes": 20,
                    "dim": 8,
                    "cluster_spread": 10.0,
                    "noise_sd": 0.5,
                    "way": 5,
                    "shot": 1,
                    "query": 15,
                    "batch_size": 4,
                },
                "problem": {"kind": "mlp", "hidden": 16},
                "inner": {"steps": 5, "step_size": 0.01},
                "meta_opt": {"kind": "momentum", "lr": 0.01},
                "run": {
                    "method": "MAML",
                    "meta_iterations": 500,
                    "eval_every": 10**9,
                    "eval_tasks": 100,
                    "seed": seed,
                },
            }
        )
        exp, state = build_experiment(cfg)
        _, acc_before = meta_evaluate(exp, state, 100, round_index=0)
        state, _ = meta_train(exp, state)
        _, acc_after = meta_evaluate(exp, state, 100, round_index=0)
        baselines.append(acc_before)
        trained.append(acc_after)
    elapsed = time.perf_counter() - start

    gap = float(np.mean(trained) - np.mean(baselines))
    ok = gap >= 0.15 and elapsed < 300.0
    _report(
        6,
        ok,
        f"5-seed mean accuracy {np.mean(trained):.3f} vs untrained "
        f"{np.mean(baselines):.3f}, gap {100 * gap:.1f} pts (>= 15); "
        f"{elapsed:.1f}s (< 300s)",
    )


# --------------------------------------------------------------------------
# 7. determinism
# --------------------------------------------------------------------------


def test_criterion_7_determinism(tmp_path):
    raw = {
        "data": {
            "num_classes": 8,
            "dim": 6,
            "way": 3,
            "shot": 1,
            "query": 4,
            "batch_size": 4,
        },
        "problem": {"kind": "mlp", "hidden": 4, "reg": "l2", "reg_coef": 0.05},
        "inner": {"steps": 3, "step_size": 0.05},
        "meta_opt": {"kind": "momentum", "lr": 0.01},
        "run": {
            "method": "MAML",
            "meta_iterations": 6,
            "eval_every": 2,
            "eval_tasks": 6,
            "seed": 12,
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))

    outs = [tmp_path / name for name in ("serial_a", "serial_b", "pooled")]
    assert entry(["run", "--config", str(cfg_path), "--out", str(outs[0])]) == 0
    assert entry(["run", "--config", str(cfg_path), "--out", str(outs[1])]) == 0
    assert (
        entry(
            ["run", "--config", str(cfg_path), "--out", str(outs[2]), "--threads", "4"]
        )
        == 0
    )

    serial_a = (outs[0] / "metrics.jsonl").read_bytes()
    serial_b = (outs[1] / "metrics.jsonl").read_bytes()
    byte_identical = serial_a == serial_b

    numeric_gap = 0.0
    rec_s = [json.loads(r) for r in serial_a.decode().splitlines()]
    rec_p = [
        json.loads(r)
        for r in (outs[2] / "metrics.jsonl").read_text().splitlines()
    ]
    assert len(rec_s) == len(rec_p) == 6
    for a, b in zip(rec_s, rec_p):
        for key in a:
            va, vb = a[key], b[key]
            if isinstance(va, float) and isinstance(vb, float):
                numeric_gap = max(numeric_gap, abs(va - vb))
            else:
                assert va == vb, key

    ok = byte_identical and numeric_gap <= 1e-12
    _report(
        7,
        ok,
        f"serial reruns byte-identical: {byte_identical}; concurrent vs serial "
        f"max record gap {numeric_gap:.1e} (tol 1e-12)",
    )
