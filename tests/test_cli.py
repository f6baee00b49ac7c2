"""Command-line behavior: artifacts, exit codes, overrides, and listings."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bilevelopt import (
    METHOD_NAMES,
    ExperimentConfig,
    build_experiment,
    meta_train,
    metrics_to_jsonl,
    read_params,
)
from bilevelopt.cli import entry


def _write_config(tmp_path, **updates):
    raw = {
        "data": {
            "num_classes": 8,
            "dim": 6,
            "way": 3,
            "shot": 1,
            "query": 4,
            "batch_size": 2,
        },
        "problem": {"kind": "mlp", "hidden": 4, "reg": "l2", "reg_coef": 0.05},
        "inner": {"steps": 2, "step_size": 0.05},
        "meta_opt": {"kind": "momentum", "lr": 0.01},
        "run": {"method": "MAML", "meta_iterations": 3, "eval_every": 2, "eval_tasks": 4},
    }
    for section, body in updates.items():
        raw.setdefault(section, {}).update(body)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_run_writes_all_artifacts(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    code = entry(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "metrics.jsonl").is_file()
    assert (out / "config.resolved.json").is_file()
    assert (out / "final_params.bin").is_file()

    lines = (out / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 3
    records = [json.loads(line) for line in lines]
    assert [r["meta_iter"] for r in records] == [0, 1, 2]
    assert records[1]["eval_post_adapt_accuracy"] is not None
    assert records[0]["eval_post_adapt_accuracy"] is None

    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["run"]["method"] == "MAML"
    assert resolved["inner"]["steps"] == 2

    params = read_params(out / "final_params.bin")
    assert params.layout.names == ("init",)
    assert "finished 3 meta-iterations" in capsys.readouterr().out


def test_run_overrides_take_effect(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    code = entry(
        [
            "run",
            "--config", str(cfg),
            "--out", str(out),
            "--set", "inner.steps=4",
            "--set", "run.meta_iterations=1",
        ]
    )
    assert code == 0
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["inner"]["steps"] == 4
    assert len((out / "metrics.jsonl").read_text().splitlines()) == 1


def test_run_threads_flag_overrides_config(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "serial", tmp_path / "pooled"
    assert entry(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert entry(
        ["run", "--config", str(cfg), "--out", str(out2), "--threads", "3"]
    ) == 0
    resolved = json.loads((out2 / "config.resolved.json").read_text())
    assert resolved["run"]["threads"] == 3
    m1 = [json.loads(r) for r in (out1 / "metrics.jsonl").read_text().splitlines()]
    m2 = [json.loads(r) for r in (out2 / "metrics.jsonl").read_text().splitlines()]
    for a, b in zip(m1, m2):
        assert abs(a["ul_loss"] - b["ul_loss"]) <= 1e-12


def test_missing_config_exits_2_and_names_the_path(tmp_path, capsys):
    missing = tmp_path / "nowhere.json"
    code = entry(["run", "--config", str(missing), "--out", str(tmp_path / "o")])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code = entry(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_bad_field_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, run={"method": "reptile"})
    code = entry(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "run.method" in capsys.readouterr().err


@pytest.mark.parametrize(
    "updates, section",
    [
        ({"data": {"num_classes": 1}}, "data"),
        ({"data": {"source": "directory", "root": "no/such/dir"}}, "data"),
        ({"data": {"source": "directory", "root": ".", "file_format": "tsv"}}, "data"),
        (
            {
                "problem": {"kind": "quadratic", "quad_a": [[1, 0], [0, 1]], "quad_b": 1.0},
                "run": {"method": "RHG"},
            },
            "problem",
        ),
        (
            {"problem": {"kind": "quadratic", "quad_a": {"rows": 2}}, "run": {"method": "RHG"}},
            "problem",
        ),
    ],
)
def test_values_rejected_while_building_exit_2(tmp_path, capsys, updates, section):
    cfg = _write_config(tmp_path, **updates)
    code = entry(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {section}: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("root", [{"run": 5}, [1]], ids=["section", "root"])
@pytest.mark.parametrize("flag", [["--set", "run.seed=1"], ["--threads", "2"]], ids=["set", "threads"])
def test_overriding_a_config_that_is_not_an_object_exits_2(tmp_path, capsys, root, flag):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(root))
    code = entry(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), *flag])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be" in err
    assert len(err.splitlines()) == 1


def test_an_output_directory_under_a_file_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    afile = tmp_path / "afile"
    afile.write_text("")
    code = entry(["run", "--config", str(cfg), "--out", str(afile / "sub")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create output directory: ")
    assert len(err.splitlines()) == 1


def test_an_unwritable_verify_report_exits_2(tmp_path, capsys):
    report = tmp_path / "nodir" / "r.jsonl"
    code = entry(["verify", "--profile", "exact", "--report", str(report)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write report: ")
    assert len(err.splitlines()) == 1


def test_an_unwritable_verify_report_exits_2_before_the_suite_runs(
    tmp_path, monkeypatch, capsys
):
    import bilevelopt.cli as cli

    def never(**_):
        raise AssertionError("the gradcheck suite ran before the report path was checked")

    monkeypatch.setattr(cli, "run_gradcheck_suite", never)
    code = entry(["verify", "--report", str(tmp_path / "nodir" / "r.jsonl")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write report: ")
    assert len(err.splitlines()) == 1


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_numeric_abort_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps(
            {
                "problem": {"kind": "quadratic"},
                "inner": {"steps": 60, "step_size": 1e6},
                "run": {"method": "RHG", "meta_iterations": 2},
            }
        )
    )
    out = tmp_path / "o"
    code = entry(["run", "--config", str(cfg_path), "--out", str(out)])
    assert code == 3
    assert "meta-iteration 0" in capsys.readouterr().err
    assert not (out / "metrics.jsonl").exists()


@pytest.mark.parametrize("prox_lambda", [0.0, 1.0])
def test_training_error_exits_3_without_a_traceback(tmp_path, capsys, prox_lambda):
    # implicit differentiation on the non-convex MLP meets negative curvature
    cfg = _write_config(
        tmp_path,
        run={
            "method": "custom",
            "paradigm": "meta_init",
            "inner_rule": "gd",
            "hypergrad_method": "implicit",
        },
        hypergrad={"prox_lambda": prox_lambda},
    )
    out = tmp_path / "o"
    code = entry(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "not positive definite" in err
    assert len(err.splitlines()) == 1
    assert not (out / "metrics.jsonl").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_an_abort_keeps_the_metrics_of_the_completed_meta_iterations(tmp_path, capsys):
    def config(meta_iterations):
        path = tmp_path / f"config{meta_iterations}.json"
        path.write_text(
            json.dumps(
                {
                    "problem": {"kind": "quadratic"},
                    "meta_opt": {"kind": "sgd", "lr": 1e100},
                    "run": {"method": "RHG", "meta_iterations": meta_iterations},
                }
            )
        )
        return str(path)

    aborted, finished = tmp_path / "aborted", tmp_path / "finished"
    assert entry(["run", "--config", config(6), "--out", str(aborted)]) == 3
    assert "meta-iteration 2" in capsys.readouterr().err
    assert entry(["run", "--config", config(2), "--out", str(finished)]) == 0
    kept = (aborted / "metrics.jsonl").read_bytes()
    assert len(kept.splitlines()) == 2
    assert kept == (finished / "metrics.jsonl").read_bytes()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_an_aborted_run_leaves_no_artifacts_of_an_earlier_run(tmp_path, capsys):
    def config(step_size):
        path = tmp_path / f"config{step_size:g}.json"
        path.write_text(
            json.dumps(
                {
                    "problem": {"kind": "quadratic"},
                    "inner": {"steps": 60, "step_size": step_size},
                    "run": {"method": "RHG", "meta_iterations": 3},
                }
            )
        )
        return str(path)

    out = tmp_path / "o1"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    assert entry(["run", "--config", config(0.25), "--out", str(out)]) == 0
    assert len((out / "metrics.jsonl").read_text().splitlines()) == 3
    assert entry(["run", "--config", config(1e6), "--out", str(out)]) == 3
    assert "meta-iteration 0" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]
    assert (out / "notes.txt").read_text() == "kept\n"


@pytest.mark.parametrize("prox_lambda", [0.0, 1.0])
def test_an_indefinite_implicit_solve_names_prox_lambda(tmp_path, capsys, prox_lambda):
    cfg = _write_config(
        tmp_path,
        run={
            "method": "custom",
            "paradigm": "meta_init",
            "inner_rule": "gd",
            "hypergrad_method": "implicit",
        },
        hypergrad={"prox_lambda": prox_lambda},
    )
    assert entry(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: run aborted at meta-iteration 0: <p, Ap> = ")
    assert "not positive definite" in err
    assert f"raise hypergrad.prox_lambda (now {prox_lambda:g})" in err
    assert len(err.splitlines()) == 1


def test_cg_solves_that_hit_the_cap_warn_once_per_meta_iteration(tmp_path, capsys):
    hoag = {"problem": {"kind": "feature_softmax", "dim_feat": 4}, "run": {"method": "HOAG"}}
    cfg = _write_config(tmp_path, hypergrad={"cg_max_iter": 1}, **hoag)
    out = tmp_path / "o"
    assert entry(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: meta-iteration {i}: 2 of 2 CG solves stopped at "
        "hypergrad.cg_max_iter before reaching hypergrad.cg_tol"
        for i in range(3)
    ]
    # the warnings leave the metrics as the library computed them
    raw = json.loads(cfg.read_text())
    _, records = meta_train(*build_experiment(ExperimentConfig.from_dict(raw)))
    assert (out / "metrics.jsonl").read_text() == metrics_to_jsonl(records)
    # with the default cap every solve converges, and nothing is printed
    cfg = _write_config(tmp_path, **hoag)
    assert entry(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_an_overflowing_warp_prints_its_error_line_alone(tmp_path):
    # the inner step's finiteness check reports the overflow, not numpy
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "problem": {"kind": "mlp", "loss": "mse"},
        "run": {"method": "MAML", "meta_iterations": 2},
    }))
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "bilevelopt", "run", "--config", str(cfg),
         "--out", str(tmp_path / "o"), "--set", "run.method=WarpGrad"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "error: run aborted at meta-iteration 1: "
        "inner step under rule warp_grad_diag produced non-finite y"
    ]


def test_training_error_names_the_failing_meta_iteration(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        problem={"kind": "mlp", "hidden": 16},
        run={
            "method": "custom",
            "paradigm": "meta_init",
            "inner_rule": "gd",
            "hypergrad_method": "implicit",
        },
        hypergrad={"prox_lambda": 0},
    )
    code = entry(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: run aborted at meta-iteration 0: <p, Ap> = ")
    assert len(err.splitlines()) == 1


def test_verify_passes_and_writes_report(tmp_path, capsys):
    report = tmp_path / "report.jsonl"
    code = entry(["verify", "--profile", "exact", "--report", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out
    lines = report.read_text().splitlines()
    assert lines
    assert all(json.loads(line)["pass"] for line in lines)


def test_verify_failure_exits_1(monkeypatch, capsys):
    import bilevelopt.hypergrad as hg
    from bilevelopt import HyperGradResult

    true_reverse = hg.hypergrad_reverse

    def skewed(problem, paradigm, traj, x, task):
        res = true_reverse(problem, paradigm, traj, x, task)
        return HyperGradResult(grad_x=1.2 * res.grad_x, ul_value=res.ul_value)

    monkeypatch.setattr(hg, "hypergrad_reverse", skewed)
    code = entry(["verify", "--profile", "exact"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_module_entry_point_runs_verify():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "bilevelopt", "verify", "--profile", "exact"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].endswith("checks passed")


def test_verify_rejects_unknown_profile():
    with pytest.raises(SystemExit) as exc:
        entry(["verify", "--profile", "strict"])
    assert exc.value.code == 2


def test_list_methods_prints_the_whole_table(capsys):
    assert entry(["list-methods"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.strip()]
    assert len(lines) == 10
    names = [line.split()[0] for line in lines]
    assert names == list(METHOD_NAMES)
    for line in lines:
        assert ("meta_init" in line) != ("meta_feature" in line)


def test_list_methods_output_is_stable(capsys):
    entry(["list-methods"])
    first = capsys.readouterr().out
    entry(["list-methods"])
    second = capsys.readouterr().out
    assert first == second


def test_serial_runs_are_byte_identical(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert entry(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert entry(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()
    assert (out1 / "final_params.bin").read_bytes() == (
        out2 / "final_params.bin"
    ).read_bytes()


def test_final_params_reflect_training(tmp_path):
    cfg = _write_config(tmp_path, run={"method": "Meta-SGD", "meta_iterations": 2})
    out = tmp_path / "out"
    assert entry(["run", "--config", str(cfg), "--out", str(out)]) == 0
    params = read_params(out / "final_params.bin")
    assert params.layout.names == ("init", "rates")
    assert np.all(np.isfinite(params.values))
