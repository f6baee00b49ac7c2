"""Smoke test of the benchmark: every workload at minimal length, untraced
and traced, emits each metric with its unit and fails no operation.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {
    "feature_second_order": ("RHG", "TRHG", "HOAG", "BDA"),
    "init_unrolled": ("MAML", "MT-net", "Meta-SGD", "WarpGrad"),
    "first_order_eval": ("FMAML", "DARTS"),
}

END_TO_END = {"train_iters_per_s": "1/s", "eval_tasks_per_s": "1/s", "setup_s": "s"}
PER_LAYER = {
    "trainer.self_ms_per_iter": "ms",
    "data.sample_task_batch.ms_per_iter": "ms",
    "inner.self_ms_per_iter": "ms",
    "hypergrad.self_ms_per_iter": "ms",
    "numerics.conjugate_gradient.self_ms_per_iter": "ms",
    "meta_opt.meta_step.ms_per_iter": "ms",
    "trainer.worker_busy_ratio": "ratio",
    "numerics.cg_iters_per_solve": "count",
    "eval.data.us_per_task": "us",
    "eval.inner.us_per_task": "us",
    "eval.objectives.us_per_task": "us",
    "trace.overhead_pct": "%",
    **{
        f"objectives.{o}.{m}": unit
        for o in ("value", "grad_y", "grad_x", "hvp_yy", "cross_hvp")
        for m, unit in (("calls_per_iter", "count"), ("us_per_call", "us"))
    },
}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_spec_lists_every_metric_and_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert e2e == END_TO_END
    assert PER_LAYER.items() <= layer.items()


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    info = json.loads(info_line)["info"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert info["failed_op_share"] == {
        "value": 0.0, "unit": "share", "base": result["attempted"]
    }
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }

    presets = WORKLOADS[workload]
    per_preset = ["trainer.iter_ms_p50", "trainer.iter_ms_p90", "trainer.iter_samples"]
    if trace:
        per_preset.append("objectives.calls_per_iter")
    assert set(info["preset_metrics"]) == {f"{m}.{p}" for m in per_preset for p in presets}
    assert set(info["presets"]) == set(presets)
    assert set(info["gate"]) == set(presets)
    for key in ("nproc", "python", "numpy", "blas", "blas_threads", "loadavg_at_start"):
        assert key in info["machine"]
    assert info["seed"] == 3

    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        if workload == "first_order_eval":
            assert m["objectives.cross_hvp.calls_per_iter"] == 0
            assert m["objectives.hvp_yy.calls_per_iter"] == 0
        if workload == "feature_second_order":
            oracle_ms = {
                o: m[f"objectives.{o}.calls_per_iter"] * m[f"objectives.{o}.us_per_call"] / 1e3
                for o in ("value", "grad_y", "grad_x", "hvp_yy", "cross_hvp")
            }
            layer_ms = [v for k, v in m.items() if k.endswith("ms_per_iter")]
            cross_ms = oracle_ms.pop("cross_hvp")
            assert cross_ms > max(layer_ms + list(oracle_ms.values()))


def test_exits_without_result_when_library_is_missing():
    bare = ROOT / "perfbench" / "out" / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(
                ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__")
            )
        proc = _run(bare, "init_unrolled", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
