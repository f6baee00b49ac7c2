"""bilevelopt benchmark: meta-training and evaluation throughput.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed becomes the experiments' run.seed, which fixes the synthetic
classes, the training and held-out episodes and the initial parameters.
Before timing, a correctness gate checks each preset's hypergradient
against the finite-difference oracle. The run then repeats rounds (see
workloads.py) for S seconds. With --trace 1 the first half is untraced and
the second half traced, and the per-layer metrics are reported.

Times are reported at a reference machine speed (see SpeedProbe); the raw
figures are in the info line.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the run's
provenance and per-preset details. Exits 2 without a result when the
library sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_PROBES = 7
GATE_TASK_STREAM = 0x6A7E  # stream of the gate's fixed task, apart from the trainer's
GATE_Y0_SEED = 7


class SpeedProbe:
    """Times a fixed kernel that uses no library code: small numpy calls
    driven from Python, the same kind of work as bilevelopt's, mixed with
    a few passes over a larger vector.

    On a shared machine, other tenants can slow a process by up to 2x for
    seconds at a time, and the kernel slows with it. Each timed call is divided by
    the mean of the kernel times just before and just after it and
    multiplied by REF_S, which expresses it at the speed where the kernel
    takes REF_S. On its own, the small-call part slows more than the
    library does when the machine is busy, and the vector part less; the
    mix follows the library more closely than either. A change to
    bilevelopt cannot change the kernel.
    """

    REF_S = 0.004

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.standard_normal((16, 8))
        self._b = rng.standard_normal((8, 5))
        self._v = rng.standard_normal(4000)
        self.samples: list[float] = []
        self._last_end = -math.inf

    def sample(self) -> float:
        np, a, b, v = self._np, self._a, self._b, self._v
        start = time.perf_counter()
        acc = 0.0
        for _ in range(800):
            acc += float(np.exp(a @ b).sum())
        for _ in range(65):
            acc += float(np.sort(v).sum() + (v * v).sum())
        self._last_end = time.perf_counter()
        t = self._last_end - start
        self.samples.append(t)
        return t

    def timed(self, fn, *args, **kwargs):
        """(result, raw seconds, seconds at reference speed) of one call."""
        # the sample after the previous call serves as this call's `before`
        # when nothing ran in between
        fresh = time.perf_counter() - self._last_end < 0.01
        before = self.samples[-1] if fresh else self.sample()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - start
        return result, raw, raw * self.REF_S * 2 / (before + self.sample())


@dataclass
class Ops:
    """Operations attempted and failed: meta-iterations, evaluated tasks and
    correctness checks."""

    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, what: str, n: int = 1):
        self.attempted += n
        if not ok:
            self.failed += n
            print(f"FAILED ({n} ops): {what}", file=sys.stderr)


@dataclass
class Round:
    """Per-preset seconds of one round, each as (raw, at reference speed)."""

    train_s: dict[str, tuple[float, float]] = field(default_factory=dict)
    eval_s: dict[str, tuple[float, float]] = field(default_factory=dict)
    iter_ms: dict[str, list[float]] = field(default_factory=dict)  # at reference speed
    span_count: int = 0  # spans recorded by the end of this round, when traced


def x_digest(x) -> str:
    return hashlib.sha256(x.values.tobytes()).hexdigest()[:16]


class Runner:
    def __init__(self, workload, seed: int, probe: SpeedProbe):
        from bilevelopt import ExperimentConfig, build_experiment
        from workloads import preset_config

        self.w = workload
        self.seed = seed
        self.probe = probe
        self.ops = Ops()
        self.prepared = [
            (p, *build_experiment(ExperimentConfig.from_dict(preset_config(workload, p, seed))))
            for p in workload.presets
        ]
        # preset -> (x digest, final ul_loss, eval loss, eval accuracy) of its
        # first round; every later round, traced or not, must repeat it exactly
        self.reference: dict[str, tuple] = {}
        self.gate_report: dict[str, dict] = {}

    def gate(self):
        """Each preset's hypergradient on one fixed task at its initial x
        against verify's finite-difference oracle over the whole inner loop."""
        from bilevelopt import (
            BilevelError,
            Reverse,
            RngStream,
            compute_hypergradient,
            fd_hypergradient,
            init_task_params,
            needs_full_trajectory,
            run_inner,
            sample_task_batch,
        )

        for name, exp, state in self.prepared:
            spec = replace(exp.episode_spec, batch_size=1)
            task = sample_task_batch(
                exp.source, spec, RngStream(self.seed, GATE_TASK_STREAM)
            ).tasks[0]
            x, cfg = state.x, exp.inner_config
            exact = isinstance(exp.method, Reverse)
            # the tolerance `bilevelopt verify` applies to this kind of problem
            tol = 1e-4 if exp.problem.exact_hvp else 1e-2
            try:
                y0 = init_task_params(exp.paradigm, exp.problem, x, RngStream(GATE_Y0_SEED))
                traj = run_inner(
                    cfg.rule, cfg, exp.problem, x, y0, task,
                    record=needs_full_trajectory(exp.method),
                )
                res = compute_hypergradient(exp.method, exp.problem, exp.paradigm, traj, x, task)
                oracle = fd_hypergradient(
                    exp.problem, exp.paradigm, cfg.rule, cfg, x, GATE_Y0_SEED, task
                )
            except BilevelError as e:
                self.ops.check(False, f"gate {name}: {type(e).__name__}: {e}")
                continue
            err = (res.grad_x - oracle).norm() / max(oracle.norm(), 1e-12)
            ok = math.isfinite(err) and (err <= tol or not exact)
            self.ops.check(ok, f"gate {name}: relative error {err:.3e} vs tolerance {tol:g}")
            self.gate_report[name] = {
                "estimator": "exact" if exact else "approximate",
                "rel_err_vs_fd": err,
                "tolerance": tol if exact else None,
            }

    def run_rounds(self, seconds: float, rec=None) -> list[Round]:
        """Repeat rounds for at least `seconds` (at least one round)."""
        from bilevelopt import meta_evaluate, meta_train

        experiments = self.prepared
        train, evaluate = meta_train, meta_evaluate
        if rec is not None:
            from tracing import EVAL_ROOT, TRAIN_ROOT, traced_experiment

            experiments = [(p, traced_experiment(e, rec), s) for p, e, s in experiments]
            train = rec.wrap(TRAIN_ROOT, meta_train)
            evaluate = rec.wrap(EVAL_ROOT, meta_evaluate)
        rounds = []
        deadline = time.perf_counter() + seconds
        while not rounds or time.perf_counter() < deadline:
            rounds.append(self._round(experiments, train, evaluate, rec))
        return rounds

    def _round(self, experiments, train, evaluate, rec) -> Round:
        from bilevelopt import BilevelError
        from workloads import EVAL_ROUND

        r = Round()
        n_eval = self.w.eval_tasks_per_round
        trained = []
        for name, exp, state0 in experiments:
            if rec is not None:
                rec.phase, rec.preset = "train", name
            try:
                (state, records), raw, ref = self.probe.timed(train, exp, state0)
            except BilevelError as e:
                self.ops.check(False, f"{name}: training: {e}", self.w.iters_per_round + n_eval)
                continue
            r.train_s[name] = (raw, ref)
            r.iter_ms[name] = [m.wall_ms * ref / raw for m in records]
            for m in records:
                self.ops.check(
                    math.isfinite(m.ul_loss) and math.isfinite(m.mean_inner_final_loss),
                    f"{name}: non-finite training loss at meta-iteration {m.meta_iter}",
                )
            trained.append((name, exp, state, records[-1].ul_loss))

        for name, exp, state, ul_loss in trained:
            if rec is not None:
                rec.phase, rec.preset = "eval", name
            try:
                (loss, acc), raw, ref = self.probe.timed(
                    evaluate, exp, state, n_eval, round_index=EVAL_ROUND
                )
            except BilevelError as e:
                self.ops.check(False, f"{name}: evaluation: {e}", n_eval)
                continue
            r.eval_s[name] = (raw, ref)
            self.ops.check(
                math.isfinite(loss) and (acc is None or math.isfinite(acc)),
                f"{name}: non-finite evaluation result", n_eval,
            )
            outcome = (x_digest(state.x), ul_loss, loss, acc)
            first = self.reference.setdefault(name, outcome)
            if first is not outcome:
                self.ops.check(
                    outcome == first, f"{name}: round differs from the first: {outcome} vs {first}"
                )
        if rec is not None:
            r.span_count = len(rec.spans)
        return r


def pooled_rate(rounds: list[Round], secs: str, work_per_preset: int, raw: bool = False) -> float:
    """Work per second pooled over presets: each preset's work in a round
    over the median of its seconds across rounds."""
    by_preset: dict[str, list[float]] = {}
    for r in rounds:
        for p, times in getattr(r, secs).items():
            by_preset.setdefault(p, []).append(times[0 if raw else 1])
    medians = [statistics.median(ts) for ts in by_preset.values()]
    return len(medians) * work_per_preset / sum(medians) if medians else 0.0


def setup_times(workload: str, seed: int, probe: SpeedProbe) -> list[tuple[float, float]]:
    """(raw, at reference speed) seconds of cold set-ups, each in a fresh
    interpreter."""

    def one() -> float:
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, text=True, timeout=120, check=True,
        )
        return float(proc.stdout.split()[-1])

    out = []
    for _ in range(SETUP_PROBES):
        reported, raw, ref = probe.timed(one)
        out.append((reported, reported * ref / raw))
    return out


def machine(load: tuple[float, float, float]) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg_at_start": list(load),
    }


def preset_iteration_metrics(rounds: list[Round], presets) -> dict:
    out = {}
    for p in presets:
        ms = [v for r in rounds for v in r.iter_ms.get(p, [])]
        if not ms:
            continue
        p90 = statistics.quantiles(ms, n=10, method="inclusive")[-1] if len(ms) > 1 else ms[0]
        out[f"trainer.iter_ms_p50.{p}"] = {"value": statistics.median(ms), "unit": "ms"}
        out[f"trainer.iter_ms_p90.{p}"] = {"value": p90, "unit": "ms"}
        out[f"trainer.iter_samples.{p}"] = {"value": len(ms), "unit": "count"}
    return out


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "bilevelopt" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2

    load = os.getloadavg()
    # one BLAS thread: the matrices are tiny, and idle BLAS threads would
    # only compete with the benchmark for the machine's two processors
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    w = WORKLOADS[args.workload]
    probe = SpeedProbe()
    setup = setup_times(w.name, args.seed, probe)
    runner = Runner(w, args.seed, probe)
    runner.gate()

    untraced_s = args.seconds / 2 if args.trace else args.seconds
    first_untraced_probe = len(probe.samples)
    untraced = runner.run_rounds(untraced_s)
    train_rate = pooled_rate(untraced, "train_s", w.iters_per_round)

    info = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(load),
        "speed_probe": {
            "reference_s": SpeedProbe.REF_S,
            "median_s": statistics.median(probe.samples[first_untraced_probe:]),
        },
        "raw": {
            "train_iters_per_s": pooled_rate(untraced, "train_s", w.iters_per_round, raw=True),
            "eval_tasks_per_s": pooled_rate(
                untraced, "eval_s", w.eval_tasks_per_round, raw=True),
            "setup_s": statistics.median(raw for raw, _ in setup),
        },
        "setup_probe_s": [ref for _, ref in setup],
        "gate": runner.gate_report,
        "rounds_untraced": len(untraced),
        "preset_metrics": preset_iteration_metrics(untraced, w.presets),
        "presets": {
            p: {"final_ul_loss": ref[1], "final_x_sha256": ref[0],
                "eval_loss": ref[2], "eval_accuracy": ref[3]}
            for p, ref in runner.reference.items()
        },
    }

    if args.trace:
        import tracing

        rec = tracing.Recorder()
        first_traced_probe = len(probe.samples)
        with tracing.traced_entry_points(rec) as missing:
            traced = runner.run_rounds(args.seconds / 2, rec)
        # one factor for the whole traced phase: spans are not bracketed
        # by probes one by one
        speed = SpeedProbe.REF_S / statistics.median(probe.samples[first_traced_probe:])
        metrics = tracing.layer_metrics(
            rec,
            iters=w.iters_per_round * sum(len(r.train_s) for r in traced),
            eval_tasks=w.eval_tasks_per_round * sum(len(r.eval_s) for r in traced),
            time_scale=speed,
        )
        traced_rate = pooled_rate(traced, "train_s", w.iters_per_round)
        overhead = 100.0 * (train_rate - traced_rate) / train_rate if train_rate else 0.0
        metrics["trace.overhead_pct"] = (overhead, "%")
        for p, calls in tracing.oracle_calls_by_preset(rec).items():
            info["preset_metrics"][f"objectives.calls_per_iter.{p}"] = {
                "value": calls / (len(traced) * w.iters_per_round), "unit": "count"}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans_{w.name}.jsonl"
        rec.write(spans_file, rec.spans[: traced[0].span_count])
        info["spans_file"] = str(spans_file.relative_to(HERE.parent))
        info["rounds_traced"] = len(traced)
        info["unbound_entry_points"] = missing
    else:
        metrics = {
            "train_iters_per_s": (train_rate, "1/s"),
            "eval_tasks_per_s": (pooled_rate(untraced, "eval_s", w.eval_tasks_per_round), "1/s"),
            "setup_s": (statistics.median(ref for _, ref in setup), "s"),
        }

    ops = runner.ops
    info["failed_op_share"] = {
        "value": ops.failed / ops.attempted, "unit": "share", "base": ops.attempted}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
