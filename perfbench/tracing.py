"""Outside-in tracing of bilevelopt's layers for the traced benchmark run.

Nothing in the library is edited. Spans come from two places:

* a proxy BilevelObjective that forwards every oracle call to the real
  problem inside an `objectives.<oracle>` span;
* rebinding the public entry points that `trainer` and `hypergrad` look up
  in their own module namespace (episode sampling, the inner loop, the
  estimator dispatch, the transposed step products, CG and the meta step).

Spans are kept in memory and written out when the run ends. A span's self
time is its duration minus that of its direct children on the same thread;
the trainer's own time is taken as wall time minus the union of all child
spans, which stays correct when children run on pool threads.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter
from typing import NamedTuple

from bilevelopt import BilevelObjective, hypergrad, trainer

ORACLES = ("value", "grad_y", "grad_x", "hvp_yy", "cross_hvp")

TRAIN_ROOT = "trainer.meta_train"
EVAL_ROOT = "trainer.meta_evaluate"

# (module, attribute looked up at call time, span name)
ENTRY_POINTS = (
    (trainer, "sample_task_batch", "data.sample_task_batch"),
    (trainer, "init_task_params", "inner.init_task_params"),
    (trainer, "run_inner", "inner.run_inner"),
    (trainer, "compute_hypergradient", "hypergrad.compute_hypergradient"),
    (trainer, "meta_step", "meta_opt.meta_step"),
    (hypergrad, "step_transposed_jvps", "inner.step_transposed_jvps"),
    (hypergrad, "conjugate_gradient", "numerics.conjugate_gradient"),
)

# top-level spans of the trainer's loop that are not per-task work
_PER_ITERATION = ("data.sample_task_batch", "meta_opt.meta_step")


class Span(NamedTuple):
    name: str
    parent: str | None
    thread: int
    start: float
    end: float
    self_s: float
    phase: str
    preset: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Collects spans from any thread; `phase` and `preset` label what the
    benchmark is running and are only changed between library calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self.cg_iters: list[tuple[str, int]] = []  # (phase, iterations) per solve
        self.phase = ""
        self.preset = ""
        self._local = threading.local()

    def call(self, name, fn, *args, **kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1][0] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            if stack:
                stack[-1][1] += end - start
            # list.append is atomic under the interpreter lock
            self.spans.append(
                Span(name, parent, threading.get_ident(), start, end,
                     end - start - frame[1], self.phase, self.preset)
            )

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def wrap_hypergradient(self, fn):
        def traced(*args, **kwargs):
            res = self.call("hypergrad.compute_hypergradient", fn, *args, **kwargs)
            if res.cg_iters is not None:
                self.cg_iters.append((self.phase, res.cg_iters))
            return res

        return traced

    def write(self, path, spans: list[Span]):
        t0 = min((s.start for s in spans), default=0.0)
        with open(path, "w") as fh:
            for s in spans:
                fh.write(json.dumps({
                    "name": s.name, "parent": s.parent, "thread": s.thread,
                    "start_us": round((s.start - t0) * 1e6, 1),
                    "end_us": round((s.end - t0) * 1e6, 1),
                    "self_us": round(s.self_s * 1e6, 1),
                    "phase": s.phase, "preset": s.preset,
                }) + "\n")


class TracedObjective(BilevelObjective):
    """Forwards every oracle to `problem`, each call inside a span."""

    def __init__(self, problem: BilevelObjective, rec: Recorder):
        self._problem = problem
        self._rec = rec
        self.x_layout = problem.x_layout
        self.y_layout = problem.y_layout
        self.exact_hvp = problem.exact_hvp
        self.is_classifier = problem.is_classifier

    def value(self, *args):
        return self._rec.call("objectives.value", self._problem.value, *args)

    def grad_y(self, *args):
        return self._rec.call("objectives.grad_y", self._problem.grad_y, *args)

    def grad_x(self, *args):
        return self._rec.call("objectives.grad_x", self._problem.grad_x, *args)

    def hvp_yy(self, *args):
        return self._rec.call("objectives.hvp_yy", self._problem.hvp_yy, *args)

    def cross_hvp(self, *args):
        return self._rec.call("objectives.cross_hvp", self._problem.cross_hvp, *args)

    def predict(self, *args):
        return self._rec.call("objectives.predict", self._problem.predict, *args)

    def __getattr__(self, name):
        return getattr(self._problem, name)


def traced_experiment(exp, rec: Recorder):
    return replace(exp, problem=TracedObjective(exp.problem, rec))


@contextmanager
def traced_entry_points(rec: Recorder):
    """Rebind the entry points for the duration of the block; yields the
    names of those the library no longer has, whose time then falls to
    their caller."""
    saved = []
    missing = []
    try:
        for module, attr, span in ENTRY_POINTS:
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module.__name__}.{attr}")
                continue
            saved.append((module, attr, fn))
            if attr == "compute_hypergradient":
                setattr(module, attr, rec.wrap_hypergradient(fn))
            else:
                setattr(module, attr, rec.wrap(span, fn))
        yield missing
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(
    rec: Recorder, iters: int, eval_tasks: int, time_scale: float = 1.0
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced phase as name -> (value, unit).

    Training figures are per meta-iteration over `iters` iterations pooled
    across presets; evaluation figures are per task over `eval_tasks`.
    Times are multiplied by `time_scale`.
    """
    train = [s for s in rec.spans if s.phase == "train"]
    roots = [s for s in train if s.name == TRAIN_ROOT]
    children = [s for s in train if s.name != TRAIN_ROOT]
    wall = sum(s.end - s.start for s in roots)
    covered = _union_length((s.start, s.end) for s in children)

    def self_ms(key: str) -> float:
        """Self time per iteration of the spans named `key`, or of all the
        spans of layer `key`."""
        return 1e3 * sum(s.self_s for s in children if key in (s.name, s.layer)) / iters

    per_task = sum(
        s.end - s.start
        for s in children
        if s.parent in (None, TRAIN_ROOT) and s.name not in _PER_ITERATION
    )
    out = {
        "trainer.self_ms_per_iter": (1e3 * (wall - covered) / iters, "ms"),
        "trainer.worker_busy_ratio": (per_task / wall, "ratio"),
    }
    for key, name in (
        ("data.sample_task_batch", "data.sample_task_batch.ms_per_iter"),
        ("inner", "inner.self_ms_per_iter"),
        ("inner.step_transposed_jvps", "inner.step_transposed_jvps.self_ms_per_iter"),
        ("hypergrad", "hypergrad.self_ms_per_iter"),
        ("numerics.conjugate_gradient", "numerics.conjugate_gradient.self_ms_per_iter"),
        ("meta_opt.meta_step", "meta_opt.meta_step.ms_per_iter"),
    ):
        out[name] = (self_ms(key), "ms")

    solves = [n for phase, n in rec.cg_iters if phase == "train"]
    out["numerics.cg_solves_per_iter"] = (len(solves) / iters, "count")
    # 0 when the workload runs no CG solve; the solve count above is its base
    out["numerics.cg_iters_per_solve"] = (sum(solves) / len(solves) if solves else 0.0, "count")

    for oracle in ORACLES:
        calls = [s.self_s for s in children if s.name == f"objectives.{oracle}"]
        out[f"objectives.{oracle}.calls_per_iter"] = (len(calls) / iters, "count")
        out[f"objectives.{oracle}.us_per_call"] = (
            1e6 * sum(calls) / len(calls) if calls else 0.0, "us")

    ev = [s for s in rec.spans if s.phase == "eval" and s.name != EVAL_ROOT]
    for layer in ("data", "inner", "objectives"):
        busy = sum(s.self_s for s in ev if s.layer == layer)
        out[f"eval.{layer}.us_per_task"] = (1e6 * busy / eval_tasks, "us")
    return {
        name: (value * time_scale if unit in ("ms", "us") else value, unit)
        for name, (value, unit) in out.items()
    }


def oracle_calls_by_preset(rec: Recorder) -> dict[str, int]:
    """Training-phase calls of the five oracles, per preset."""
    names = {f"objectives.{o}" for o in ORACLES}
    counts: dict[str, int] = {}
    for s in rec.spans:
        if s.phase == "train" and s.name in names:
            counts[s.preset] = counts.get(s.preset, 0) + 1
    return counts
