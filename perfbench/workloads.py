"""The benchmark's workloads at the frozen reference shape.

Reference shape: 5-way 1-shot 15-query episodes over 20 synthetic Gaussian
classes of dimension 8; 5 inner steps at step size 0.05; momentum meta
optimizer at lr 0.01. Meta-init presets use the tanh MLP (hidden 16, l2
0.01), meta-feature presets the softmax head on a shared feature map
(dim_feat 16, l2 0.01).

Every workload runs serially (run.threads=1). On a shared 2-core virtual
machine, FMAML and DARTS on the trainer's 2-thread pool moved 16% between
two sets of runs of the same code, even with the speed probe that steadies
the serial figures, so no usable bound could hold them.

A workload trains each of its presets for `iters_per_round` meta-iterations
from the same initial state, then evaluates every trained state on
`eval_tasks_per_round` held-out tasks. That is one round; a run repeats
rounds until its time is up, so every round does the same arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

DATA = {
    "source": "synthetic",
    "num_classes": 20,
    "dim": 8,
    "cluster_spread": 10.0,
    "noise_sd": 0.5,
    "way": 5,
    "shot": 1,
    "query": 15,
}
INNER = {"steps": 5, "step_size": 0.05}
META_OPT = {"kind": "momentum", "lr": 0.01}
MLP = {"kind": "mlp", "hidden": 16, "reg": "l2", "reg_coef": 0.01}
FEATURE_SOFTMAX = {"kind": "feature_softmax", "dim_feat": 16, "reg": "l2", "reg_coef": 0.01}

# round index of the held-out evaluation episodes; training never draws from
# the evaluation streams, so these tasks are unseen during training
EVAL_ROUND = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    presets: tuple[str, ...]
    batch_size: int
    iters_per_round: int
    eval_tasks_per_round: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "feature_second_order",
            "RHG, TRHG, HOAG and BDA: finite-difference cross_hvp does almost all "
            "the work, so analytic curvature oracles show here",
            ("RHG", "TRHG", "HOAG", "BDA"),
            batch_size=4,
            iters_per_round=1,
            eval_tasks_per_round=40,
        ),
        Workload(
            "init_unrolled",
            "MAML, MT-net, Meta-SGD and WarpGrad: many small oracle calls through "
            "the reverse sweep with hvp_yy; cross_hvp is a near-free zero",
            ("MAML", "MT-net", "Meta-SGD", "WarpGrad"),
            batch_size=4,
            iters_per_round=5,
            eval_tasks_per_round=25,
        ),
        Workload(
            "first_order_eval",
            "FMAML and DARTS at batch 16, then a long evaluation: forward oracles "
            "and episode sampling only, no curvature, reverse sweep or CG",
            ("FMAML", "DARTS"),
            batch_size=16,
            iters_per_round=2,
            eval_tasks_per_round=100,
        ),
    )
}


def preset_config(workload: Workload, preset: str, seed: int) -> dict:
    """Raw config dict for one preset of a workload, as a user would write it."""
    from bilevelopt import Paradigm, compose_named_method

    meta_init = compose_named_method(preset).paradigm is Paradigm.META_INIT
    return {
        "data": {**DATA, "batch_size": workload.batch_size},
        "problem": dict(MLP if meta_init else FEATURE_SOFTMAX),
        "inner": dict(INNER),
        "meta_opt": dict(META_OPT),
        "run": {
            "method": preset,
            "meta_iterations": workload.iters_per_round,
            # past the last iteration, so meta_train never evaluates itself
            "eval_every": workload.iters_per_round + 1,
            "eval_tasks": workload.eval_tasks_per_round,
            "seed": seed,
        },
    }
