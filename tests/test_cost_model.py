"""Machine-independent cost counts at the benchmark's reference shape.

Call counts do not move with the host's speed, so they pin a cost that
timing alone could not resolve. A change that moves a count updates it here
and says why.
"""

import bilevelopt.hypergrad as hg
from bilevelopt import ExperimentConfig, build_experiment, meta_train

# the reference shape: 5-way 1-shot 15-query episodes over 20 synthetic
# classes of dimension 8, 5 inner steps, the softmax head on 16 features
REFERENCE = {
    "data": {
        "source": "synthetic", "num_classes": 20, "dim": 8, "cluster_spread": 10.0,
        "noise_sd": 0.5, "way": 5, "shot": 1, "query": 15, "batch_size": 4,
    },
    "problem": {"kind": "feature_softmax", "dim_feat": 16, "reg": "l2", "reg_coef": 0.01},
    "inner": {"steps": 5, "step_size": 0.05},
    "meta_opt": {"kind": "momentum", "lr": 0.01},
    "run": {"method": "HOAG", "meta_iterations": 1, "eval_every": 2, "seed": 2026},
}


def test_hoag_solve_applies_the_map_once_per_iteration_and_check(monkeypatch):
    solve, solves = hg.conjugate_gradient_batch, []

    def counted(apply, b, *args, **kwargs):
        calls = [0]

        def apply_counted(v):
            calls[0] += 1
            return apply(v)

        out = solve(apply_counted, b, *args, **kwargs)
        solves.append((calls[0], out[1].tolist()))
        return out

    monkeypatch.setattr(hg, "conjugate_gradient_batch", counted)
    meta_train(*build_experiment(ExperimentConfig.from_dict(REFERENCE)))
    # one solve of 4 rows; the longest row's 31 iterations plus one
    # true-residual check at each of the 4 iterations where a row stops
    assert solves == [(35, [29, 24, 28, 31])]
