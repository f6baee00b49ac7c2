"""Compare two checkouts on one perfbench workload in one process.

    python tests/bench_inproc.py BEFORE AFTER --workload feature_second_order \
        --rounds 600 --seed 7

BEFORE and AFTER are two checkouts of the repository. BEFORE's
src/bilevelopt is imported as `bilevelopt`; AFTER's is copied into a
temporary directory as the package `bilevelopt_after` and imported from
there, which works because every import inside the package is relative.
Both build the workload's presets from BEFORE's perfbench/workloads.py.

Before timing, each preset trains one round and evaluates its trained
state in both trees, and the script stops unless the final x bytes, the
last ul_loss and the evaluation result are equal. It then runs `--rounds`
rounds, each a meta_train and a meta_evaluate of every preset in each
tree, BEFORE first in even rounds and AFTER first in odd ones. Timing both
trees in one process, a round apart, keeps the drift between processes
out of the ratios. It prints, per preset, the median seconds of each tree
and the ratio AFTER / BEFORE for meta_train and meta_evaluate, then the
same for the round sums over presets.

It reads no machine setting and writes only its temporary directory.
pytest does not collect it.
"""

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("before", "after")
ALIAS = "bilevelopt_after"


def load_trees(before: Path, after: Path, tmp: Path) -> dict:
    sys.path[:0] = [str(before / "src"), str(before / "perfbench"), str(tmp)]
    shutil.copytree(after / "src" / "bilevelopt", tmp / ALIAS)
    return {
        "before": importlib.import_module("bilevelopt"),
        "after": importlib.import_module(ALIAS),
    }


def prepare(lib, workload, seed: int) -> dict:
    from workloads import preset_config

    return {
        p: lib.build_experiment(lib.ExperimentConfig.from_dict(preset_config(workload, p, seed)))
        for p in workload.presets
    }


def one_round(lib, experiments: dict, n_eval: int, eval_round: int) -> dict:
    """preset -> (train seconds, eval seconds, outcome) of one round."""
    out = {}
    for name, (exp, state0) in experiments.items():
        start = time.perf_counter()
        state, records = lib.meta_train(exp, state0)
        mid = time.perf_counter()
        result = lib.meta_evaluate(exp, state, n_eval, round_index=eval_round)
        end = time.perf_counter()
        out[name] = (mid - start, end - mid, (state.x.values.tobytes(), records[-1].ul_loss, result))
    return out


def check_equal(libs: dict, experiments: dict, n_eval: int, eval_round: int):
    outcomes = {side: one_round(libs[side], experiments[side], n_eval, eval_round) for side in SIDES}
    for name in outcomes["before"]:
        got = {side: outcomes[side][name][2] for side in SIDES}
        if got["before"] != got["after"]:
            raise SystemExit(f"{name}: the trees differ in final x, ul_loss or evaluation")


def summarize(times: dict, presets):
    def line(label, kind, before, after):
        b, a = statistics.median(before), statistics.median(after)
        print(f"{label:<12} {kind:<9} {1e3 * b:>11.3f} {1e3 * a:>11.3f} {a / b:>8.4f}")

    print(f"{'preset':<12} {'phase':<9} {'before ms':>11} {'after ms':>11} {'ratio':>8}")
    for k, kind in enumerate(("train", "evaluate")):
        for name in presets:
            line(name, kind, *([r[name][k] for r in times[side]] for side in SIDES))
        sums = ([sum(r[name][k] for name in presets) for r in times[side]] for side in SIDES)
        line("round sum", kind, *sums)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        libs = load_trees(args.before.resolve(), args.after.resolve(), Path(tmp))
        from workloads import EVAL_ROUND, WORKLOADS

        workload = WORKLOADS[args.workload]
        n_eval = workload.eval_tasks_per_round
        experiments = {side: prepare(libs[side], workload, args.seed) for side in SIDES}
        check_equal(libs, experiments, n_eval, EVAL_ROUND)
        times = {side: [] for side in SIDES}
        for i in range(args.rounds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                times[side].append(one_round(libs[side], experiments[side], n_eval, EVAL_ROUND))
    summarize(times, workload.presets)
    return 0


if __name__ == "__main__":
    sys.exit(main())
