"""Time one cold set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Set-up is what a user pays before the first meta-iteration on every run:
importing bilevelopt, then ExperimentConfig.from_dict and build_experiment
for each of the workload's presets, including first-call costs inside
them. numpy is imported before the clock starts. Prints the seconds.
"""

import sys
import time
from pathlib import Path


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import numpy  # noqa: F401  -- a dependency, not part of bilevelopt's set-up

    from workloads import WORKLOADS, preset_config

    w = WORKLOADS[workload]
    start = time.perf_counter()
    from bilevelopt import ExperimentConfig, build_experiment

    for preset in w.presets:
        build_experiment(ExperimentConfig.from_dict(preset_config(w, preset, seed)))
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
