"""Compare two checkouts on one perfbench workload in alternating pairs.

    python tests/bench_pairs.py BEFORE AFTER --workload init_unrolled \
        --pairs 10 --seconds 30 --seed-base 7000

BEFORE and AFTER are two checkouts of the repository. Pair i runs each
tree's own perfbench/run.py with seed seed_base + i, BEFORE first in even
pairs and AFTER first in odd ones, so neither side always runs on a
machine the other just warmed. For each run it keeps the result line (the
last line of stdout), the info line before it, and the child's minor and
major page faults and max RSS. Those come from os.wait4, which returns the
counters that this process's getrusage(RUSAGE_CHILDREN) gains when it
reaps that child; ru_maxrss is a maximum, so only wait4 gives it for one
child. The script prints each pair, then for every end-to-end metric of
AFTER's BENCHMARK.json and every preset's p50 ms per meta-iteration each
side's median and quartiles, the ratio of the medians, the gap of the
medians against BEFORE's interquartile range, and the pairs AFTER won;
rows for each side's minor faults and max RSS per run follow the metrics,
so a run that flips glibc's heap mode shows in the summary.

It reads only its own children's counters, changes no setting of the
machine and writes nothing under either checkout. pytest does not collect
it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("before", "after")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of tree's perfbench/run.py: its result and info lines and
    its own faults and max RSS."""
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    with tempfile.TemporaryFile(mode="w+") as err:
        proc = subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=err, text=True)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        lines = out.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            raise SystemExit(f"{tree} seed {seed} exited {proc.returncode}:\n{err.read()}")
    return {
        "seed": seed,
        "result": json.loads(lines[-1]),
        "info": json.loads(lines[-2])["info"],
        "minflt": usage.ru_minflt,
        "majflt": usage.ru_majflt,
        "maxrss_kb": usage.ru_maxrss,
    }


def figures(run: dict, presets) -> dict:
    """name -> value of every end-to-end metric, the run's own minor faults
    and max RSS, and every preset p50 of one run."""
    out = {name: m["value"] for name, m in run["result"]["metrics"].items()}
    out["minflt"], out["maxrss_kb"] = run["minflt"], run["maxrss_kb"]
    per_preset = run["info"]["preset_metrics"]
    for p in presets:
        key = f"trainer.iter_ms_p50.{p}"
        if key in per_preset:
            out[f"p50_ms.{p}"] = per_preset[key]["value"]
    return out


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs, better: dict):
    """Print each metric's medians, quartiles, ratio, gap and wins."""
    prefix = "trainer.iter_ms_p50."
    presets = [k[len(prefix):] for k in pairs[0]["after"]["info"]["preset_metrics"]
               if k.startswith(prefix)]
    table = [{side: figures(pair[side], presets) for side in SIDES} for pair in pairs]
    names = [n for n in table[0]["after"] if n in table[0]["before"]]
    print(f"\n{'metric':<28} {'before median [q1, q3]':>30} {'after median [q1, q3]':>30}"
          f" {'ratio':>7} {'gap/IQR':>8} {'wins':>6}")
    for name in names:
        higher = better.get(name, "lower") == "higher"
        cols = {side: [row[side][name] for row in table] for side in SIDES}
        q = {side: quartiles(cols[side]) for side in SIDES}
        ratio = q["after"][1] / q["before"][1] if q["before"][1] else float("nan")
        iqr = q["before"][2] - q["before"][0]
        gap = q["after"][1] - q["before"][1]
        wins = sum((a > b) if higher else (a < b) for a, b in zip(cols["after"], cols["before"]))
        print(
            f"{name:<28} {q['before'][1]:>12.4g} [{q['before'][0]:.4g}, {q['before'][2]:.4g}]"
            f" {q['after'][1]:>12.4g} [{q['after'][0]:.4g}, {q['after'][2]:.4g}]"
            f" {ratio:>7.4f} {gap / iqr if iqr else float('inf'):>8.2f} {wins:>3}/{len(table)}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed-base", type=int, required=True)
    args = parser.parse_args(argv)
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    spec = json.loads((trees["after"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    pairs = []
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {side: run_once(trees[side], args.workload, seed, args.seconds) for side in order}
        pairs.append(pair)
        cells = []
        for side in SIDES:
            run, m = pair[side], pair[side]["result"]["metrics"]
            cells.append(
                f"{side} train {m['train_iters_per_s']['value']:.1f} "
                f"eval {m['eval_tasks_per_s']['value']:.1f} setup {m['setup_s']['value']:.4f} "
                f"minflt {run['minflt']} majflt {run['majflt']} rss {run['maxrss_kb']} KB "
                f"failed {run['result']['failed']}"
            )
        print(f"pair {i} seed {seed} ({order[0]} first): " + " | ".join(cells), flush=True)
    summarize(pairs, better)
    return 0


if __name__ == "__main__":
    sys.exit(main())
