"""Command-line front end.

Three subcommands:

  run           train from a JSON config, writing to --out metrics.jsonl
                (a line per completed meta-iteration, kept on exit 3),
                config.resolved.json and final_params.bin, first deleting
                those three files from --out; a meta-iteration whose
                implicit solves did not converge prints a warning line
  verify        run the gradcheck suite and print a summary table
  list-methods  print the ten built-in method compositions

Exit codes: 0 success; 1 verification failures; 2 bad configuration or
arguments, an unwritable --out or --report included; 3 training aborted by
any library error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path

from .errors import BilevelError
from .hypergrad import METHOD_NAMES, compose_named_method
from .params_io import write_params
from .trainer import (
    ExperimentConfig,
    _train_rounds,
    apply_overrides,
    build_experiment,
    metrics_to_jsonl,
)
from .verify import PROFILES, report_to_jsonl, run_gradcheck_suite

__all__ = ["entry", "main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilevelopt",
        description="bilevel optimization engine for gradient-based meta-learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train an experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the JSON config file")
    p_run.add_argument("--out", required=True, help="output directory for artifacts")
    p_run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config field by dotted path, e.g. inner.steps=10",
    )
    p_run.add_argument(
        "--threads",
        type=int,
        default=None,
        help="accepted for compatibility and ignored; tasks always run serially",
    )

    p_verify = sub.add_parser("verify", help="run the estimator gradcheck suite")
    p_verify.add_argument(
        "--profile",
        choices=tuple(PROFILES),
        default="all",
        help="problems to check: exact (quadratic, feature softmax, zero "
        "curvature), fd (the tanh MLP; the name is kept for compatibility) or all",
    )
    p_verify.add_argument(
        "--report", default=None, help="optional path for the JSONL report"
    )

    sub.add_parser("list-methods", help="print the built-in method table")
    return parser


def _cmd_run(args) -> int:
    config_path = Path(args.config)
    if not config_path.is_file():
        print(f"error: config file not found: {config_path}", file=sys.stderr)
        return 2
    try:
        raw = json.loads(config_path.read_text())
    except json.JSONDecodeError as e:
        print(f"error: {config_path}: invalid JSON: {e}", file=sys.stderr)
        return 2

    overrides = args.overrides
    if args.threads is not None:
        overrides = overrides + [f"run.threads={args.threads}"]
    try:
        raw = apply_overrides(raw, overrides)
        cfg = ExperimentConfig.from_dict(raw)
        exp, state = build_experiment(cfg)
    except BilevelError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"error: cannot create output directory: {e}", file=sys.stderr)
        return 2
    try:
        # an abort must not leave an earlier run's artifacts beside this one's
        for name in ("metrics.jsonl", "config.resolved.json", "final_params.bin"):
            (out_dir / name).unlink(missing_ok=True)
    except OSError as e:
        print(f"error: cannot write artifacts: {e}", file=sys.stderr)
        return 2
    done = 0
    try:
        for state, record in _train_rounds(exp, state):
            # one line per completed meta-iteration, so an abort keeps them
            try:
                with open(out_dir / "metrics.jsonl", "a" if done else "w") as metrics:
                    metrics.write(metrics_to_jsonl([record]))
            except OSError as e:
                print(f"error: cannot write artifacts: {e}", file=sys.stderr)
                return 2
            if record.cg_unconverged:
                print(
                    f"warning: meta-iteration {record.meta_iter}: "
                    f"{record.cg_unconverged} of {cfg.data.batch_size} CG solves stopped "
                    "at hypergrad.cg_max_iter before reaching hypergrad.cg_tol",
                    file=sys.stderr,
                )
            done += 1
    except BilevelError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3

    try:
        (out_dir / "config.resolved.json").write_text(
            json.dumps(cfg.to_dict(), indent=2) + "\n"
        )
        write_params(out_dir / "final_params.bin", state.x)
    except OSError as e:
        print(f"error: cannot write artifacts: {e}", file=sys.stderr)
        return 2
    print(
        f"finished {done} meta-iterations; "
        f"final ul_loss {record.ul_loss:.6f}; artifacts in {out_dir}"
    )
    return 0


def _cmd_verify(args) -> int:
    # opened first, so an unwritable path fails before the suite runs
    try:
        report = open(args.report, "w") if args.report else nullcontext()
    except OSError as e:
        print(f"error: cannot write report: {e}", file=sys.stderr)
        return 2
    with report:
        results = run_gradcheck_suite(profile=args.profile)
        if args.report:
            report.write(report_to_jsonl(results))
    width = max(len(r.metric) for r in results) if results else 0
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(
            f"{status}  {r.estimator:<12} {r.problem:<16} {r.rule:<14} "
            f"{r.metric:<{width}}  value={r.value:.3e} threshold={r.threshold:.3e}"
        )
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _cmd_list_methods() -> int:
    rows = []
    for name in METHOD_NAMES:
        c = compose_named_method(name)
        hg_name = type(c.hypergrad_method).__name__
        rows.append((name, c.paradigm.value, c.inner_rule.value, hg_name, c.notes))
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    for *cells, notes in rows:
        print("".join(f"{cell:<{w}}  " for cell, w in zip(cells, widths)) + notes)
    return 0


def entry(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_list_methods()


def main() -> None:
    sys.exit(entry())


if __name__ == "__main__":
    main()
