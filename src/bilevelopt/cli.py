"""Command-line front end.

Three subcommands:

  run           train from a JSON config, writing metrics.jsonl,
                config.resolved.json, and final_params.bin to --out
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
    apply_overrides,
    build_experiment,
    meta_train,
    metrics_to_jsonl,
)
from .verify import report_to_jsonl, run_gradcheck_suite

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
        choices=("exact", "fd", "all"),
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
        state, records = meta_train(exp, state)
    except BilevelError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3

    try:
        (out_dir / "metrics.jsonl").write_text(metrics_to_jsonl(records))
        (out_dir / "config.resolved.json").write_text(
            json.dumps(cfg.to_dict(), indent=2) + "\n"
        )
        write_params(out_dir / "final_params.bin", state.x)
    except OSError as e:
        print(f"error: cannot write artifacts: {e}", file=sys.stderr)
        return 2
    last = records[-1]
    print(
        f"finished {len(records)} meta-iterations; "
        f"final ul_loss {last.ul_loss:.6f}; artifacts in {out_dir}"
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
        composed = compose_named_method(name)
        rows.append(
            (
                name,
                composed.paradigm.value,
                composed.inner_rule.value,
                type(composed.hypergrad_method).__name__,
                composed.notes,
            )
        )
    name_w = max(len(r[0]) for r in rows)
    par_w = max(len(r[1]) for r in rows)
    rule_w = max(len(r[2]) for r in rows)
    hg_w = max(len(r[3]) for r in rows)
    for name, par, rule, hg_name, notes in rows:
        print(f"{name:<{name_w}}  {par:<{par_w}}  {rule:<{rule_w}}  {hg_name:<{hg_w}}  {notes}")
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
