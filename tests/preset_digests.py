"""Print the sha256 of every preset's artifacts and of the verify report.

For each preset at the benchmark's reference shape (test_cost_model's
REFERENCE), at batch 4 and 16, `bilevelopt run` trains 3 meta-iterations
with an evaluation on 50 tasks after each; one line gives the digests of
its metrics.jsonl and of its final x (final_params.bin). A last line gives
the digest of the `bilevelopt verify --profile all` report. A change meant
to move no number prints the same lines before and after it:

    PYTHONPATH=src python tests/preset_digests.py > digests.txt
    PYTHONPATH=src python tests/preset_digests.py --check digests.txt

With --check FILE it compares its lines with those a saved run wrote to
FILE, names every line that differs on stderr and exits 1 if any does.

pytest does not collect this script, and no digest is asserted anywhere:
float results may differ between BLAS builds.
"""

import argparse
import contextlib
import hashlib
import sys
import io
import json
import tempfile
from pathlib import Path

from bilevelopt import METHOD_NAMES, Paradigm, compose_named_method
from bilevelopt.cli import entry
from test_cost_model import BATCH_SIZES, MLP, REFERENCE

RUN = {"meta_iterations": 3, "eval_every": 1, "eval_tasks": 50, "seed": 7}


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return entry(list(argv))


def _config(name: str, batch_size: int) -> dict:
    raw = {
        **REFERENCE,
        "data": {**REFERENCE["data"], "batch_size": batch_size},
        "run": {**REFERENCE["run"], **RUN, "method": name},
    }
    if compose_named_method(name).paradigm is Paradigm.META_INIT:
        raw["problem"] = MLP
    return raw


def digest_lines():
    """Yield the line of each preset at each batch size, then the verify line."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in METHOD_NAMES:
            for b in BATCH_SIZES:
                config, out = tmp / "config.json", tmp / f"{name}-{b}"
                config.write_text(json.dumps(_config(name, b)))
                if _cli("run", "--config", str(config), "--out", str(out)) != 0:
                    raise SystemExit(f"{name} at batch {b} did not finish")
                yield (
                    f"{name:<9} batch {b:>2}  metrics {_sha(out / 'metrics.jsonl')}"
                    f"  x {_sha(out / 'final_params.bin')}"
                )
        report = tmp / "verify.jsonl"
        status = _cli("verify", "--profile", "all", "--report", str(report))
        yield f"verify (exit {status})  report {_sha(report)}"


def differing(lines, saved):
    """The label, such as "RHG batch 4", of every line that differs from the
    saved line at its place, or that only one of the two runs wrote."""
    labels = []
    for k in range(max(len(lines), len(saved))):
        line = lines[k] if k < len(lines) else None
        was = saved[k] if k < len(saved) else None
        if line != was:
            labels.append(" ".join((line or was).split()[:3]))
    return labels


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", metavar="FILE",
        help="compare with the lines a saved run wrote to FILE; exit 1 if any differs",
    )
    args = parser.parse_args(argv)
    lines = []
    for line in digest_lines():
        print(line, flush=True)
        lines.append(line)
    if args.check is None:
        return 0
    changed = differing(lines, Path(args.check).read_text().splitlines())
    for label in changed:
        print(f"differs from {args.check}: {label}", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
