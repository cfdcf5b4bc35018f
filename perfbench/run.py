"""Entry point of the repository benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold-miss --seed 1 --seconds 24 \\
        --trace 0

runs one workload against the program in ``src/`` through its public
API, checks the outputs against the reference oracles, and prints a
human-readable summary followed, as the last line, by one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, measured with tracing off; with
``--trace 1`` they are the per-layer ones from a traced run (see
``README.md``).  ``python3 perfbench/selftest.py`` checks the
benchmark's own arithmetic.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Workload name -> module implementing ``run(seed, seconds, trace, workdir)``.
WORKLOADS = {
    "cold-miss": "cold_miss",
    "hot-hit": "hot_hit",
    "train-fit": "train_fit",
    "od-batch": "od_batch",
}

#: Runnable, but left out of ``BENCHMARK.json`` (see ``README.md``): its
#: open-loop p99 follows the host's scheduling stalls, not the program.
UNDECLARED = ("hot-hit",)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {source}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    import common
    import stats

    workload = importlib.import_module(WORKLOADS[args.workload])
    workdir = common.Workdir(ROOT)
    try:
        outcome, layers = workload.run(args.seed, args.seconds,
                                       bool(args.trace), workdir)
    finally:
        workdir.cleanup()
    outcome.metrics["success_rate"] = outcome.ledger.success_rate
    outcome.metrics["peak_rss_mb"] = stats.peak_rss_mb()

    if args.trace:
        values = common.per_layer(outcome, layers)
        units = common.PER_LAYER
    else:
        values = {name: outcome.metrics[name] for name in common.END_TO_END}
        units = common.END_TO_END
    for note in outcome.notes:
        print(f"# {note}")
    for reason, count in sorted(outcome.ledger.reasons.items()):
        print(f"# FAILED x{count}: {reason}")
    for name, value in values.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.ledger.attempted,
        "failed": outcome.ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
