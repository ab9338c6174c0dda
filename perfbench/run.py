"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload {estimate,run,service,all} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Untraced runs (``--trace 0``) measure the end-to-end metrics for about
``--seconds`` seconds; traced runs (``--trace 1``) wrap each layer's entry
point and report the per-layer metrics instead.  One line per metric is
printed, then the result as one JSON object on the last line.  The exit code
is 0 when every output check passed, 1 when one failed, and 2 when there is
no program to measure next to this directory.  ``--workload all`` runs the
workloads one after another, each in its own process, and exits with the
worst of their codes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("estimate", "run", "service")
#: Hard stop, below the 180 s a run may take.
TIME_LIMIT_S = 170


def _timeout(signum, frame):
    raise TimeoutError(f"benchmark run exceeded {TIME_LIMIT_S} s")


def _terminate(signum, frame):
    raise SystemExit(f"benchmark run stopped by signal {signum}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    args = parser.parse_args(argv)
    if args.workload == "all":
        own = sys.argv[1:] if argv is None else list(argv)
        position = own.index("--workload") + 1
        return max(
            subprocess.run(
                [sys.executable, __file__, *own[:position], name, *own[position + 1:]]
            ).returncode
            for name in WORKLOADS
        )
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    import workloads

    scratch = Path(".bench_build") / "perfbench" / str(os.getpid())
    # Both unwind through the workloads' clean-up, which stops the daemons.
    signal.signal(signal.SIGALRM, _timeout)
    signal.signal(signal.SIGTERM, _terminate)
    signal.alarm(TIME_LIMIT_S)
    try:
        report = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.size, scratch
        )
    finally:
        signal.alarm(0)
        shutil.rmtree(scratch, ignore_errors=True)

    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    tally = report.tally
    metrics = {}
    for name, unit in units.items():
        value = report.metrics.get(name, math.nan)
        metrics[name] = {"value": value if math.isfinite(value) else None, "unit": unit}
        print(f"{args.workload:9s} {name:28s} {value:14.6g} {unit}")
    for note in report.notes:
        print(f"{args.workload:9s} # {note}")
    for kind in sorted(tally.attempted):
        print(f"{args.workload:9s} # {kind}: {tally.attempted[kind]} attempted, "
              f"{tally.failed.get(kind, 0)} failed")
    for reason in tally.reasons:
        print(f"{args.workload:9s} # FAILED {reason}")
    correct = tally.total_failed == 0 and all(
        entry["value"] is not None for entry in metrics.values()
    )
    print(json.dumps({
        "correct": correct,
        "attempted": tally.total_attempted,
        "failed": tally.total_failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
