"""Shared helpers for the benchmark harness.

Most benchmark modules reproduce one table or figure of the paper on scaled
instances and print the rows they produce, so the run log doubles as the
experiment record.  The modules use the ``benchmark`` fixture of
pytest-benchmark with a single round: the quantity of interest is the
experiment output, the wall-clock time of the run is only reported for
orientation.

Timing protocol (wall-clock ratio benchmarks)
---------------------------------------------

``bench_preprocessing.py``, ``bench_batching.py`` and
``bench_tracing_overhead.py`` compare two implementations of the same work
and therefore need noise-robust *relative* timings, not the single pipeline
run above:

* both sides run on **bit-identical inputs** in the same process;
* rounds are **interleaved**, so CPU-frequency drift, thermal throttling and
  cache effects hit both sides equally;
* each side reports its **best** round — microbenchmark noise is one-sided
  (interference only ever slows a run down), so the best round is the least
  contaminated estimate;
* gates compare **ratios** (machine-independent), never absolute rates: a
  BENCH_5 or BENCH_6 speedup must stay at or above :data:`RATIO_FLOOR` times
  its value in the committed ``BENCH_*.json`` record (:func:`assert_ratio_holds`).
"""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from pathlib import Path

#: A re-measured speedup may fall at most 25 % below its committed value.
RATIO_FLOOR = 0.75


def committed_record(bench: str) -> dict:
    """The committed ``benchmarks/BENCH_<bench>.json`` record."""
    return json.loads((Path(__file__).resolve().parent / f"BENCH_{bench}.json").read_text())


def assert_ratio_holds(bench: str, workload: str, speedup: float) -> None:
    """Fail when ``speedup`` falls below :data:`RATIO_FLOOR` of the committed ratio."""
    committed = committed_record(bench)["workloads"][workload]["speedup"]
    floor = RATIO_FLOOR * committed
    assert speedup >= floor, (
        f"{workload}: speedup x{speedup:.2f} fell below x{floor:.2f} "
        f"(committed x{committed:.2f} in BENCH_{bench}.json)"
    )


# Benchmarks run the whole pipeline once; repeating it would only slow CI down.
PEDANTIC_KWARGS = {"rounds": 1, "iterations": 1, "warmup_rounds": 0}


def run_once(benchmark, fn: Callable[[], object]):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, **PEDANTIC_KWARGS)


def print_table(title: str, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    """Print a small fixed-width table (the benchmark's reproduction of a paper table)."""
    widths = [
        max(len(str(header[i])), *(len(str(row[i])) for row in rows)) if rows else len(str(header[i]))
        for i in range(len(header))
    ]
    line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(header))
    print()
    print(f"=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
    print()


def render_decomposition_bitmap(
    labels: Sequence[str], variables: Sequence[int], chosen: Sequence[int], per_line: int = 16
) -> str:
    """Render a decomposition set as a bitmap over labelled state variables.

    This is the textual analogue of the paper's Figures 1-4: each state cell is
    shown with a marker when it belongs to the decomposition set.
    """
    chosen_set = set(chosen)
    lines: list[str] = []
    for start in range(0, len(variables), per_line):
        chunk = list(zip(labels[start : start + per_line], variables[start : start + per_line]))
        lines.append(" ".join(f"{label}" for label, _ in chunk))
        lines.append(" ".join(("#" if var in chosen_set else ".").center(len(label)) for label, var in chunk))
    return "\n".join(lines)


def format_count(value: float) -> str:
    """Format large cost values compactly (e.g. ``3.77e+10``)."""
    return f"{value:.3e}"
