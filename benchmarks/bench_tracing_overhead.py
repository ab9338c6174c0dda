"""Disabled-tracing overhead gate: instrumented vs hook-stripped propagation.

PR 7 threaded three ``# trace-hook`` tagged lines through the arena engine's
``_propagate`` hot loop.  The zero-overhead contract — tracing that is merely
*available* must not tax the propagation core — has two halves:

* the **structural** half (exactly three tagged lines, and a hook-stripped
  build propagates bit-identical closures) is deterministic and lives in
  tier-1 (``tests/test_trace.py::TestDisabledTracingOverhead``);
* the **wall-clock** half lives here, in the perf-smoke lane next to the
  BENCH_5 and BENCH_6 timing checks, because it asserts a timing *ratio* and
  therefore belongs with the other load-sensitive checks rather than in the
  functional suite.

The timing protocol matches ``benchmarks/_common.py``: both builds run on
bit-identical assumption vectors in the same process, rounds are interleaved
so machine noise hits both sides equally, and each side reports its best
round (microbenchmark noise is one-sided — interference only ever slows a
run down).
"""

from __future__ import annotations

import time

from benchmarks._common import print_table
from repro.api.registry import get_cipher
from repro.problems import make_inversion_instance
from repro.sat.cdcl import solver as solver_module
from repro.sat.cdcl.solver import _ilit
from repro.sat.solver import SolverBudget, SolverStats
from tests.test_trace import assumption_vectors, make_stripped_solver_class

SEED = 3
ROUNDS = 5
#: Disabled tracing may cost at most this fraction of propagation throughput.
OVERHEAD_BUDGET = 0.05


def _round_rate(solver_cls, cnf, vectors) -> float:
    solver = solver_cls().load(cnf)
    solver._stats = SolverStats()
    solver._budget = SolverBudget()
    solver._propagate()
    solver._stats = SolverStats()
    clock = time.perf_counter
    elapsed = 0.0
    for vector in vectors:
        solver._trail_lim.append(len(solver._trail))
        for lit in vector:
            solver._enqueue(_ilit(lit), -1)
        start = clock()
        solver._propagate()
        elapsed += clock() - start
        solver._cancel_until(0)
    assert solver._stats.propagations > 0
    return solver._stats.propagations / elapsed


def test_disabled_tracing_costs_at_most_five_percent(benchmark):
    """Isolated propagation with hooks present-but-disabled vs a build with
    the ``# trace-hook`` lines physically removed."""
    StrippedSolver = make_stripped_solver_class()
    instance = make_inversion_instance(get_cipher("a51-tiny")(), seed=SEED)
    vectors = assumption_vectors(list(instance.start_set), 8, 250, seed=42)
    cnf = instance.cnf

    def _measure():
        # Interleaved best-of rounds: noise is one-sided (interference only
        # slows a run down), so the per-side best is the clean figure.
        best_instrumented = best_stripped = 0.0
        for _ in range(ROUNDS):
            best_instrumented = max(
                best_instrumented, _round_rate(solver_module.CDCLSolver, cnf, vectors)
            )
            best_stripped = max(
                best_stripped, _round_rate(StrippedSolver, cnf, vectors)
            )
        return best_instrumented, best_stripped

    best_instrumented, best_stripped = benchmark.pedantic(
        _measure, rounds=1, iterations=1, warmup_rounds=0
    )
    overhead = 1.0 - best_instrumented / best_stripped
    print_table(
        "Disabled-tracing overhead on the propagation core",
        ["build", "propagations/s", "overhead"],
        [
            ["instrumented (hooks disabled)", f"{best_instrumented:,.0f}", f"{max(overhead, 0.0):.1%}"],
            ["stripped (hooks removed)", f"{best_stripped:,.0f}", "—"],
        ],
    )
    assert overhead <= OVERHEAD_BUDGET, (
        f"disabled tracing costs {overhead:.1%} on the propagation core "
        f"(instrumented {best_instrumented:,.0f}/s vs stripped {best_stripped:,.0f}/s)"
    )
