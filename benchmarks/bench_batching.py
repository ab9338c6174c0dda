"""Batching microbenchmark: solve_batch vs the scalar fresh loop (BENCH_6).

This module is the continuous check that assumption batching
(:meth:`repro.sat.cdcl.CDCLSolver.solve_batch`, which loads the formula once
and solves each row from a restored root snapshot) and the frozen-image
worker protocol (:class:`repro.sat.cdcl.image.ArenaImage`, handed to pool
workers through the pool initializer) keep paying — and stay *bit-identical*
everywhere:

* **solve_batch speedup** — the single-process batched loop must stay
  decisively faster than the scalar fresh loop on the bivium-tiny d=10 sample
  stream;
* **estimation speedup** — one evaluation of the batched evaluator on a run
  pool of 1, 4 and 16 processes (the leader solving one share of the sample,
  frozen-image workers the others, pool start and close included) must stay
  faster than the scalar fresh evaluator;
* every speedup must also stay at or above 0.75x its value in the committed
  ``BENCH_6.json`` (``benchmarks/_common.py``);
* **differential safety** — per-sample statuses and propagation costs must be
  identical between the batched and the scalar side, whole decomposition
  families must reach identical answers with verified models, and the folded
  ξ statistics must be bit-identical.

The committed estimation ratios were recorded on a scheduled estimator that
shipped the scalar side's samples one per task to a process pool; that
estimator is gone, and its gates hold the same floors on the evaluator.  The
committed ``batch-solve`` ratio was recorded on a word-parallel engine that
propagated all rows of a call together before solving the conflicting ones
from the snapshot; every row now takes the snapshot path, under the same
floor.
"""

from __future__ import annotations

import random
import time

import pytest

from benchmarks._common import assert_ratio_holds, committed_record, print_table, run_once
from repro.api.backends import ProcessPoolBackend
from repro.api.registry import get_cipher
from repro.core.decomposition import DecompositionSet
from repro.core.predictive import PredictiveFunction
from repro.problems import make_inversion_instance
from repro.sat.cdcl import CDCLSolver
from repro.stats.sampling import random_bits

SEED = 3
SAMPLES = 200
BATCH_SIZE = 64


def _bivium():
    return make_inversion_instance(get_cipher("bivium-tiny")(), seed=SEED)


def _sampled_rows(variables, count: int, seed: int) -> list[tuple[int, ...]]:
    """The rows ``BENCH_6.json``'s ``batch-solve`` workload was recorded on.

    Row ``j`` sets the sorted ``variables`` by bits drawn from a generator
    seeded with the ``j``-th 64-bit word of ``random.Random(seed)``.
    """
    ordered = sorted(set(variables))
    root = random.Random(seed)
    rows = []
    for _ in range(count):
        bits = random_bits(random.Random(root.getrandbits(64)), len(ordered))
        rows.append(tuple(var if bit else -var for var, bit in zip(ordered, bits)))
    return rows


def batch_solve_workload(cnf, rows, rounds: int = 2) -> dict[str, object]:
    """``solve_batch`` vs the scalar fresh loop, single process.

    Both sides solve exactly the same sampled assumption rows with fresh-solve
    semantics: the scalar side re-loads per call (the estimator's fresh path),
    the batched side loads once and calls ``solve_batch`` on ``BATCH_SIZE``
    rows at a time.  Interleaved best-of-``rounds`` samples/second.
    """
    best = {"scalar": 0.0, "batched": 0.0}
    scalar_results = batched_results = None
    for _ in range(rounds):
        solver = CDCLSolver()
        start = time.perf_counter()
        scalar_results = [solver.solve(cnf, assumptions=list(row)) for row in rows]
        best["scalar"] = max(best["scalar"], len(rows) / (time.perf_counter() - start))

        solver = CDCLSolver().load(cnf)
        start = time.perf_counter()
        batched_results = []
        for begin in range(0, len(rows), BATCH_SIZE):
            batched_results.extend(solver.solve_batch(rows[begin : begin + BATCH_SIZE]))
        best["batched"] = max(best["batched"], len(rows) / (time.perf_counter() - start))
    return {
        "scalar": best["scalar"],
        "batched": best["batched"],
        "speedup": best["batched"] / best["scalar"],
        "statuses_agree": (
            [r.status for r in scalar_results] == [r.status for r in batched_results]
        ),
        "costs_identical": (
            [r.stats.propagations for r in scalar_results]
            == [r.stats.propagations for r in batched_results]
        ),
    }


def _evaluate(cnf, variables, batch_size: int = 1, processes: int = 1):
    """One evaluation of ``F`` at ``variables``; batched ones on a run pool of ``processes``.

    The pool starts and closes inside the call.  At one process there is no
    pool to open, and the leader solves the whole sample.
    """
    evaluator = PredictiveFunction(cnf, sample_size=SAMPLES, seed=SEED, batch_size=batch_size)
    with ProcessPoolBackend(processes=processes).pool(cnf) as pool:
        evaluator.pool = pool
        return evaluator.evaluate(variables)


def _costs_and_statuses(result):
    return (
        [observation.cost for observation in result.observations],
        [observation.status for observation in result.observations],
    )


def batched_estimation_workload(cnf, variables, cores: int, rounds: int = 2) -> dict[str, object]:
    """Estimation samples/second: the batched evaluator on a run pool vs the scalar one.

    The batched side evaluates with ``BATCH_SIZE`` rows per ``solve_batch``
    call on a ``cores``-process run pool, whose workers load a frozen
    :class:`~repro.sat.cdcl.image.ArenaImage` from the pool initializer; the
    scalar side is the fresh evaluator, one ``solve(cnf, row)`` per row in
    this process.  Interleaved best-of-``rounds`` wall times.
    """
    best = {"scalar": float("inf"), "batched": float("inf")}
    results = {}
    for _ in range(rounds):
        for side, batch_size, processes in (("scalar", 1, 1), ("batched", BATCH_SIZE, cores)):
            start = time.perf_counter()
            results[side] = _evaluate(cnf, variables, batch_size, processes)
            best[side] = min(best[side], time.perf_counter() - start)
    (scalar_costs, scalar_statuses), (batched_costs, batched_statuses) = (
        _costs_and_statuses(results["scalar"]), _costs_and_statuses(results["batched"])
    )
    return {
        "scalar": SAMPLES / best["scalar"],
        "batched": SAMPLES / best["batched"],
        "speedup": best["scalar"] / best["batched"],
        "statuses_agree": scalar_statuses == batched_statuses,
        "xi_identical": (
            scalar_costs == batched_costs
            and results["scalar"].estimate.mean == results["batched"].estimate.mean
        ),
    }


def batch_family_differential(cnf, decomposition) -> dict[str, bool]:
    """Solve a whole decomposition family batched vs scalar and compare.

    Every sub-problem's SAT/UNSAT answer must be identical, and every model
    ``solve_batch`` returns must satisfy the original formula.
    """
    rows = [
        tuple(assignment.to_literals())
        for assignment in DecompositionSet.of(decomposition).all_assignments()
    ]
    batched = CDCLSolver().load(cnf).solve_batch(rows)
    scalar_solver = CDCLSolver()
    answers_identical = True
    models_verified = True
    for row, batch_result in zip(rows, batched):
        scalar_result = scalar_solver.solve(cnf, assumptions=list(row))
        if scalar_result.status is not batch_result.status:
            answers_identical = False
        if batch_result.is_sat:
            model = batch_result.model
            full = {v: model.get(v, False) for v in range(1, cnf.num_vars + 1)}
            if not cnf.is_satisfied_by(full):
                models_verified = False
    return {"answers_identical": answers_identical, "models_verified": models_verified}


def test_solve_batch_speedup_and_differential(benchmark):
    """The headline BENCH_6 workload: solve_batch beats the scalar fresh loop."""
    bivium = _bivium()
    decomposition = sorted(bivium.start_set[:10])
    rows = _sampled_rows(decomposition, SAMPLES, SEED)

    workload = run_once(benchmark, lambda: batch_solve_workload(bivium.cnf, rows))
    print_table(
        "solve_batch vs scalar fresh loop (bivium-tiny d=10, N=200)",
        ["scalar samples/s", "batched samples/s", "speedup", "statuses agree"],
        [[
            f"{workload['scalar']:.0f}",
            f"{workload['batched']:.0f}",
            f"x{workload['speedup']:.2f}",
            str(workload["statuses_agree"]),
        ]],
    )
    assert workload["statuses_agree"] is True
    assert workload["costs_identical"] is True
    assert workload["speedup"] >= 1.5
    assert_ratio_holds("6", "batch-solve/bivium-tiny-d10", workload["speedup"])


@pytest.mark.parametrize("cores", [1, 4, 16])
def test_estimation_on_the_run_pool_speedup(benchmark, cores):
    """The batched evaluator on a run pool beats the scalar fresh evaluator."""
    bivium = _bivium()
    decomposition = sorted(bivium.start_set[:10])

    workload = run_once(
        benchmark, lambda: batched_estimation_workload(bivium.cnf, decomposition, cores)
    )
    print_table(
        f"Batched evaluator on a {cores}-process run pool vs scalar (bivium-tiny d=10)",
        ["scalar samples/s", "batched samples/s", "speedup", "xi identical"],
        [[
            f"{workload['scalar']:.0f}",
            f"{workload['batched']:.0f}",
            f"x{workload['speedup']:.2f}",
            str(workload["xi_identical"]),
        ]],
    )
    assert workload["statuses_agree"] is True
    assert workload["xi_identical"] is True
    assert workload["speedup"] >= 1.5
    assert_ratio_holds(
        "6", f"batch-estimation/bivium-tiny-d10-cores{cores}", workload["speedup"]
    )


def test_family_answers_and_models_unchanged(benchmark):
    """Whole-family batched answers and models are identical to scalar."""
    geffe = make_inversion_instance(get_cipher("geffe-tiny")(), seed=SEED)
    bivium = _bivium()

    def run():
        return {
            "geffe-tiny-d6": batch_family_differential(geffe.cnf, list(geffe.start_set[:6])),
            "bivium-tiny-d4": batch_family_differential(bivium.cnf, list(bivium.start_set[:4])),
        }

    records = run_once(benchmark, run)
    for name, record in records.items():
        assert record["answers_identical"] is True, name
        assert record["models_verified"] is True, name


def test_xi_bit_identical_batched_and_scalar(benchmark):
    """The in-process evaluator folds identically batched and scalar."""
    bivium = _bivium()
    decomposition = sorted(bivium.start_set[:10])

    def run():
        return [
            _evaluate(bivium.cnf, decomposition, batch_size)
            for batch_size in (1, BATCH_SIZE)
        ]

    scalar, batched = run_once(benchmark, run)
    assert _costs_and_statuses(scalar) == _costs_and_statuses(batched)
    assert scalar.estimate.mean == batched.estimate.mean
    assert scalar.estimate.half_width == batched.estimate.half_width


def test_committed_baseline_meets_the_pr_targets():
    """The committed BENCH_6.json itself carries the acceptance evidence."""
    baseline = committed_record("6")
    workloads = baseline["workloads"]
    # The acceptance bar: >= 2x samples/sec at 4 cores over the scalar
    # process-pool path, and every committed workload recorded identical
    # per-sample statuses.
    assert workloads["batch-estimation/bivium-tiny-d10-cores4"]["speedup"] >= 2.0
    for cores in (1, 4, 16):
        assert f"batch-estimation/bivium-tiny-d10-cores{cores}" in workloads
    for name, workload in workloads.items():
        assert workload["statuses_agree"] is True, name
        if "xi_identical" in workload:
            assert workload["xi_identical"] is True, name
    differential = baseline["differential"]
    assert differential["xi-identical-batched-vs-scalar/bivium-tiny-d10"] is True
    family = differential["family/geffe-tiny-d6"]
    assert family["answers_identical"] is True
    assert family["models_verified"] is True
