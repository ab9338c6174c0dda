"""CNF preprocessing microbenchmark: simplified-vs-raw ξ-estimation (BENCH_5).

This module is the continuous check that the SatELite-style preprocessing
subsystem (:class:`repro.sat.simplify.Preprocessor`) keeps paying where it
should — and stays *safe* everywhere:

* **estimation speedup** — the three committed BENCH_5 workloads are
  re-measured: fresh-solve (paper-semantics) estimation on the bivium-tiny
  d=10 prefix, an incremental mixed-size sweep on bivium-tiny and a fresh
  sweep on a51-tiny.  The one-off preprocessing wall time is charged to the
  simplified side, and every speedup must stay at or above 0.75x its
  committed value (``benchmarks/_common.py``);
* **differential safety** — per-sample SAT/UNSAT statuses must be identical
  between the raw and the simplified run, whole decomposition families must
  reach identical answers, reconstructed models must satisfy the raw formula,
  and with preprocessing off the frozen-variable plumbing must not move a
  single bit of the estimate.

The exact reduction counters of the same encodings are pinned in tier-1
(``tests/test_simplify.py::TestCipherEncodingReduction``).
"""

from __future__ import annotations

import random
import time

import pytest

from benchmarks._common import assert_ratio_holds, committed_record, print_table, run_once
from repro.api.registry import get_cipher
from repro.core.decomposition import DecompositionSet
from repro.core.predictive import PredictiveFunction
from repro.problems import make_inversion_instance
from repro.sat.cdcl import CDCLSolver
from repro.sat.simplify import Preprocessor
from repro.sat.solver import SolverStatus

SEED = 3


def _instance(cipher: str):
    return make_inversion_instance(get_cipher(cipher)(), seed=SEED)


def sweep_decompositions(start_set, count: int, sizes: tuple[int, ...]) -> list[tuple[int, ...]]:
    """``count`` deterministic decomposition points of mixed sizes.

    Mimics the estimating mode's visit pattern (random subsets of the start
    set with varying ``d``) while staying bit-reproducible, so the raw and the
    simplified estimation runs evaluate exactly the same points.
    """
    rng = random.Random(7)
    variables = list(start_set)
    usable = tuple(size for size in sizes if size <= len(variables))
    return [tuple(sorted(rng.sample(variables, rng.choice(usable)))) for _ in range(count)]


def _estimation_sweep(cnf, points, sample_size: int, incremental: bool):
    """Evaluate every point with one evaluator; returns (seconds, results)."""
    evaluator = PredictiveFunction(
        cnf,
        solver=CDCLSolver(),
        sample_size=sample_size,
        seed=SEED,
        incremental=incremental,
        sample_cache_size=None,
    )
    start = time.perf_counter()
    results = [evaluator.evaluate(point) for point in points]
    return time.perf_counter() - start, results


def _decided_statuses_agree(raw_results, simplified_results) -> bool:
    """Per-sample SAT/UNSAT agreement over every point (UNKNOWNs skipped)."""
    for raw, simplified in zip(raw_results, simplified_results):
        for raw_obs, simplified_obs in zip(raw.observations, simplified.observations):
            if (
                raw_obs.status is not SolverStatus.UNKNOWN
                and simplified_obs.status is not SolverStatus.UNKNOWN
                and raw_obs.status is not simplified_obs.status
            ):
                return False
    return True


def preprocessing_estimation_workload(
    cnf, frozen, points, sample_size: int, incremental: bool = False, rounds: int = 2
) -> dict[str, object]:
    """Simplified-vs-raw end-to-end ξ-estimation, interleaved best-of-``rounds``.

    The raw side evaluates ``points`` against ``cnf``; the simplified side
    runs the preprocessor (with ``frozen`` protected) **and** evaluates the
    same points against the simplified formula, exactly as a real estimating
    run would pay for it.  ``speedup`` is best-raw over best-simplified.
    """
    best = {"raw": float("inf"), "simplified": float("inf")}
    raw_results = simplified_results = None
    for _ in range(rounds):
        raw_time, raw_results = _estimation_sweep(cnf, points, sample_size, incremental)
        started = time.perf_counter()
        presolve = Preprocessor().preprocess(cnf, frozen=frozen)
        preprocess_time = time.perf_counter() - started
        simplified_time, simplified_results = _estimation_sweep(
            presolve.cnf, points, sample_size, incremental
        )
        best["raw"] = min(best["raw"], raw_time)
        best["simplified"] = min(best["simplified"], preprocess_time + simplified_time)
    return {
        "raw": best["raw"],
        "simplified": best["simplified"],
        "speedup": best["raw"] / best["simplified"],
        "statuses_agree": _decided_statuses_agree(raw_results, simplified_results),
    }


def preprocessing_family_differential(cnf, frozen, decomposition) -> dict[str, bool]:
    """Solve a whole decomposition family raw vs simplified and compare.

    Every sub-problem's SAT/UNSAT answer must be identical, and every model
    of the simplified formula must — after :meth:`PreprocessResult.reconstruct`
    — satisfy the **original** formula.
    """
    presolve = Preprocessor().preprocess(cnf, frozen=frozen)
    raw_solver = CDCLSolver().load(cnf)
    simplified_solver = CDCLSolver().load(presolve.cnf)
    answers_identical = True
    models_verified = True
    for assignment in DecompositionSet.of(decomposition).all_assignments():
        literals = assignment.to_literals()
        raw_result = raw_solver.solve(assumptions=literals)
        simplified_result = simplified_solver.solve(assumptions=literals)
        if raw_result.status is not simplified_result.status:
            answers_identical = False
        if simplified_result.is_sat:
            model = presolve.reconstruct(simplified_result.model)
            full = {v: model.get(v, False) for v in range(1, cnf.num_vars + 1)}
            if not cnf.is_satisfied_by(full):
                models_verified = False
    return {"answers_identical": answers_identical, "models_verified": models_verified}


# The committed BENCH_5 workloads: (cipher, mode, point sweep, sample size).
WORKLOADS = {
    "preprocessing-estimation-fresh/bivium-tiny-d10": (
        "bivium-tiny", False, lambda start: [tuple(sorted(start[:10]))], 600,
    ),
    "preprocessing-estimation-incremental/bivium-tiny": (
        "bivium-tiny", True, lambda start: sweep_decompositions(start, 16, (6, 8, 10, 12)), 50,
    ),
    "preprocessing-estimation-fresh/a51-tiny": (
        "a51-tiny", False, lambda start: sweep_decompositions(start, 8, (8, 10, 12)), 30,
    ),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_estimation_speedup_and_differential(benchmark, name):
    """Each committed BENCH_5 workload keeps its simplified-vs-raw ratio."""
    cipher, incremental, sweep, sample_size = WORKLOADS[name]
    instance = _instance(cipher)

    def run():
        return preprocessing_estimation_workload(
            instance.cnf, frozenset(instance.start_set), sweep(instance.start_set),
            sample_size, incremental=incremental,
        )

    workload = run_once(benchmark, run)
    print_table(
        f"Simplified vs raw estimation ({name})",
        ["raw", "simplified (incl. preprocess)", "speedup", "statuses agree"],
        [[
            f"{workload['raw']:.2f}s",
            f"{workload['simplified']:.2f}s",
            f"x{workload['speedup']:.2f}",
            str(workload["statuses_agree"]),
        ]],
    )
    assert workload["statuses_agree"] is True
    if name == "preprocessing-estimation-fresh/bivium-tiny-d10":
        # The headline workload must stay a real win, not only near its ratio.
        assert workload["speedup"] >= 1.05
    assert_ratio_holds("5", name, workload["speedup"])


def test_family_answers_and_models_unchanged(benchmark):
    """Whole-family solver answers and reconstructed models are invariant."""
    bivium, a51 = _instance("bivium-tiny"), _instance("a51-tiny")

    def run():
        return {
            "bivium-tiny-d6": preprocessing_family_differential(
                bivium.cnf, frozenset(bivium.start_set), list(bivium.start_set[:6])
            ),
            "a51-tiny-d8": preprocessing_family_differential(
                a51.cnf, frozenset(a51.start_set), list(a51.start_set[:8])
            ),
        }

    records = run_once(benchmark, run)
    for name, record in records.items():
        assert record["answers_identical"] is True, name
        assert record["models_verified"] is True, name


def test_xi_unchanged_with_preprocessing_off():
    """Routing the start set through ``frozen_variables`` moves no bit of ξ."""
    bivium = _instance("bivium-tiny")
    decomposition = list(bivium.start_set[:8])
    results = [
        PredictiveFunction(
            bivium.cnf, solver=CDCLSolver(), sample_size=30, seed=SEED,
            incremental=True, sample_cache_size=None, **extra,
        ).evaluate(decomposition)
        for extra in ({}, {"frozen_variables": frozenset(bivium.start_set)})
    ]
    plain, plumbed = results
    assert plain.value == plumbed.value
    assert [o.status for o in plain.observations] == [o.status for o in plumbed.observations]
    assert [o.cost for o in plain.observations] == [o.cost for o in plumbed.observations]


def test_committed_baseline_meets_the_pr_targets():
    """The committed BENCH_5.json itself carries the acceptance evidence."""
    baseline = committed_record("5")
    workloads = baseline["workloads"]
    # >= 1.3x end-to-end on at least one of a51-tiny / bivium-tiny, and every
    # committed workload must have recorded identical per-sample statuses.
    assert any(
        workload.get("speedup", 0) >= 1.3
        for name, workload in workloads.items()
        if name.startswith("preprocessing-estimation-")
    )
    for name, workload in workloads.items():
        assert workload["statuses_agree"] is True, name
    differential = baseline["differential"]
    for name, record in differential.items():
        if name.startswith("family/"):
            assert record["answers_identical"] is True, name
            assert record["models_verified"] is True, name
    assert differential["xi-identical-with-simplify-off/bivium-tiny"] is True
