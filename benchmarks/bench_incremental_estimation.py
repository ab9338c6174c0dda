"""Batched estimation engine vs. the per-sample baseline.

The estimating mode is the hot path of the whole reproduction: one run of
Algorithm 2 performs ``max_evaluations × N`` sub-instance solves.  This
benchmark quantifies what the batched engine buys on the paper's A5/1 workload:

* **baseline** — the pre-batching path: every sampled sub-instance re-builds
  the CDCL solver state from the CNF (watch lists, heap, clause objects) and
  solves from scratch;
* **engine** — the CNF is loaded into a persistent incremental
  :class:`~repro.sat.cdcl.CDCLSolver` once, every sample is an assumption-
  vector solve with learned clauses retained, and repeated assignments are
  replayed from the sample-result LRU cache.

Per-sample *statuses* must agree exactly (learned clauses are implied by the
formula, so assumption solves stay sound); per-sample *costs* differ by
design — the engine's counters are history-dependent — which is why the
engine's F values are compared only for ordering, not magnitude.  The
acceptance bar for the PR that introduced the engine is a ≥3× wall-clock
speedup on this workload; the assertion below uses 2× to stay robust on slow
CI machines.
"""

from __future__ import annotations

import time

from benchmarks._common import format_count, print_table, run_once
from repro.api.specs import EstimatorSpec
from repro.core.predictive import PredictiveFunction
from repro.problems import make_inversion_instance
from repro.api.registry import get_cipher

CIPHER = "a51-tiny"
SEED = 3
DECOMPOSITION_SIZE = 8
SAMPLE_SIZE = 100


def _run_experiment():
    instance = make_inversion_instance(get_cipher(CIPHER)(), seed=SEED)
    decomposition = instance.start_set[:DECOMPOSITION_SIZE]

    engine = EstimatorSpec(sample_size=SAMPLE_SIZE).build(instance.cnf, seed=SEED)
    started = time.perf_counter()
    engine_result = engine.evaluate(decomposition)
    engine_time = time.perf_counter() - started

    baseline = PredictiveFunction(
        instance.cnf,
        sample_size=SAMPLE_SIZE,
        seed=SEED,
        incremental=False,
        sample_cache_size=None,
    )
    started = time.perf_counter()
    baseline_result = baseline.evaluate(decomposition)
    baseline_time = time.perf_counter() - started
    return instance, engine, engine_result, engine_time, baseline_result, baseline_time


def test_incremental_estimation_speedup(benchmark):
    """The batched engine beats per-sample solving while agreeing on statuses."""
    instance, engine, engine_result, engine_time, baseline_result, baseline_time = run_once(
        benchmark, _run_experiment
    )
    speedup = baseline_time / engine_time

    print(f"\ninstance: {instance.summary()}")
    print_table(
        "Batched Monte Carlo estimation engine (A5/1)",
        ["engine", "wall time", "F estimate", "solver calls", "cache hits"],
        [
            [
                "incremental+cache",
                f"{engine_time:.3f}s",
                format_count(engine_result.value),
                engine.num_solver_calls,
                engine.sample_cache_hits,
            ],
            [
                "per-sample baseline",
                f"{baseline_time:.3f}s",
                format_count(baseline_result.value),
                SAMPLE_SIZE,
                0,
            ],
        ],
    )
    print(f"speedup: x{speedup:.2f}")

    # Identical sampled assignments (same seed) -> per-observation comparison.
    assert [obs.status for obs in engine_result.observations] == [
        obs.status for obs in baseline_result.observations
    ]
    assert speedup >= 2.0
