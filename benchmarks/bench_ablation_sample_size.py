"""Ablation — the random-sample size ``N`` of the predictive function.

The paper uses ``N = 1e4`` (A5/1) and ``N = 1e5`` (Bivium, Grain) observations
per point and never revisits the choice; Section 2 only requires ``N`` to be
"large enough" for the CLT interval to be tight.  This ablation measures how
the estimation error of ``F`` behaves as ``N`` grows on a scaled Bivium
instance with a decomposition set small enough that the *exact* value
``t_{C,A}(X̃)`` can be computed by exhausting all ``2^d`` sub-problems, and it
contrasts three interval constructions:

* the CLT interval of the paper,
* a percentile bootstrap interval (no normality assumption),
* sequential sampling that chooses ``N`` adaptively for a target precision.
"""

from __future__ import annotations

import random

from benchmarks._common import format_count, print_table, run_once
from repro.ciphers import Bivium
from repro.core.baselines import last_register_cells
from repro.core.decomposition import DecompositionSet
from repro.core.predictive import PredictiveFunction
from repro.problems import make_inversion_instance
from repro.stats.sampling import bootstrap_confidence_interval, sequential_estimate

DECOMPOSITION_SIZE = 8
SAMPLE_SIZES = (5, 10, 25, 50, 100)
NUM_SEEDS = 5
TARGET_RELATIVE_ERROR = 0.10


def _run_experiment():
    instance = make_inversion_instance(Bivium.scaled("tiny"), keystream_length=26, seed=6)
    decomposition_vars = last_register_cells(instance, DECOMPOSITION_SIZE // 2, register="B")
    decomposition_vars += last_register_cells(instance, DECOMPOSITION_SIZE // 2, register="A")
    decomposition = DecompositionSet.of(decomposition_vars)

    # Ground truth: solve all 2^d sub-problems once.
    exact_evaluator = PredictiveFunction(
        instance.cnf, sample_size=1, cost_measure="propagations", seed=0
    )
    true_total, all_costs = exact_evaluator.exhaustive_value(decomposition)

    rows = []
    errors_by_n = {}
    for sample_size in SAMPLE_SIZES:
        errors = []
        covered = 0
        for seed in range(NUM_SEEDS):
            evaluator = PredictiveFunction(
                instance.cnf,
                sample_size=sample_size,
                cost_measure="propagations",
                seed=100 + seed,
            )
            prediction = evaluator.evaluate(decomposition)
            errors.append(abs(prediction.value - true_total) / true_total)
            low, high = prediction.confidence_interval
            if low <= true_total <= high:
                covered += 1
        mean_error = sum(errors) / len(errors)
        errors_by_n[sample_size] = mean_error
        rows.append(
            (
                sample_size,
                f"{mean_error * 100:.1f}%",
                f"{covered}/{NUM_SEEDS}",
            )
        )

    # Sequential sampling: draw until the CLT relative error of the mean is
    # below the target, re-using the exhaustively computed cost population.
    rng = random.Random(1)
    sequential = sequential_estimate(
        lambda i: all_costs[rng.randrange(len(all_costs))],
        target_relative_error=TARGET_RELATIVE_ERROR,
        min_samples=10,
        max_samples=500,
    )
    scaled = sequential.estimate.scaled(float(decomposition.num_subproblems))
    bootstrap_low, bootstrap_high = bootstrap_confidence_interval(
        sequential.observations, seed=2
    )
    bootstrap_total = (
        bootstrap_low * decomposition.num_subproblems,
        bootstrap_high * decomposition.num_subproblems,
    )

    return {
        "instance": instance,
        "true_total": true_total,
        "rows": rows,
        "errors_by_n": errors_by_n,
        "sequential": sequential,
        "sequential_total": scaled.mean,
        "bootstrap_total": bootstrap_total,
    }


def test_ablation_sample_size(benchmark):
    """Estimation error shrinks with N; adaptive sampling picks N automatically."""
    data = run_once(benchmark, _run_experiment)

    print(f"\ninstance: {data['instance'].summary()}")
    print(f"true t_C,A = {format_count(data['true_total'])} (d = {DECOMPOSITION_SIZE})")
    print_table(
        "Sample-size ablation — mean relative error of F over "
        f"{NUM_SEEDS} seeds, and CLT 95% CI coverage",
        ["N", "mean |error|", "CI covers truth"],
        data["rows"],
    )
    sequential = data["sequential"]
    low, high = data["bootstrap_total"]
    print(
        f"sequential sampling (target ±{TARGET_RELATIVE_ERROR:.0%}): "
        f"N = {sequential.sample_size}, converged = {sequential.converged}, "
        f"estimate {format_count(data['sequential_total'])} "
        f"(bootstrap 95% CI [{format_count(low)}, {format_count(high)}])"
    )

    # Shape: the error with the largest sample is smaller than with the smallest.
    errors = data["errors_by_n"]
    assert errors[max(SAMPLE_SIZES)] <= errors[min(SAMPLE_SIZES)] + 0.02
    # The sequential procedure drew at least its minimum and produced a finite estimate.
    assert sequential.sample_size >= 10
    assert data["sequential_total"] > 0
