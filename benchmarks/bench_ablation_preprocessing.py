"""Ablation — SatELite-style preprocessing of the cryptanalysis encodings.

MiniSat (the solver inside PDSAT) preprocesses its input with SatELite-style
subsumption and bounded variable elimination before search.  The Tseitin
encodings produced by the circuit translator contain many functionally defined
auxiliary variables, so preprocessing shrinks them substantially.  This
ablation measures, on a scaled Bivium instance:

* how much :class:`repro.sat.simplify.Preprocessor` (default rules) shrinks
  the encoding (variables eliminated, clauses removed),
* how the cost of solving sampled sub-problems changes, and therefore
* how the predictive-function value of the same decomposition set changes,

with the decomposition-set variables *frozen* so the partitioning machinery
still applies to the simplified formula.
"""

from __future__ import annotations

from benchmarks._common import format_count, print_table, run_once
from repro.ciphers import Bivium
from repro.core.baselines import last_register_cells
from repro.core.predictive import PredictiveFunction
from repro.problems import make_inversion_instance
from repro.sat.simplify import Preprocessor

DECOMPOSITION_SIZE = 6
SAMPLE_SIZE = 40


def _run_experiment():
    instance = make_inversion_instance(Bivium.scaled("tiny"), keystream_length=26, seed=8)
    decomposition = last_register_cells(instance, DECOMPOSITION_SIZE, register="B")

    simplification = Preprocessor().preprocess(
        instance.cnf, frozen=frozenset(instance.start_set)
    )
    assert not simplification.unsat

    original_f = PredictiveFunction(
        instance.cnf, sample_size=SAMPLE_SIZE, cost_measure="propagations", seed=4
    ).evaluate(decomposition)
    simplified_f = PredictiveFunction(
        simplification.cnf, sample_size=SAMPLE_SIZE, cost_measure="propagations", seed=4
    ).evaluate(decomposition)

    return instance, simplification, original_f, simplified_f


def test_ablation_preprocessing(benchmark):
    """Preprocessing shrinks the encoding without breaking the partitioning machinery."""
    instance, simplification, original_f, simplified_f = run_once(benchmark, _run_experiment)

    original = instance.cnf
    simplified = simplification.cnf
    print(f"\ninstance: {instance.summary()}")
    print_table(
        "Preprocessing ablation — encoding size and predictive function",
        ["formula", "variables in use", "clauses", "F (propagations)"],
        [
            [
                "original Tseitin encoding",
                len(original.variables()),
                original.num_clauses,
                format_count(original_f.value),
            ],
            [
                "after SatELite preprocessing",
                len(simplified.variables()),
                simplified.num_clauses,
                format_count(simplified_f.value),
            ],
        ],
    )
    stats = simplification.stats
    print(
        f"eliminated variables: {stats.eliminated_variables}, "
        f"subsumed clauses: {stats.subsumed}, "
        f"strengthened clauses: {stats.strengthened}"
    )

    # Shapes: preprocessing removes something, never invents variables, and the
    # predictive function of the same decomposition set stays in the same
    # ballpark (the sub-problems get no harder than a small constant factor).
    assert stats.eliminated_variables + stats.subsumed > 0
    assert len(simplified.variables()) <= len(original.variables())
    assert simplified_f.value <= original_f.value * 2.0
