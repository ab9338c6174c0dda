"""Integration tests: the full pipeline on scaled cryptanalysis instances.

These tests reproduce, at test scale, the qualitative claims of the paper:

* the Monte Carlo prediction of the total family cost agrees with the actual
  cost of processing the family (Table 3's ~8% deviation, loosened here because
  the samples are small);
* the metaheuristic search finds decomposition sets at least as good as the
  full-state SUPBS start point and competitive with fixed baselines (Table 2);
* the solving mode actually recovers the secret state (Section 4.2).
"""

from __future__ import annotations

import pytest

from repro.ciphers import A51, Bivium, Geffe, Grain
from repro.core.baselines import last_register_cells, random_decomposition
from repro.core.optimizer import StoppingCriteria
from repro.core.pdsat import PDSAT
from repro.core.predictive import PredictiveFunction
from repro.problems import make_instance_series, make_inversion_instance


class TestPredictionAccuracy:
    @pytest.mark.parametrize(
        "generator,keystream_length",
        [
            pytest.param(Geffe.tiny(), 24, id="geffe"),
            pytest.param(Grain.scaled("tiny"), 20, id="grain"),
        ],
    )
    def test_prediction_matches_exhaustive_truth(self, generator, keystream_length):
        instance = make_inversion_instance(generator, keystream_length=keystream_length, seed=4)
        decomposition = instance.start_set[: min(7, len(instance.start_set))]
        evaluator = PredictiveFunction(instance.cnf, sample_size=60, seed=3)
        predicted = evaluator.evaluate(decomposition).value
        truth, costs = PredictiveFunction(instance.cnf, sample_size=1, seed=0).exhaustive_value(
            decomposition
        )
        assert truth > 0
        assert predicted == pytest.approx(truth, rel=0.6)

    def test_larger_samples_tighten_the_interval(self):
        instance = make_inversion_instance(Geffe.tiny(), keystream_length=24, seed=2)
        decomposition = instance.start_set[:6]
        small = PredictiveFunction(instance.cnf, sample_size=10, seed=1).evaluate(decomposition)
        large = PredictiveFunction(instance.cnf, sample_size=80, seed=1).evaluate(decomposition)
        assert large.estimate.std_error <= small.estimate.std_error


class TestSearchQuality:
    def test_tabu_beats_or_matches_random_baseline(self):
        instance = make_inversion_instance(Bivium.scaled("tiny"), keystream_length=26, seed=1)
        pdsat = PDSAT(instance, sample_size=20, seed=0)
        report = pdsat.estimate(method="tabu", stopping=StoppingCriteria(max_evaluations=40))
        random_set = random_decomposition(instance.start_set, len(report.best_decomposition), seed=9)
        random_value = pdsat.evaluate_decomposition(random_set).value
        assert report.best_value <= random_value * 1.5

    def test_tabu_beats_or_matches_start_point(self):
        instance = make_inversion_instance(Grain.scaled("tiny"), keystream_length=20, seed=0)
        pdsat = PDSAT(instance, sample_size=20, seed=1)
        start_value = pdsat.evaluate_decomposition(instance.start_set).value
        report = pdsat.estimate(method="tabu", stopping=StoppingCriteria(max_evaluations=40))
        assert report.best_value <= start_value

    def test_fixed_baseline_is_evaluable(self):
        instance = make_inversion_instance(Bivium.scaled("tiny"), keystream_length=26, seed=1)
        pdsat = PDSAT(instance, sample_size=15, seed=0)
        baseline = last_register_cells(instance, 8)
        result = pdsat.evaluate_decomposition(baseline)
        assert result.value > 0


class TestKeyRecovery:
    def test_solving_mode_recovers_secret_state_a51(self):
        instance = make_inversion_instance(A51.scaled("tiny"), keystream_length=30, seed=3)
        pdsat = PDSAT(instance, sample_size=15, seed=0)
        decomposition = instance.start_set[:7]
        report = pdsat.solve_family(decomposition)
        assert report.num_sat >= 1
        recovered = [
            instance.state_from_model(model)
            for model in report.satisfying_models
        ]
        assert any(instance.verify_state(state) for state in recovered)

    def test_weakened_series_solved_with_shared_decomposition(self):
        # The paper's Table 3 protocol: find a decomposition on instance 1 of a
        # weakened series, reuse it for the others.
        series = make_instance_series(
            Bivium.scaled("tiny"), count=2, keystream_length=26, known_bits=8, first_seed=5
        )
        first = PDSAT(series[0], sample_size=15, seed=2)
        estimation = first.estimate(method="tabu", stopping=StoppingCriteria(max_evaluations=25))
        decomposition = estimation.best_decomposition
        if len(decomposition) > 9:
            decomposition = decomposition[:9]
        for instance in series:
            runner = PDSAT(instance, sample_size=10, seed=2)
            report = runner.solve_family(decomposition)
            assert report.num_sat >= 1

    def test_cluster_extrapolation_matches_table3_structure(self):
        instance = make_inversion_instance(Geffe.tiny(), keystream_length=24, seed=6)
        pdsat = PDSAT(instance, sample_size=30, seed=1)
        estimation = pdsat.estimate(method="tabu", stopping=StoppingCriteria(max_evaluations=25))
        solving = pdsat.solve_family(estimation.best_decomposition)
        cores = 16
        predicted_parallel = estimation.predicted_on_cores(cores)
        actual_parallel = solving.makespan_on_cores(cores).makespan
        # Prediction and measured makespan must be on the same order of magnitude.
        assert actual_parallel > 0
        assert 0.1 <= predicted_parallel / max(actual_parallel, 1e-9) <= 10.0


class TestDimacsInterop:
    def test_instance_survives_dimacs_round_trip(self, tmp_path):
        from repro.sat.dimacs import parse_dimacs_file, write_dimacs_file

        instance = make_inversion_instance(Geffe.tiny(), keystream_length=24, seed=0)
        path = tmp_path / "geffe.cnf"
        write_dimacs_file(instance.cnf, path)
        loaded = parse_dimacs_file(path)
        evaluator = PredictiveFunction(loaded, sample_size=10, seed=0)
        original = PredictiveFunction(instance.cnf, sample_size=10, seed=0)
        decomposition = instance.start_set[:5]
        assert evaluator(decomposition) == original(decomposition)
