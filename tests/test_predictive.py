"""Tests for the Monte Carlo predictive function."""

from __future__ import annotations

import pytest

from repro.ciphers import Geffe
from repro.core.predictive import PredictiveFunction
from repro.problems import make_inversion_instance
from repro.sat.formula import CNF
from repro.sat.random_cnf import random_ksat
from repro.sat.solver import SolverBudget, SolverStatus


@pytest.fixture(scope="module")
def geffe_cnf():
    instance = make_inversion_instance(Geffe.tiny(), keystream_length=24, seed=3)
    return instance


class TestEvaluation:
    def test_value_is_two_to_d_times_mean(self, geffe_cnf):
        evaluator = PredictiveFunction(geffe_cnf.cnf, sample_size=16, seed=1)
        result = evaluator.evaluate(geffe_cnf.start_set[:5])
        mean = sum(obs.cost for obs in result.observations) / len(result.observations)
        assert result.value == pytest.approx((2**5) * mean)

    def test_observation_count_matches_sample_size(self, geffe_cnf):
        evaluator = PredictiveFunction(geffe_cnf.cnf, sample_size=7, seed=0)
        result = evaluator.evaluate(geffe_cnf.start_set[:4])
        assert len(result.observations) == 7
        assert result.sample_size == 7

    def test_costs_are_nonnegative(self, geffe_cnf):
        evaluator = PredictiveFunction(geffe_cnf.cnf, sample_size=10, seed=0)
        result = evaluator.evaluate(geffe_cnf.start_set[:6])
        assert all(obs.cost >= 0 for obs in result.observations)

    def test_empty_decomposition_rejected(self, geffe_cnf):
        evaluator = PredictiveFunction(geffe_cnf.cnf, sample_size=5)
        with pytest.raises(ValueError):
            evaluator.evaluate([])

    def test_invalid_sample_size(self, geffe_cnf):
        with pytest.raises(ValueError):
            PredictiveFunction(geffe_cnf.cnf, sample_size=0)

    def test_invalid_substitution_mode(self, geffe_cnf):
        with pytest.raises(ValueError):
            PredictiveFunction(geffe_cnf.cnf, substitution_mode="magic")

    def test_callable_shorthand(self, geffe_cnf):
        evaluator = PredictiveFunction(geffe_cnf.cnf, sample_size=8, seed=2)
        value = evaluator(geffe_cnf.start_set[:4])
        assert value == evaluator.evaluate(geffe_cnf.start_set[:4]).value

    def test_full_backdoor_start_set_is_cheap(self, geffe_cnf):
        # Substituting the whole SUPBS (as unit clauses, like PDSAT shipping
        # sub-instances) makes every sub-problem solvable by unit propagation
        # alone, so the CDCL solver records zero conflicts.
        evaluator = PredictiveFunction(
            geffe_cnf.cnf,
            sample_size=12,
            cost_measure="conflicts",
            seed=0,
            substitution_mode="units",
        )
        result = evaluator.evaluate(geffe_cnf.start_set)
        assert result.mean_cost == 0.0

    def test_confidence_interval_contains_value(self, geffe_cnf):
        evaluator = PredictiveFunction(geffe_cnf.cnf, sample_size=20, seed=5)
        result = evaluator.evaluate(geffe_cnf.start_set[:6])
        low, high = result.confidence_interval
        assert low <= result.value <= high

    def test_value_on_cores(self, geffe_cnf):
        evaluator = PredictiveFunction(geffe_cnf.cnf, sample_size=10, seed=0)
        result = evaluator.evaluate(geffe_cnf.start_set[:5])
        assert result.value_on_cores(4) == pytest.approx(result.value / 4)
        with pytest.raises(ValueError):
            result.value_on_cores(0)

    def test_summary_format(self, geffe_cnf):
        evaluator = PredictiveFunction(geffe_cnf.cnf, sample_size=5, seed=0)
        summary = evaluator.evaluate(geffe_cnf.start_set[:3]).summary()
        assert "F =" in summary
        assert "N = 5" in summary


class TestDeterminismAndCaching:
    def test_same_seed_same_result(self, geffe_cnf):
        a = PredictiveFunction(geffe_cnf.cnf, sample_size=10, seed=9)
        b = PredictiveFunction(geffe_cnf.cnf, sample_size=10, seed=9)
        assert a(geffe_cnf.start_set[:6]) == b(geffe_cnf.start_set[:6])

    def test_different_seed_can_differ(self, geffe_cnf):
        a = PredictiveFunction(geffe_cnf.cnf, sample_size=5, seed=1)
        b = PredictiveFunction(geffe_cnf.cnf, sample_size=5, seed=2)
        set_vars = geffe_cnf.start_set[:6]
        # Not guaranteed to differ, but the sampled assignments must differ.
        bits_a = [obs.assignment_bits for obs in a.evaluate(set_vars).observations]
        bits_b = [obs.assignment_bits for obs in b.evaluate(set_vars).observations]
        assert bits_a != bits_b

    def test_cache_avoids_resolving(self, geffe_cnf):
        evaluator = PredictiveFunction(geffe_cnf.cnf, sample_size=6, seed=0)
        evaluator.evaluate(geffe_cnf.start_set[:4])
        solves_after_first = evaluator.num_subproblem_solves
        evaluator.evaluate(geffe_cnf.start_set[:4])
        assert evaluator.num_subproblem_solves == solves_after_first
        assert evaluator.num_evaluations == 1

    def test_is_cached(self, geffe_cnf):
        evaluator = PredictiveFunction(geffe_cnf.cnf, sample_size=4, seed=0)
        assert not evaluator.is_cached(geffe_cnf.start_set[:3])
        evaluator.evaluate(geffe_cnf.start_set[:3])
        assert evaluator.is_cached(geffe_cnf.start_set[:3])

    def test_cached_results_listing(self, geffe_cnf):
        evaluator = PredictiveFunction(geffe_cnf.cnf, sample_size=4, seed=0)
        evaluator.evaluate(geffe_cnf.start_set[:3])
        evaluator.evaluate(geffe_cnf.start_set[:5])
        assert len(evaluator.cached_results()) == 2

    def test_accumulated_activity_grows(self, geffe_cnf):
        evaluator = PredictiveFunction(geffe_cnf.cnf, sample_size=8, seed=0)
        evaluator.evaluate(geffe_cnf.start_set[:6])
        assert isinstance(evaluator.accumulated_activity, dict)


class TestSubstitutionModes:
    def test_units_mode_agrees_with_assumptions_on_status(self, geffe_cnf):
        set_vars = geffe_cnf.start_set[:5]
        by_assumptions = PredictiveFunction(
            geffe_cnf.cnf, sample_size=6, seed=4, substitution_mode="assumptions"
        ).evaluate(set_vars)
        by_units = PredictiveFunction(
            geffe_cnf.cnf, sample_size=6, seed=4, substitution_mode="units"
        ).evaluate(set_vars)
        statuses_a = [obs.status for obs in by_assumptions.observations]
        statuses_u = [obs.status for obs in by_units.observations]
        assert statuses_a == statuses_u


class TestCostMeasures:
    @pytest.mark.parametrize("measure", ["conflicts", "decisions", "propagations", "weighted", "wall_time"])
    def test_all_measures_work(self, geffe_cnf, measure):
        evaluator = PredictiveFunction(geffe_cnf.cnf, sample_size=5, cost_measure=measure, seed=0)
        result = evaluator.evaluate(geffe_cnf.start_set[:4])
        assert result.value >= 0

    def test_budgeted_subproblems_flagged_unknown(self):
        cnf = random_ksat(40, 180, seed=1)
        evaluator = PredictiveFunction(
            cnf,
            sample_size=4,
            seed=0,
            subproblem_budget=SolverBudget(max_propagations=5),
        )
        result = evaluator.evaluate([1, 2])
        assert all(obs.status is SolverStatus.UNKNOWN or obs.cost >= 0 for obs in result.observations)


class TestExhaustive:
    def test_exhaustive_matches_full_enumeration(self):
        instance = make_inversion_instance(Geffe.tiny(), keystream_length=20, seed=0)
        evaluator = PredictiveFunction(instance.cnf, sample_size=4, seed=0)
        total, costs = evaluator.exhaustive_value(instance.start_set[:4])
        assert len(costs) == 16
        assert total == pytest.approx(sum(costs))

    def test_exhaustive_guards_large_sets(self):
        cnf = CNF([(i, i + 1) for i in range(1, 30)])
        evaluator = PredictiveFunction(cnf, sample_size=2)
        with pytest.raises(ValueError):
            evaluator.exhaustive_value(list(range(1, 21)), max_subproblems=1024)

    def test_estimate_tracks_exhaustive_truth(self):
        # With a large sample relative to 2^d the estimate should be close to
        # the true total cost.
        instance = make_inversion_instance(Geffe.tiny(), keystream_length=20, seed=1)
        decomposition = instance.start_set[:5]
        evaluator = PredictiveFunction(instance.cnf, sample_size=64, seed=7)
        estimate = evaluator.evaluate(decomposition).value
        truth, _ = PredictiveFunction(instance.cnf, sample_size=1, seed=0).exhaustive_value(
            decomposition
        )
        assert estimate == pytest.approx(truth, rel=0.5)


#: Every sample-cache setting: the default, off, and an evicting capacity of 4.
CACHES = [{}, {"sample_cache_size": None}, {"sample_cache_size": 4}]


class TestExhaustiveOnIncrementalEvaluators:
    """An incremental evaluator's ``t`` is fresh solves', and computing it changes nothing."""

    @pytest.fixture(scope="class")
    def instance(self):
        from repro.api.specs import InstanceSpec

        return InstanceSpec(cipher="geffe-tiny", seed=1).build()

    @pytest.mark.parametrize("cache", CACHES, ids=["default", "off", "evicting"])
    def test_exhaustive_value_equals_the_fresh_evaluators(self, instance, cache):
        start = instance.start_set
        totals = []
        for incremental in (True, False):
            evaluator = PredictiveFunction(
                instance.cnf, sample_size=20, seed=3, incremental=incremental, **cache
            )
            evaluator.evaluate(start[:3])
            evaluator.evaluate(start[2:6])
            totals.append(evaluator.exhaustive_value(start[2:6]))
        assert totals[0] == totals[1]
        assert totals[0][0] == 593.0

    @pytest.mark.parametrize("cache", CACHES, ids=["default", "off", "evicting"])
    def test_exhaustive_value_leaves_later_evaluations_alone(self, instance, cache):
        start = instance.start_set
        results = []
        for exhaustive_between in (True, False):
            evaluator = PredictiveFunction(
                instance.cnf, sample_size=20, seed=3, incremental=True, **cache
            )
            evaluator.evaluate(start[:3])
            if exhaustive_between:
                evaluator.exhaustive_value(start[2:6])
            result = evaluator.evaluate(start[2:6])
            results.append(
                (result.value, [(o.status, o.cost, o.cached) for o in result.observations])
            )
        assert results[0] == results[1]
