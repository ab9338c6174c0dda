"""Correctness tests for the CDCL solver."""

from __future__ import annotations

import pytest

from repro.sat.cdcl import CDCLConfig, CDCLSolver
from repro.sat.dpll import DPLLSolver
from repro.sat.formula import CNF
from repro.sat.random_cnf import pigeonhole, planted_ksat, random_ksat, random_unsat_core
from repro.sat.solver import SolverBudget, SolverStatus, check_model


class TestBasicCases:
    def test_empty_formula_is_sat(self, cdcl):
        result = cdcl.solve(CNF())
        assert result.status is SolverStatus.SAT

    def test_single_unit_clause(self, cdcl):
        result = cdcl.solve(CNF([(3,)]))
        assert result.is_sat
        assert result.model[3] is True

    def test_contradictory_units(self, cdcl):
        result = cdcl.solve(CNF([(1,), (-1,)]))
        assert result.is_unsat

    def test_empty_clause_is_unsat(self, cdcl):
        result = cdcl.solve(CNF([()], num_vars=2))
        assert result.is_unsat

    def test_unique_model(self, cdcl, tiny_sat_cnf):
        result = cdcl.solve(tiny_sat_cnf)
        assert result.is_sat
        assert result.model[1] is True
        assert result.model[2] is False
        assert result.model[3] is True

    def test_small_unsat(self, cdcl, tiny_unsat_cnf):
        assert cdcl.solve(tiny_unsat_cnf).is_unsat

    def test_tautological_clause_is_ignored(self, cdcl):
        result = cdcl.solve(CNF([(1, -1), (2,)]))
        assert result.is_sat
        assert result.model[2] is True

    def test_duplicate_literals_are_handled(self, cdcl):
        result = cdcl.solve(CNF([(1, 1, 2), (-1, -1)]))
        assert result.is_sat
        assert result.model[1] is False

    def test_unconstrained_variables_get_values(self, cdcl):
        cnf = CNF([(1,)], num_vars=5)
        result = cdcl.solve(cnf)
        assert result.is_sat
        assert set(result.model) == {1, 2, 3, 4, 5}

    def test_model_satisfies_formula(self, cdcl):
        cnf = CNF([(1, 2, 3), (-1, -2), (-2, -3), (2, 3)])
        result = cdcl.solve(cnf)
        assert result.is_sat
        assert check_model(cnf, result.model)


class TestAgainstDPLL:
    """Differential testing: CDCL and DPLL must agree on random instances."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_3sat_at_threshold(self, cdcl, dpll, seed):
        cnf = random_ksat(25, 106, k=3, seed=seed)
        cdcl_result = cdcl.solve(cnf)
        dpll_result = dpll.solve(cnf)
        assert cdcl_result.status == dpll_result.status
        if cdcl_result.is_sat:
            assert check_model(cnf, cdcl_result.model)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_2sat(self, cdcl, dpll, seed):
        cnf = random_ksat(30, 60, k=2, seed=seed)
        assert cdcl.solve(cnf).status == dpll.solve(cnf).status

    @pytest.mark.parametrize("seed", range(6))
    def test_random_4sat(self, cdcl, dpll, seed):
        cnf = random_ksat(20, 180, k=4, seed=seed)
        assert cdcl.solve(cnf).status == dpll.solve(cnf).status


class TestStructuredInstances:
    def test_planted_instances_are_sat(self, cdcl):
        for seed in range(5):
            cnf, _ = planted_ksat(40, 160, seed=seed)
            result = cdcl.solve(cnf)
            assert result.is_sat
            assert check_model(cnf, result.model)

    def test_pigeonhole_unsat(self, cdcl):
        for holes in (2, 3, 4, 5):
            assert cdcl.solve(pigeonhole(holes)).is_unsat

    def test_implication_chain_unsat(self, cdcl):
        for seed in range(5):
            assert cdcl.solve(random_unsat_core(30, seed=seed)).is_unsat

    def test_xor_chain(self, cdcl):
        # x1 xor x2 = 1, x2 xor x3 = 1, x3 xor x1 = 1 is unsatisfiable.
        cnf = CNF(
            [
                (1, 2), (-1, -2),
                (2, 3), (-2, -3),
                (3, 1), (-3, -1),
            ]
        )
        assert cdcl.solve(cnf).is_unsat


class TestAssumptions:
    def test_assumption_fixes_variable(self, cdcl):
        cnf = CNF([(1, 2)])
        result = cdcl.solve(cnf, assumptions=[-1])
        assert result.is_sat
        assert result.model[1] is False
        assert result.model[2] is True

    def test_conflicting_assumptions_give_unsat(self, cdcl):
        cnf = CNF([(1, 2)])
        assert cdcl.solve(cnf, assumptions=[-1, -2]).is_unsat

    def test_assumption_conflicting_with_unit(self, cdcl):
        cnf = CNF([(5,)])
        assert cdcl.solve(cnf, assumptions=[-5]).is_unsat

    def test_assumptions_equal_unit_clauses(self, cdcl):
        cnf = random_ksat(20, 85, seed=3)
        assumption = [1, -2, 3]
        with_assumptions = cdcl.solve(cnf, assumptions=assumption)
        with_units = cdcl.solve(cnf.with_unit_clauses({1: True, 2: False, 3: True}))
        assert with_assumptions.status == with_units.status

    def test_flipping_model_variable(self, cdcl):
        cnf = CNF([(1,), (-1, 2)])
        base = cdcl.solve(cnf)
        assert base.is_sat
        flipped = cdcl.solve(cnf, assumptions=[-2])
        assert flipped.is_unsat


class TestBudgets:
    def test_conflict_budget_returns_unknown(self, cdcl):
        result = cdcl.solve(pigeonhole(8), budget=SolverBudget(max_conflicts=20))
        assert result.status is SolverStatus.UNKNOWN
        assert result.stats.conflicts >= 20

    def test_decision_budget(self, cdcl):
        result = cdcl.solve(pigeonhole(8), budget=SolverBudget(max_decisions=10))
        assert result.status is SolverStatus.UNKNOWN

    def test_propagation_budget(self, cdcl):
        result = cdcl.solve(pigeonhole(8), budget=SolverBudget(max_propagations=50))
        assert result.status is SolverStatus.UNKNOWN

    def test_generous_budget_still_solves(self, cdcl):
        result = cdcl.solve(pigeonhole(4), budget=SolverBudget(max_conflicts=10_000))
        assert result.is_unsat


class TestDeterminism:
    def test_same_input_same_counters(self):
        cnf = random_ksat(40, 170, seed=11)
        first = CDCLSolver().solve(cnf)
        second = CDCLSolver().solve(cnf)
        assert first.status == second.status
        assert first.stats.conflicts == second.stats.conflicts
        assert first.stats.decisions == second.stats.decisions
        assert first.stats.propagations == second.stats.propagations

    def test_stats_are_populated(self, cdcl):
        result = cdcl.solve(random_ksat(30, 128, seed=2))
        assert result.stats.propagations > 0
        assert result.stats.wall_time > 0

    def test_conflict_activity_reports_only_bumped_variables(self, cdcl):
        cnf = random_ksat(25, 107, seed=4)
        result = cdcl.solve(cnf)
        assert result.stats.conflicts > 0
        assert result.conflict_activity
        assert set(result.conflict_activity) <= set(range(1, 26))
        assert all(value > 0 for value in result.conflict_activity.values())
        # Without a conflict nothing is bumped, and nothing is reported.
        assert cdcl.solve(CNF([(1, 2), (2, 3)])).conflict_activity == {}


class TestConfigurations:
    @pytest.mark.parametrize(
        "config",
        [
            CDCLConfig(use_luby_restarts=False),
            CDCLConfig(phase_saving=False),
            CDCLConfig(clause_minimization=False),
            CDCLConfig(default_phase=True),
            CDCLConfig(restart_base=20),
            CDCLConfig(var_decay=0.8, clause_decay=0.99),
        ],
    )
    def test_variants_agree_with_reference(self, config):
        reference = DPLLSolver()
        solver = CDCLSolver(config)
        for seed in range(4):
            cnf = random_ksat(22, 94, seed=seed)
            assert solver.solve(cnf).status == reference.solve(cnf).status

    def test_learned_clause_reduction_happens_on_long_runs(self):
        solver = CDCLSolver(CDCLConfig(learntsize_factor=0.01))
        result = solver.solve(pigeonhole(6))
        assert result.is_unsat
        assert result.stats.deleted_clauses > 0
