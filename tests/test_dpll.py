"""Tests for the DPLL reference solver."""

from __future__ import annotations

from repro.sat.dpll import DPLLSolver
from repro.sat.formula import CNF
from repro.sat.random_cnf import pigeonhole, planted_ksat, random_ksat
from repro.sat.solver import SolverBudget, SolverStatus, check_model


class TestBasics:
    def test_empty_formula(self, dpll):
        assert dpll.solve(CNF()).is_sat

    def test_unit_clauses(self, dpll):
        result = dpll.solve(CNF([(1,), (-2,)]))
        assert result.is_sat
        assert result.model[1] is True
        assert result.model[2] is False

    def test_empty_clause(self, dpll):
        assert dpll.solve(CNF([()], num_vars=1)).is_unsat

    def test_unique_model(self, dpll, tiny_sat_cnf):
        result = dpll.solve(tiny_sat_cnf)
        assert result.is_sat
        assert (result.model[1], result.model[2], result.model[3]) == (True, False, True)

    def test_unsat(self, dpll, tiny_unsat_cnf):
        assert dpll.solve(tiny_unsat_cnf).is_unsat

    def test_tautology_ignored(self, dpll):
        assert dpll.solve(CNF([(1, -1)])).is_sat

    def test_model_covers_all_variables(self, dpll):
        result = dpll.solve(CNF([(2,)], num_vars=4))
        assert set(result.model) == {1, 2, 3, 4}

    def test_model_satisfies_formula(self, dpll):
        cnf, _ = planted_ksat(20, 80, seed=1)
        result = dpll.solve(cnf)
        assert result.is_sat
        assert check_model(cnf, result.model)


class TestAssumptions:
    def test_assumptions_are_respected(self, dpll):
        result = dpll.solve(CNF([(1, 2)]), assumptions=[-1])
        assert result.is_sat
        assert result.model[2] is True

    def test_conflicting_assumptions(self, dpll):
        assert dpll.solve(CNF([(1,)]), assumptions=[-1]).is_unsat


class TestStructured:
    def test_pigeonhole(self, dpll):
        assert dpll.solve(pigeonhole(3)).is_unsat

    def test_budget_gives_unknown(self, dpll):
        result = dpll.solve(pigeonhole(7), budget=SolverBudget(max_decisions=5))
        assert result.status is SolverStatus.UNKNOWN

    def test_pure_literal_toggle_agrees(self):
        with_pure = DPLLSolver(use_pure_literals=True)
        without_pure = DPLLSolver(use_pure_literals=False)
        for seed in range(5):
            cnf = random_ksat(18, 76, seed=seed)
            assert with_pure.solve(cnf).status == without_pure.solve(cnf).status

    def test_stats_recorded(self, dpll):
        result = dpll.solve(random_ksat(15, 64, seed=0))
        assert result.stats.wall_time > 0
        assert result.stats.decisions >= 0
