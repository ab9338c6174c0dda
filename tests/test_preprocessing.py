"""Tests for the unit propagation closure."""

from __future__ import annotations

from repro.sat.formula import CNF
from repro.sat.preprocessing import unit_propagate


class TestUnitPropagation:
    def test_propagates_chain(self):
        cnf = CNF([(1,), (-1, 2), (-2, 3)])
        result = unit_propagate(cnf)
        assert not result.conflict
        assert result.assignment == {1: True, 2: True, 3: True}
        assert result.simplified.num_clauses == 0

    def test_detects_conflict(self):
        cnf = CNF([(1,), (-1, 2), (-2,)])
        result = unit_propagate(cnf)
        assert result.conflict

    def test_initial_assignment_is_used(self):
        cnf = CNF([(-1, 2)])
        result = unit_propagate(cnf, {1: True})
        assert result.assignment[2] is True

    def test_initial_assignment_kept_in_closure(self):
        cnf = CNF([(1, 2)])
        result = unit_propagate(cnf, {3: False})
        assert result.assignment[3] is False

    def test_no_units_leaves_formula_untouched(self):
        cnf = CNF([(1, 2), (-1, -2)])
        result = unit_propagate(cnf)
        assert not result.conflict
        assert result.assignment == {}
        assert result.simplified.clauses == [(1, 2), (-1, -2)]

    def test_satisfied_clauses_removed(self):
        cnf = CNF([(1,), (1, 2, 3), (-1, 2)])
        result = unit_propagate(cnf)
        assert result.assignment == {1: True, 2: True}
        assert result.simplified.num_clauses == 0

    def test_fixed_variables_property(self):
        cnf = CNF([(4,), (-4, 7)])
        result = unit_propagate(cnf)
        assert result.fixed_variables == {4, 7}

