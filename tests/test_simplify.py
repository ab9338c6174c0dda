"""Tests for the SatELite-style preprocessor (UP, pure literals, subsumption, BVE, probing, BCE)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from simplify_reference import assert_same_as_reference

from repro.sat.cdcl import CDCLSolver
from repro.sat.formula import CNF
from repro.sat.random_cnf import pigeonhole, planted_ksat, random_ksat
from repro.sat.simplify import PreprocessConfig, Preprocessor, PreprocessResult
from repro.sat.solver import check_model

#: Subsumption and self-subsumption alone (no elimination, no pure literals).
SUBSUMPTION_ONLY = PreprocessConfig(variable_elimination=False, pure_literals=False)
#: Blocked clause elimination alone, after unit propagation.
BCE_ONLY = PreprocessConfig(
    subsumption=False, self_subsumption=False, variable_elimination=False,
    pure_literals=False, blocked_clause_elimination=True,
)


def _solve_status(cnf):
    return CDCLSolver().solve(cnf).status


def _full_model(cnf, model):
    return {v: model.get(v, False) for v in range(1, cnf.num_vars + 1)}


# Each rule on a small formula where it fires; every result here must also
# equal the reference walks' (tests/simplify_reference.py).


class TestSubsumption:
    def test_subsumed_clause_removed(self):
        result = assert_same_as_reference(CNF([(1, 2), (1, 2, 3), (4, 5)]), SUBSUMPTION_ONLY)
        assert result.stats.subsumed >= 1
        assert (1, 2, 3) not in result.cnf.clauses

    def test_self_subsumption_strengthens(self):
        # (1 2) and (-1 2 3): resolving on 1 gives (2 3) ⊆ (-1 2 3) minus -1,
        # so the long clause is strengthened to (2 3).
        result = assert_same_as_reference(CNF([(1, 2), (-1, 2, 3)]), SUBSUMPTION_ONLY)
        assert result.stats.strengthened >= 1
        assert all(len(clause) <= 2 for clause in result.cnf.clauses)

    def test_duplicate_clauses_collapse(self):
        result = assert_same_as_reference(CNF([(1, 2), (2, 1), (1, 2)]), SUBSUMPTION_ONLY)
        assert result.cnf.num_clauses == 1


class TestVariableElimination:
    def test_pure_variable_is_eliminated(self):
        cnf = CNF([(1, 2), (1, 3), (2, 4), (-2, -4, 3)])
        result = assert_same_as_reference(cnf, PreprocessConfig())
        assert result.stats.eliminated_variables >= 1

    def test_growth_bound_respected(self):
        # Variable 1 occurs in 3 positive and 3 negative clauses: eliminating it
        # would produce up to 9 resolvents; with max_growth=0 it must stay.
        clauses = [(1, 2), (1, 3), (1, 4), (-1, 5), (-1, 6), (-1, 7), (2, 5), (3, 6)]
        config = PreprocessConfig(
            subsumption=False, self_subsumption=False, pure_literals=False,
            max_growth=0, max_occurrences=100,
        )
        result = assert_same_as_reference(CNF(clauses), config)
        assert 1 not in result.eliminated_variables

    def test_frozen_variables_are_kept(self):
        cnf = CNF([(1, 2), (-1, 3), (2, 3)])
        result = assert_same_as_reference(cnf, PreprocessConfig(), frozen={1})
        assert 1 not in result.eliminated_variables

    def test_model_extension_covers_eliminated_variables(self):
        cnf, _ = planted_ksat(12, 40, seed=3)
        result = assert_same_as_reference(cnf, PreprocessConfig(max_growth=4, max_occurrences=50))
        assert not result.unsat
        solved = CDCLSolver().solve(result.cnf)
        assert solved.is_sat
        assert check_model(cnf, _full_model(cnf, result.reconstruct(solved.model)))


class TestBlockedClauses:
    def test_blocked_clause_removed(self):
        # (1 2) is blocked on 1: the only clause with -1 is (-1 -2) and the
        # resolvent (2 -2) is a tautology.
        result = assert_same_as_reference(CNF([(1, 2), (-1, -2), (2, 3)]), BCE_ONLY)
        assert result.stats.blocked_clauses >= 1

    def test_bce_preserves_satisfiability_and_extends_models(self):
        cnf, _ = planted_ksat(10, 30, seed=9)
        result = assert_same_as_reference(cnf, BCE_ONLY)
        solved = CDCLSolver().solve(result.cnf)
        assert solved.is_sat
        assert check_model(cnf, _full_model(cnf, result.reconstruct(solved.model)))


class TestPipeline:
    def test_unsat_input_detected(self):
        assert assert_same_as_reference(CNF([(1,), (-1,)]), PreprocessConfig()).unsat

    def test_empty_clause_detected(self):
        assert assert_same_as_reference(CNF([()]), PreprocessConfig()).unsat

    def test_unit_clauses_become_fixed_assignments(self):
        result = assert_same_as_reference(CNF([(1,), (-1, 2), (2, 3)]), PreprocessConfig())
        assert result.fixed.get(1) is True
        assert result.fixed.get(2) is True

    def test_satisfiable_formula_stays_satisfiable(self):
        cnf, _ = planted_ksat(15, 50, seed=1)
        result = assert_same_as_reference(cnf, PreprocessConfig())
        assert not result.unsat
        assert _solve_status(result.cnf) == _solve_status(cnf)

    def test_unsatisfiable_formula_stays_unsatisfiable(self):
        result = assert_same_as_reference(pigeonhole(3), PreprocessConfig())
        if not result.unsat:
            assert CDCLSolver().solve(result.cnf).is_unsat

    def test_simplified_formula_is_smaller_or_equal(self):
        cnf = random_ksat(20, 85, seed=4)
        result = assert_same_as_reference(cnf, PreprocessConfig())
        if not result.unsat:
            assert result.cnf.num_clauses <= cnf.num_clauses + len(result.eliminated_variables) * 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PreprocessConfig(max_occurrences=0)
        with pytest.raises(ValueError):
            PreprocessConfig(max_rounds=0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000), num_clauses=st.integers(min_value=10, max_value=60))
def test_property_simplification_preserves_satisfiability(seed, num_clauses):
    cnf = random_ksat(10, num_clauses, seed=seed)
    reference = CDCLSolver().solve(cnf)
    result = Preprocessor(max_growth=2).preprocess(cnf)
    if result.unsat:
        assert reference.is_unsat
    else:
        simplified = CDCLSolver().solve(result.cnf)
        assert simplified.status == reference.status
        if simplified.is_sat:
            assert check_model(cnf, _full_model(cnf, result.reconstruct(simplified.model)))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_property_bce_preserves_satisfiability(seed):
    cnf = random_ksat(9, 32, seed=seed)
    reference = CDCLSolver().solve(cnf)
    result = Preprocessor(BCE_ONLY).preprocess(cnf)
    simplified = CDCLSolver().solve(result.cnf)
    assert simplified.status == reference.status
    if simplified.is_sat:
        assert check_model(cnf, _full_model(cnf, result.reconstruct(simplified.model)))


class TestPreprocessorUnitPropagation:
    def test_unit_chain_fixed_to_fixpoint(self):
        cnf = CNF([(1,), (-1, 2), (-2, 3), (3, 4)])
        result = Preprocessor().preprocess(cnf)
        assert result.fixed == {1: True, 2: True, 3: True}
        assert not result.unsat

    def test_contradictory_units_refute(self):
        result = Preprocessor().preprocess(CNF([(1,), (-1, 2), (-2,)]))
        assert result.unsat
        assert result.cnf.clauses == [()]

    def test_frozen_fixed_variables_stay_as_unit_clauses(self):
        # Variable 1 is fixed by UP *and* frozen: the consequence must remain
        # visible as a unit clause so solve(assumptions=[-1]) can report UNSAT.
        cnf = CNF([(1,), (-1, 2), (2, 3)])
        result = Preprocessor().preprocess(cnf, frozen=[1])
        assert (1,) in result.cnf.clauses
        assert result.fixed[1] is True

    def test_nonfrozen_fixed_variables_leave_no_clauses(self):
        cnf = CNF([(1,), (-1, 2), (2, 3)])
        result = Preprocessor().preprocess(cnf)
        assert all(1 not in map(abs, clause) for clause in result.cnf.clauses)

    def test_reconstruct_restores_fixed_values(self):
        cnf = CNF([(1,), (-1, 2), (2, 3), (4, 5)])
        result = Preprocessor().preprocess(cnf)
        solved = CDCLSolver().solve(result.cnf)
        assert solved.is_sat
        model = result.reconstruct(solved.model)
        assert model[1] is True and model[2] is True
        assert check_model(cnf, _full_model(cnf, model))


class TestPreprocessorPureLiterals:
    def test_pure_literal_recorded_as_elimination(self):
        cnf = CNF([(1, 2), (1, 3), (2, -3)])
        result = Preprocessor(
            subsumption=False, self_subsumption=False, variable_elimination=False
        ).preprocess(cnf)
        assert result.stats.pure_literals >= 1
        assert 1 in result.eliminated_variables
        # Reconstruction must choose the satisfying polarity.
        model = result.reconstruct({v: False for v in range(1, cnf.num_vars + 1)})
        assert model[1] is True

    def test_frozen_variables_never_pure_eliminated(self):
        cnf = CNF([(1, 2), (1, 3), (2, -3)])
        result = Preprocessor(
            subsumption=False, self_subsumption=False, variable_elimination=False
        ).preprocess(cnf, frozen=[1])
        assert 1 not in result.eliminated_variables

    def test_cascading_pure_literals(self):
        # Eliminating 1 makes 2 pure, and so on down the chain.
        cnf = CNF([(1, -2), (2, -3), (3, 4)])
        result = Preprocessor(
            subsumption=False, self_subsumption=False, variable_elimination=False
        ).preprocess(cnf)
        assert result.cnf.num_clauses == 0
        model = result.reconstruct({})
        assert check_model(cnf, _full_model(cnf, model))


class TestPreprocessorSubsumption:
    def test_superset_clause_removed(self):
        cnf = CNF([(1, 2), (1, 2, 3), (4, 5)])
        result = Preprocessor(variable_elimination=False, pure_literals=False).preprocess(cnf)
        assert result.stats.subsumed >= 1
        assert (1, 2, 3) not in result.cnf.clauses

    def test_duplicate_clauses_deduplicated(self):
        cnf = CNF([(1, 2), (2, 1), (1, 2)])
        result = Preprocessor(variable_elimination=False, pure_literals=False).preprocess(cnf)
        assert result.cnf.num_clauses == 1

    def test_self_subsumption_strengthens(self):
        cnf = CNF([(1, 2), (-1, 2, 3)])
        result = Preprocessor(variable_elimination=False, pure_literals=False).preprocess(cnf)
        assert result.stats.strengthened >= 1
        assert all(len(clause) <= 2 for clause in result.cnf.clauses)

    def test_strengthening_to_unit_feeds_propagation(self):
        # (1) strengthens (-1 2) to (2); the unit 2 must then propagate.
        cnf = CNF([(1,), (-1, 2), (-2, 3, 4)])
        result = Preprocessor(variable_elimination=False, pure_literals=False).preprocess(cnf)
        assert result.fixed.get(2) is True


class TestPreprocessorVariableElimination:
    def test_growth_bound_respected(self):
        clauses = [(1, 2), (1, 3), (1, 4), (-1, 5), (-1, 6), (-1, 7), (2, 5), (3, 6)]
        result = Preprocessor(
            subsumption=False, self_subsumption=False, pure_literals=False,
            max_growth=0, max_occurrences=100,
        ).preprocess(CNF(clauses))
        assert 1 not in result.eliminated_variables

    def test_occurrence_limit_respected(self):
        cnf = CNF([(1, v) for v in range(2, 8)] + [(-1, v) for v in range(8, 14)])
        result = Preprocessor(max_occurrences=5).preprocess(cnf)
        assert 1 not in result.eliminated_variables

    def test_resolvent_length_cap(self):
        # Eliminating 1 would create the length-4 resolvent (2 3 4 5).
        cnf = CNF([(1, 2, 3), (-1, 4, 5), (2, 4), (3, 5)])
        capped = Preprocessor(
            max_resolvent_length=3, subsumption=False, self_subsumption=False,
            pure_literals=False,
        ).preprocess(cnf)
        assert 1 not in capped.eliminated_variables
        uncapped = Preprocessor(
            subsumption=False, self_subsumption=False, pure_literals=False
        ).preprocess(cnf)
        assert 1 in uncapped.eliminated_variables
        assert all(len(clause) <= 3 for clause in capped.cnf.clauses)

    def test_frozen_variables_survive(self):
        cnf = CNF([(1, 2), (-1, 3), (2, 3)])
        result = Preprocessor().preprocess(cnf, frozen=[1])
        assert 1 not in result.eliminated_variables

    def test_eliminated_clause_recording_reconstructs_models(self):
        cnf, _ = planted_ksat(12, 40, seed=3)
        result = Preprocessor(max_growth=4, max_occurrences=50).preprocess(cnf)
        assert not result.unsat
        solved = CDCLSolver().solve(result.cnf)
        assert solved.is_sat
        model = result.reconstruct(solved.model)
        assert check_model(cnf, _full_model(cnf, model))

    def test_empty_resolvent_refutes(self):
        result = Preprocessor(
            unit_propagation=False, subsumption=False, self_subsumption=False,
            pure_literals=False,
        ).preprocess(CNF([(1,), (-1,)]))
        assert result.unsat


class TestPreprocessorProbing:
    def test_failed_literal_is_fixed(self):
        # Assuming -1 propagates 2 and -2: conflict, so 1 must be true — but
        # no single unit clause says so.
        cnf = CNF([(1, 2), (1, -2, 3), (1, -3), (1, -2, -3), (4, 5)])
        result = Preprocessor(
            subsumption=False, self_subsumption=False, variable_elimination=False,
            pure_literals=False, failed_literal_probing=True,
        ).preprocess(cnf, frozen=[1, 2, 3, 4, 5])
        assert result.fixed.get(1) is True
        assert result.stats.failed_literals >= 1
        assert result.stats.probed_literals > 0

    def test_both_polarities_failing_refutes(self):
        cnf = CNF([(1, 2), (1, -2), (-1, 3), (-1, -3)])
        result = Preprocessor(
            subsumption=False, self_subsumption=False, variable_elimination=False,
            pure_literals=False, failed_literal_probing=True,
        ).preprocess(cnf, frozen=[1, 2, 3])
        assert result.unsat


class TestPreprocessorBlockedClauses:
    def test_blocked_clause_removed_and_repaired(self):
        cnf = CNF([(1, 2), (-1, -2), (2, 3)])
        result = Preprocessor(
            subsumption=False, self_subsumption=False, variable_elimination=False,
            pure_literals=False, blocked_clause_elimination=True,
        ).preprocess(cnf)
        assert result.stats.blocked_clauses >= 1
        solved = CDCLSolver().solve(result.cnf)
        assert solved.is_sat
        model = result.reconstruct(solved.model)
        assert check_model(cnf, _full_model(cnf, model))

    def test_frozen_blocking_literals_are_not_used(self):
        cnf = CNF([(1, 2), (-1, -2)])
        result = Preprocessor(
            subsumption=False, self_subsumption=False, variable_elimination=False,
            pure_literals=False, blocked_clause_elimination=True,
        ).preprocess(cnf, frozen=[1, 2])
        assert result.stats.blocked_clauses == 0


class TestPreprocessorContract:
    def test_frozen_out_of_range_raises_value_error(self):
        cnf = CNF([(1, 2)])
        with pytest.raises(ValueError, match="frozen variables"):
            Preprocessor().preprocess(cnf, frozen=[3])
        with pytest.raises(ValueError, match="frozen variables"):
            Preprocessor().preprocess(cnf, frozen=[0])
        with pytest.raises(ValueError, match="frozen variables"):
            Preprocessor().preprocess(cnf, frozen=[-1])

    def test_bad_config_raises_value_error(self):
        with pytest.raises(ValueError):
            PreprocessConfig(max_occurrences=0)
        with pytest.raises(ValueError):
            PreprocessConfig(max_growth=-1)
        with pytest.raises(ValueError):
            PreprocessConfig(max_resolvent_length=-2)

    def test_variable_numbering_preserved(self):
        cnf, _ = planted_ksat(15, 50, seed=11)
        result = Preprocessor().preprocess(cnf)
        assert result.cnf.num_vars == cnf.num_vars

    def test_deterministic_output(self):
        cnf, _ = planted_ksat(20, 70, seed=2)
        first = Preprocessor().preprocess(cnf, frozen=[1, 2, 3])
        second = Preprocessor().preprocess(cnf, frozen=[1, 2, 3])
        assert first.cnf.clauses == second.cnf.clauses
        assert first.reconstruction == second.reconstruction

    def test_result_dataclass_shape(self):
        cnf = CNF([(1, 2)])
        result = Preprocessor().preprocess(cnf)
        assert isinstance(result, PreprocessResult)
        assert result.original is cnf
        assert result.stats.clauses_before == 1
        assert isinstance(result.stats.to_dict(), dict)
        assert "clauses" in result.summary()

    def test_config_override_shorthand(self):
        assert Preprocessor(max_growth=5).config.max_growth == 5
        base = PreprocessConfig(max_growth=2)
        assert Preprocessor(base, max_occurrences=9).config == PreprocessConfig(
            max_growth=2, max_occurrences=9
        )

    def test_registry_factories(self):
        from repro.api.registry import get_preprocessor, list_preprocessors

        assert "satelite" in list_preprocessors()
        assert "units-only" in list_preprocessors()
        units = get_preprocessor("units-only")()
        assert units.config.variable_elimination is False
        assert get_preprocessor("satelite")(max_growth=3).config.max_growth == 3



class TestCipherEncodingReduction:
    """Default preprocessing of the weakened cipher encodings (seed 3).

    The start set is frozen, as the estimating mode does.  Every counter but
    ``wall_time`` is deterministic; these are the ``reduction`` records of the
    committed ``benchmarks/BENCH_5.json``.
    """

    EXPECTED = {
        "bivium-tiny": dict(
            vars_before=284, vars_after=146, clauses_before=1017, clauses_after=694,
            literals_before=2873, literals_after=2196, fixed_literals=31,
            pure_literals=0, subsumed=0, strengthened=0, eliminated_variables=107,
            failed_literals=0, probed_literals=0, blocked_clauses=0, rounds=2,
        ),
        "a51-tiny": dict(
            vars_before=773, vars_after=454, clauses_before=2945, clauses_after=2334,
            literals_before=8615, literals_after=7964, fixed_literals=29,
            pure_literals=0, subsumed=2, strengthened=2, eliminated_variables=290,
            failed_literals=0, probed_literals=0, blocked_clauses=0, rounds=3,
        ),
    }

    @pytest.mark.parametrize("cipher", sorted(EXPECTED))
    def test_reduction_counters_are_exact(self, cipher):
        from repro.api.registry import get_cipher
        from repro.problems import make_inversion_instance

        instance = make_inversion_instance(get_cipher(cipher)(), seed=3)
        result = Preprocessor().preprocess(instance.cnf, frozen=frozenset(instance.start_set))
        counters = result.stats.to_dict()
        del counters["wall_time"]
        assert counters == self.EXPECTED[cipher]


class TestSolverSimplifyKnob:
    """``CDCLSolver.load`` validates the frozen set and never preprocesses;
    ``inprocess()`` simplifies the loaded database on request."""

    def test_frozen_out_of_range_raises_on_load(self):
        with pytest.raises(ValueError, match="frozen variables"):
            CDCLSolver().load(CNF([(1, 2)]), frozen=[5])

    def test_assumption_on_eliminated_variable_raises(self):
        cnf, _ = planted_ksat(14, 46, seed=8)
        solver = CDCLSolver().load(cnf, frozen=[1])
        solver.inprocess()
        eliminated = sorted(solver.eliminated_variables)
        assert eliminated, "expected the planted instance to lose variables"
        with pytest.raises(ValueError, match="eliminated or fixed by preprocessing"):
            solver.solve(assumptions=[eliminated[0]])

    def test_globally_unsat_after_preprocessing(self):
        # No unit at the root, so load() refutes nothing; inprocessing
        # strengthens the clauses to contradictory units.
        cnf = CNF([(1, 2), (1, -2), (-1, 2), (-1, -2)])
        solver = CDCLSolver().load(cnf)
        assert solver.inprocess().unsat
        assert solver.unassumable_variables == frozenset()
        assert solver.solve().status.value == "UNSAT"
        assert solver.solve(assumptions=[1]).status.value == "UNSAT"

    def test_custom_preprocessor_honoured(self):
        cnf, _ = planted_ksat(14, 46, seed=8)
        solver = CDCLSolver().load(cnf)
        solver.inprocess(
            Preprocessor(
                subsumption=False, self_subsumption=False, variable_elimination=False,
                pure_literals=False,
            )
        )
        assert solver.eliminated_variables == frozenset()
        assert solver.presolve is not None

    def test_batch_after_inprocess_keeps_the_frozen_set(self):
        # A batch solves the loaded formula fresh, which drops the
        # inprocessing; the variables frozen at load stay frozen, so the next
        # inprocess() must not eliminate one of them.
        cnf, _ = planted_ksat(16, 55, seed=4)
        frozen = frozenset({1, 2, 3, 4})
        solver = CDCLSolver().load(cnf, frozen=sorted(frozen))
        solver.inprocess()
        solver.solve_batch([[1], [-1]])
        assert solver.presolve is None
        solver.inprocess()
        assert not solver.unassumable_variables & frozen
        assert solver.solve(assumptions=[-4]).status is CDCLSolver().solve(cnf, [-4]).status

    def test_simplify_off_has_no_presolve(self):
        cnf = CNF([(1, 2)])
        solver = CDCLSolver().load(cnf)
        assert solver.presolve is None
        assert solver.eliminated_variables == frozenset()


class TestPredictiveFunctionFrozenPlumbing:
    """The frozen-variable contract, kept by ``load(cnf, frozen)`` then ``inprocess()``."""

    def test_assumption_on_nonfrozen_fixed_variable_raises(self):
        # Var 1 is root-fixed by UP but NOT frozen: its clauses are gone from
        # the inprocessed database, so assuming against it could silently
        # return SAT on a query the original formula refutes.  It must raise.
        cnf = CNF([(1,), (2, 3)], 3)
        solver = CDCLSolver().load(cnf, frozen=[2])
        solver.inprocess()
        with pytest.raises(ValueError, match="eliminated or fixed by preprocessing"):
            solver.solve(assumptions=[-1])
        with pytest.raises(ValueError, match="eliminated or fixed by preprocessing"):
            solver.solve(assumptions=[1])  # even the agreeing polarity
        # Freezing the variable instead keeps it assumable and sound.
        frozen_solver = CDCLSolver().load(cnf, frozen=[1, 2])
        frozen_solver.inprocess()
        assert frozen_solver.solve(assumptions=[-1]).status.value == "UNSAT"
        assert frozen_solver.solve(assumptions=[1]).status.value == "SAT"

    def test_unassumable_variables_property(self):
        cnf = CNF([(1,), (2, 3)], 3)
        solver = CDCLSolver().load(cnf, frozen=[2])
        assert solver.unassumable_variables == frozenset()
        solver.inprocess()
        assert 1 in solver.unassumable_variables
        assert 2 not in solver.unassumable_variables
