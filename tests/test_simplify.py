"""Tests for the SatELite-style simplifier (subsumption, self-subsumption, BVE, BCE)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat.cdcl import CDCLSolver
from repro.sat.formula import CNF
from repro.sat.random_cnf import pigeonhole, planted_ksat, random_ksat
from repro.sat.simplify import SimplifyConfig, simplify_cnf
from repro.sat.solver import check_model


def _solve_status(cnf):
    return CDCLSolver().solve(cnf).status


class TestSubsumption:
    def test_subsumed_clause_removed(self):
        cnf = CNF([(1, 2), (1, 2, 3), (4, 5)])
        result = simplify_cnf(cnf, SimplifyConfig(variable_elimination=False))
        assert result.removed_subsumed >= 1
        assert (1, 2, 3) not in result.cnf.clauses

    def test_self_subsumption_strengthens(self):
        # (1 2) and (-1 2 3): resolving on 1 gives (2 3) ⊆ (-1 2 3) minus -1,
        # so the long clause is strengthened to (2 3).
        cnf = CNF([(1, 2), (-1, 2, 3)])
        result = simplify_cnf(cnf, SimplifyConfig(variable_elimination=False))
        assert result.strengthened >= 1
        assert all(len(clause) <= 2 for clause in result.cnf.clauses)

    def test_duplicate_clauses_collapse(self):
        cnf = CNF([(1, 2), (2, 1), (1, 2)])
        result = simplify_cnf(cnf, SimplifyConfig(variable_elimination=False))
        assert result.cnf.num_clauses == 1


class TestVariableElimination:
    def test_pure_variable_is_eliminated(self):
        cnf = CNF([(1, 2), (1, 3), (2, 4), (-2, -4, 3)])
        result = simplify_cnf(cnf)
        assert result.num_eliminated_variables >= 1

    def test_growth_bound_respected(self):
        # Variable 1 occurs in 3 positive and 3 negative clauses: eliminating it
        # would produce up to 9 resolvents; with max_growth=0 it must stay.
        clauses = [(1, 2), (1, 3), (1, 4), (-1, 5), (-1, 6), (-1, 7), (2, 5), (3, 6)]
        cnf = CNF(clauses)
        result = simplify_cnf(
            cnf, SimplifyConfig(subsumption=False, max_growth=0, max_occurrences=100)
        )
        eliminated_vars = {var for var, _ in result.eliminated}
        assert 1 not in eliminated_vars

    def test_frozen_variables_are_kept(self):
        cnf = CNF([(1, 2), (-1, 3), (2, 3)])
        result = simplify_cnf(cnf, SimplifyConfig(frozen=frozenset({1})))
        eliminated_vars = {var for var, _ in result.eliminated}
        assert 1 not in eliminated_vars

    def test_model_extension_covers_eliminated_variables(self):
        cnf, _ = planted_ksat(12, 40, seed=3)
        result = simplify_cnf(cnf, SimplifyConfig(max_growth=4, max_occurrences=50))
        assert not result.unsat
        solved = CDCLSolver().solve(result.cnf)
        assert solved.is_sat
        extended = result.extend_model(solved.model)
        assert check_model(cnf, {v: extended.get(v, False) for v in range(1, cnf.num_vars + 1)})


class TestBlockedClauses:
    def test_blocked_clause_removed(self):
        # (1 2) is blocked on 1: the only clause with -1 is (-1 -2) and the
        # resolvent (2 -2) is a tautology.
        cnf = CNF([(1, 2), (-1, -2), (2, 3)])
        result = simplify_cnf(
            cnf,
            SimplifyConfig(
                subsumption=False,
                variable_elimination=False,
                blocked_clause_elimination=True,
            ),
        )
        assert result.removed_blocked >= 1

    def test_bce_preserves_satisfiability_and_extends_models(self):
        cnf, _ = planted_ksat(10, 30, seed=9)
        result = simplify_cnf(
            cnf,
            SimplifyConfig(
                subsumption=False,
                variable_elimination=False,
                blocked_clause_elimination=True,
            ),
        )
        solved = CDCLSolver().solve(result.cnf)
        assert solved.is_sat
        extended = result.extend_model(solved.model)
        assert check_model(cnf, {v: extended.get(v, False) for v in range(1, cnf.num_vars + 1)})


class TestPipeline:
    def test_unsat_input_detected(self):
        cnf = CNF([(1,), (-1,)])
        result = simplify_cnf(cnf)
        assert result.unsat

    def test_empty_clause_detected(self):
        result = simplify_cnf(CNF([()]))
        assert result.unsat

    def test_unit_clauses_become_fixed_assignments(self):
        cnf = CNF([(1,), (-1, 2), (2, 3)])
        result = simplify_cnf(cnf)
        assert result.fixed.get(1) is True
        assert result.fixed.get(2) is True

    def test_satisfiable_formula_stays_satisfiable(self):
        cnf, _ = planted_ksat(15, 50, seed=1)
        result = simplify_cnf(cnf)
        assert not result.unsat
        assert _solve_status(result.cnf) == _solve_status(cnf)

    def test_unsatisfiable_formula_stays_unsatisfiable(self):
        cnf = pigeonhole(3)
        result = simplify_cnf(cnf)
        if not result.unsat:
            assert CDCLSolver().solve(result.cnf).is_unsat

    def test_simplified_formula_is_smaller_or_equal(self):
        cnf = random_ksat(20, 85, seed=4)
        result = simplify_cnf(cnf)
        if not result.unsat:
            assert result.cnf.num_clauses <= cnf.num_clauses + result.num_eliminated_variables * 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimplifyConfig(max_occurrences=0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000), num_clauses=st.integers(min_value=10, max_value=60))
def test_property_simplification_preserves_satisfiability(seed, num_clauses):
    cnf = random_ksat(10, num_clauses, seed=seed)
    reference = CDCLSolver().solve(cnf)
    result = simplify_cnf(cnf, SimplifyConfig(max_growth=2))
    if result.unsat:
        assert reference.is_unsat
    else:
        simplified = CDCLSolver().solve(result.cnf)
        assert simplified.status == reference.status
        if simplified.is_sat:
            extended = result.extend_model(simplified.model)
            full = {v: extended.get(v, False) for v in range(1, cnf.num_vars + 1)}
            assert check_model(cnf, full)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_property_bce_preserves_satisfiability(seed):
    cnf = random_ksat(9, 32, seed=seed)
    reference = CDCLSolver().solve(cnf)
    result = simplify_cnf(
        cnf,
        SimplifyConfig(
            subsumption=False, variable_elimination=False, blocked_clause_elimination=True
        ),
    )
    simplified = CDCLSolver().solve(result.cnf)
    assert simplified.status == reference.status
    if simplified.is_sat:
        extended = result.extend_model(simplified.model)
        full = {v: extended.get(v, False) for v in range(1, cnf.num_vars + 1)}
        assert check_model(cnf, full)


# ======================================================================
# The production Preprocessor (PR 5): per-rule units + integration contract.
# ======================================================================

from repro.sat.cdcl.config import CDCLConfig  # noqa: E402
from repro.sat.simplify import (  # noqa: E402
    PreprocessConfig,
    Preprocessor,
    PreprocessResult,
)


def _full_model(cnf, model):
    return {v: model.get(v, False) for v in range(1, cnf.num_vars + 1)}


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
    """CDCLConfig.simplify: preprocessing inside CDCLSolver.load()."""

    def test_one_shot_model_covers_original_formula(self):
        cnf, _ = planted_ksat(14, 46, seed=8)
        result = CDCLSolver(CDCLConfig(simplify=True)).solve(cnf)
        assert result.is_sat
        assert check_model(cnf, result.model)

    def test_incremental_contract_with_frozen_assumptions(self):
        cnf, _ = planted_ksat(16, 55, seed=4)
        frozen = [1, 2, 3, 4]
        plain = CDCLSolver().load(cnf)
        simplifying = CDCLSolver(CDCLConfig(simplify=True)).load(cnf, frozen=frozen)
        for assumptions in ([1, -2], [-1, 2, 3], [4], [-3, -4], [1, 2, 3, 4]):
            expected = plain.solve(assumptions=assumptions)
            got = simplifying.solve(assumptions=assumptions)
            assert got.status is expected.status, assumptions
            if got.is_sat:
                assert check_model(cnf, got.model)
                for literal in assumptions:
                    assert got.model[abs(literal)] == (literal > 0)

    def test_assumption_on_eliminated_variable_raises(self):
        cnf, _ = planted_ksat(14, 46, seed=8)
        solver = CDCLSolver(CDCLConfig(simplify=True)).load(cnf, frozen=[1])
        eliminated = sorted(solver.eliminated_variables)
        assert eliminated, "expected the planted instance to lose variables"
        with pytest.raises(ValueError, match="eliminated or fixed by preprocessing"):
            solver.solve(assumptions=[eliminated[0]])

    def test_frozen_out_of_range_raises_on_load(self):
        cnf = CNF([(1, 2)])
        with pytest.raises(ValueError, match="frozen variables"):
            CDCLSolver(CDCLConfig(simplify=True)).load(cnf, frozen=[5])
        # The validation applies even with simplify off (contract consistency).
        with pytest.raises(ValueError, match="frozen variables"):
            CDCLSolver().load(cnf, frozen=[5])

    def test_globally_unsat_after_preprocessing(self):
        cnf = CNF([(1,), (-1, 2), (-2,)])
        solver = CDCLSolver(CDCLConfig(simplify=True)).load(cnf)
        assert solver.solve().status.value == "UNSAT"
        assert solver.solve(assumptions=[1]).status.value == "UNSAT"

    def test_assumption_against_fixed_frozen_variable_is_unsat_under_assumptions(self):
        # UP fixes 1=True at the root; assuming -1 must be UNSAT, and the
        # solver must stay usable afterwards (not globally unsat).
        cnf = CNF([(1,), (-1, 2), (2, 3), (3, 4)])
        solver = CDCLSolver(CDCLConfig(simplify=True)).load(cnf, frozen=[1])
        assert solver.solve(assumptions=[-1]).status.value == "UNSAT"
        assert solver.solve(assumptions=[1]).status.value == "SAT"

    def test_custom_preprocessor_honoured(self):
        cnf, _ = planted_ksat(14, 46, seed=8)
        solver = CDCLSolver(CDCLConfig(simplify=True))
        solver.preprocessor = Preprocessor(
            subsumption=False, self_subsumption=False, variable_elimination=False,
            pure_literals=False,
        )
        solver.load(cnf)
        assert solver.eliminated_variables == frozenset()
        assert solver.presolve is not None

    def test_simplify_off_has_no_presolve(self):
        cnf = CNF([(1, 2)])
        solver = CDCLSolver().load(cnf)
        assert solver.presolve is None
        assert solver.eliminated_variables == frozenset()


class TestPredictiveFunctionFrozenPlumbing:
    def test_estimates_identical_with_and_without_frozen_plumbing(self):
        from repro.core.predictive import PredictiveFunction

        cnf, _ = planted_ksat(16, 55, seed=6)
        plain = PredictiveFunction(
            cnf, solver=CDCLSolver(), sample_size=20, seed=1,
            incremental=True, sample_cache_size=None,
        ).evaluate([1, 2, 3, 4])
        plumbed = PredictiveFunction(
            cnf, solver=CDCLSolver(), sample_size=20, seed=1,
            incremental=True, sample_cache_size=None,
            frozen_variables=range(1, 9),
        ).evaluate([1, 2, 3, 4])
        assert plain.value == plumbed.value
        assert [o.cost for o in plain.observations] == [o.cost for o in plumbed.observations]
        assert [o.status for o in plain.observations] == [
            o.status for o in plumbed.observations
        ]

    def test_simplifying_solver_reloads_for_unfrozen_decomposition(self):
        from repro.core.predictive import PredictiveFunction

        cnf, _ = planted_ksat(16, 55, seed=6)
        solver = CDCLSolver(CDCLConfig(simplify=True))
        evaluator = PredictiveFunction(
            cnf, solver=solver, sample_size=10, seed=1,
            incremental=True, sample_cache_size=None,
            frozen_variables=[1, 2, 3],
        )
        evaluator.evaluate([1, 2, 3])
        eliminated = sorted(solver.eliminated_variables)
        assert eliminated, "expected eliminations on the planted instance"
        target = eliminated[0]
        result = evaluator.evaluate([1, target])  # must trigger a re-load, not an error
        assert evaluator.num_freeze_reloads == 1
        assert target not in solver.eliminated_variables
        assert result.sample_size == 10

    def test_assumption_on_nonfrozen_fixed_variable_raises(self):
        # Var 1 is root-fixed by UP but NOT frozen: its clauses are gone from
        # the simplified formula, so assuming against it could silently
        # return SAT on a query the original formula refutes.  It must raise.
        cnf = CNF([(1,), (2, 3)], 3)
        solver = CDCLSolver(CDCLConfig(simplify=True)).load(cnf, frozen=[2])
        with pytest.raises(ValueError, match="eliminated or fixed by preprocessing"):
            solver.solve(assumptions=[-1])
        with pytest.raises(ValueError, match="eliminated or fixed by preprocessing"):
            solver.solve(assumptions=[1])  # even the agreeing polarity
        # Freezing the variable instead keeps it assumable and sound.
        frozen_solver = CDCLSolver(CDCLConfig(simplify=True)).load(cnf, frozen=[1, 2])
        assert frozen_solver.solve(assumptions=[-1]).status.value == "UNSAT"
        assert frozen_solver.solve(assumptions=[1]).status.value == "SAT"

    def test_unassumable_variables_property(self):
        cnf = CNF([(1,), (2, 3)], 3)
        solver = CDCLSolver(CDCLConfig(simplify=True)).load(cnf, frozen=[2])
        assert 1 in solver.unassumable_variables
        assert 2 not in solver.unassumable_variables
        plain = CDCLSolver().load(cnf)
        assert plain.unassumable_variables == frozenset()

    def test_reload_triggered_by_nonfrozen_fixed_decomposition_variable(self):
        # Var 1 is root-fixed away by preprocessing (not frozen at first
        # load); a later decomposition naming it must re-load with the
        # enlarged frozen set and then sample soundly: the 1=False half of
        # the sample is UNSAT on the original formula, so not every
        # observation may claim SAT.
        from repro.core.predictive import PredictiveFunction
        from repro.sat.solver import SolverStatus

        cnf = CNF([(1,), (2, 3)], 3)
        solver = CDCLSolver(CDCLConfig(simplify=True))
        evaluator = PredictiveFunction(
            cnf, solver=solver, sample_size=8, seed=0,
            incremental=True, sample_cache_size=None, frozen_variables=[2],
        )
        evaluator.evaluate([2])                    # loads with frozen = {2}
        assert 1 in solver.unassumable_variables   # var 1 was fixed away
        result = evaluator.evaluate([1])           # must re-load, not mis-sample
        assert evaluator.num_freeze_reloads == 1
        assert 1 not in solver.unassumable_variables
        statuses = {obs.status for obs in result.observations}
        assert SolverStatus.UNSAT in statuses

    def test_first_evaluation_freezes_its_decomposition_at_load(self):
        # The very first evaluate() folds its decomposition into the frozen
        # set before the initial load, so no reload is needed and the sample
        # is sound immediately.
        from repro.core.predictive import PredictiveFunction
        from repro.sat.solver import SolverStatus

        cnf = CNF([(1,), (2, 3)], 3)
        evaluator = PredictiveFunction(
            cnf, solver=CDCLSolver(CDCLConfig(simplify=True)), sample_size=8,
            seed=0, incremental=True, sample_cache_size=None, frozen_variables=[2],
        )
        result = evaluator.evaluate([1])
        assert evaluator.num_freeze_reloads == 0
        assert SolverStatus.UNSAT in {obs.status for obs in result.observations}
