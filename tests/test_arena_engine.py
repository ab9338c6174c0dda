"""Unit tests for the flat-array arena internals of :class:`CDCLSolver`.

The differential fuzz suite establishes that the arena engine reaches the
reference DPLL solver's verdicts; this module tests the arena-specific
machinery directly: LBD-aware learned-clause reduction, phase saving, the
pinned-false binary sentinel, the clause-arena garbage collector and the
array-indexed watcher layout.
"""

from __future__ import annotations

import pytest

from repro.api import SolverSpec
from repro.api.registry import get_solver
from repro.sat.cdcl import CDCLConfig, CDCLSolver
from repro.sat.cdcl.solver import _FALSE, _elit, _ilit
from repro.sat.dpll import DPLLSolver
from repro.sat.formula import CNF
from repro.sat.random_cnf import pigeonhole, random_ksat
from repro.sat.solver import SolverStats, SolverStatus, check_model


def _clause_lits(solver: CDCLSolver, cref: int) -> list[int]:
    """Read a clause back from the arena as external literals."""
    arena = solver._arena
    return [_elit(arena[cref + 1 + i]) for i in range(arena[cref])]


def _add_learnt(solver: CDCLSolver, lits: list[int], lbd: int, activity: float) -> int:
    """Manufacture a learnt clause directly in the arena (test helper)."""
    cref = solver._alloc([_ilit(lit) for lit in lits])
    solver._learnts.append(cref)
    solver._cla_activity[cref] = activity
    solver._cla_lbd[cref] = lbd
    solver._attach(cref)
    return cref


class TestLiteralEncoding:
    def test_round_trip(self):
        for lit in (1, -1, 7, -7, 123, -123):
            assert _elit(_ilit(lit)) == lit

    def test_negation_is_xor_one(self):
        for lit in (1, -1, 9, -9):
            assert _ilit(-lit) == _ilit(lit) ^ 1


class TestLBDReduction:
    def _solver_with_learnts(self) -> CDCLSolver:
        # Two long problem clauses so the learnts are clearly separate.
        cnf = CNF([(1, 2, 3, 4, 5), (4, 5, 6, 7, 8)], num_vars=10)
        solver = CDCLSolver().load(cnf)
        solver._stats = SolverStats()
        return solver

    def test_high_lbd_clauses_are_deleted_first(self):
        solver = self._solver_with_learnts()
        glue = _add_learnt(solver, [1, 2, 3], lbd=2, activity=0.0)
        weak = _add_learnt(solver, [4, 5, 6], lbd=9, activity=0.0)
        medium = _add_learnt(solver, [7, 8, 9], lbd=5, activity=1.0)
        strong = _add_learnt(solver, [1, 5, 9], lbd=3, activity=9.0)
        solver._reduce_db()  # target: delete 4 // 2 = 2 clauses, worst first
        remaining = {cref for cref in solver._learnts}
        assert glue in remaining, "glue clauses (lbd <= 2) must never be deleted"
        assert weak not in remaining, "the highest-LBD clause goes first"
        assert medium not in remaining
        assert strong in remaining
        assert solver._stats.deleted_clauses == 2
        # Metadata of deleted clauses is dropped with them.
        assert set(solver._cla_lbd) == remaining
        assert set(solver._cla_activity) == remaining

    def test_binary_learnts_are_never_deleted(self):
        solver = self._solver_with_learnts()
        binary = _add_learnt(solver, [1, 2], lbd=9, activity=0.0)
        for offset in range(4):
            _add_learnt(solver, [3 + offset, 6, 9], lbd=8, activity=0.0)
        solver._reduce_db()
        assert binary in solver._learnts

    def test_reduction_fires_end_to_end_and_keeps_answers_right(self):
        solver = CDCLSolver(CDCLConfig(learntsize_factor=0.01))
        result = solver.solve(pigeonhole(6))
        assert result.status is SolverStatus.UNSAT
        assert result.stats.deleted_clauses > 0
        # Every surviving learnt clause has its LBD on record.
        assert set(solver._cla_lbd) == set(solver._learnts)
        assert all(lbd >= 1 for lbd in solver._cla_lbd.values())


class TestPhaseSaving:
    def test_decisions_follow_the_saved_phase(self):
        cnf = CNF([(1, 2)], num_vars=2)
        solver = CDCLSolver().load(cnf)
        solver._saved_phase[1] = True
        assert solver.solve().model[1] is True
        # solve() saves the previous trail's phases while backtracking, so the
        # injected phase must go in after the trail is rolled back.
        solver._cancel_until(0)
        solver._saved_phase[1] = False
        assert solver.solve().model[1] is False

    def test_backtracking_records_the_last_assignment(self):
        cnf = CNF([(1, 2)], num_vars=2)
        solver = CDCLSolver().load(cnf)
        # Under the assumption -1 the model fixes 1 = False; the phase sticks.
        assert solver.solve(assumptions=[-1]).model[1] is False
        followup = solver.solve()
        assert followup.model[1] is False

    def test_phase_saving_off_uses_the_default_phase(self):
        cnf = CNF([(1, 2)], num_vars=3)
        solver = CDCLSolver(CDCLConfig(phase_saving=False, default_phase=True))
        result = solver.solve(cnf)
        # Unconstrained variable 3 and first decisions take the default phase.
        assert result.model[3] is True
        assert result.model[1] is True

    def test_saved_phases_persist_across_incremental_calls(self):
        cnf = random_ksat(25, 80, k=3, seed=5)  # under-constrained: SAT
        solver = CDCLSolver().load(cnf)
        first = solver.solve()
        second = solver.solve()
        assert first.status is SolverStatus.SAT
        assert second.model == first.model  # phases replay the same model


class TestBinarySentinel:
    def test_sentinel_literal_is_pinned_false(self):
        cnf = CNF([(1, 2), (-1, 2)], num_vars=2)
        solver = CDCLSolver().load(cnf)
        assert solver._values[0] == _FALSE
        solver.solve()
        assert solver._values[0] == _FALSE

    def test_binary_chain_propagates_without_decisions(self):
        cnf = CNF([(1,), (-1, 2), (-2, 3), (-3, 4)])
        result = CDCLSolver().solve(cnf)
        assert result.is_sat
        assert result.stats.decisions == 0
        assert all(result.model[v] is True for v in range(1, 5))

    def test_binary_conflict_is_detected(self):
        cnf = CNF([(1,), (-1, 2), (-2,)])
        assert CDCLSolver().solve(cnf).is_unsat


class TestGarbageCollection:
    def test_compaction_preserves_clauses_and_remaps_metadata(self):
        cnf = CNF([(1, 2, 3, 4, 5), (4, 5, 6, 7, 8)], num_vars=10)
        solver = CDCLSolver().load(cnf)
        solver._stats = SolverStats()
        for offset in range(6):
            _add_learnt(solver, [1 + offset, 5, 9], lbd=4 + offset, activity=float(offset))
        before = {
            "clauses": [_clause_lits(solver, cref) for cref in solver._clauses],
            "learnts": [_clause_lits(solver, cref) for cref in solver._learnts],
            "lbds": sorted(solver._cla_lbd.values()),
        }
        solver._reduce_db()  # deletes 3, leaving dead ints in the arena
        kept_learnts = [_clause_lits(solver, cref) for cref in solver._learnts]
        arena_before_gc = len(solver._arena)
        solver._garbage_collect()
        assert len(solver._arena) < arena_before_gc
        assert solver._wasted == 0
        assert [_clause_lits(solver, cref) for cref in solver._clauses] == before["clauses"]
        assert [_clause_lits(solver, cref) for cref in solver._learnts] == kept_learnts
        assert set(solver._cla_lbd) == set(solver._learnts)
        # The rebuilt watches still drive a correct solve.
        result = solver.solve()
        assert result.status is SolverStatus.SAT
        assert check_model(cnf, result.model)

    def test_gc_triggers_during_long_runs_and_stays_correct(self):
        triggered = []

        class CountingGC(CDCLSolver):
            def _garbage_collect(self):
                triggered.append(len(self._arena))
                super()._garbage_collect()

        solver = CountingGC(CDCLConfig(learntsize_factor=0.01))
        result = solver.solve(pigeonhole(6))
        assert result.status is SolverStatus.UNSAT
        assert triggered, "repeated reductions must eventually trigger compaction"

    def test_incremental_calls_survive_gc(self):
        cnf = random_ksat(40, 170, k=3, seed=3)
        solver = CDCLSolver(CDCLConfig(learntsize_factor=0.01)).load(cnf)
        reference = DPLLSolver()
        for assumptions in ([1, -2], [3, 4], [-1], [], [5, -6, 7]):
            arena_result = solver.solve(assumptions=assumptions)
            reference_result = reference.solve(cnf, assumptions=assumptions)
            assert arena_result.status == reference_result.status


class TestWatcherLayout:
    def test_watches_are_array_indexed_by_literal(self):
        cnf = CNF([(1, 2, 3), (-1, -2), (1, 2, 3, 4)], num_vars=5)
        solver = CDCLSolver().load(cnf)
        expected = (cnf.num_vars + 1) * 2
        assert len(solver._tern_watches) == expected
        assert len(solver._watches) == expected
        # The ternary clause is watched (as trigger lists) on all 3 literals,
        # the binary on both, the 4-clause on its first two literals only.
        tern_entries = sum(len(wl) for wl in solver._tern_watches)
        assert tern_entries == 3 + 2  # ternary triples + binary-with-sentinel
        long_entries = sum(len(wl) for wl in solver._watches) // 2
        assert long_entries == 2
        assert solver._has_long

    def test_short_clause_databases_skip_the_long_path(self):
        solver = CDCLSolver().load(CNF([(1, 2, 3), (-1, -2)], num_vars=3))
        assert not solver._has_long
        assert all(not wl for wl in solver._watches)

    def test_forced_general_path_matches_fast_drain(self):
        # _propagate's binary/ternary visit logic exists twice: in the
        # fast drain (no long clauses) and in the mixed path.  Forcing
        # _has_long on a short-clause-only database routes the same formulas
        # through the mixed path (whose long lists are all empty), so the
        # two copies must produce bit-identical counters and verdicts.
        for seed in range(20):
            cnf = random_ksat(20, 85, k=3, seed=seed)
            fast = CDCLSolver().load(cnf)
            forced = CDCLSolver().load(cnf)
            assert not forced._has_long
            forced._has_long = True  # empty long lists, general path
            fast_result = fast.solve()
            forced_result = forced.solve()
            assert fast_result.status == forced_result.status
            assert fast_result.stats.propagations == forced_result.stats.propagations
            assert fast_result.stats.conflicts == forced_result.stats.conflicts
            assert fast_result.stats.decisions == forced_result.stats.decisions
            assert fast_result.model == forced_result.model

    def test_reload_rebuilds_the_database(self):
        solver = CDCLSolver()
        first = CNF([(1, 2)], num_vars=2)
        second = CNF([(1,), (-1,)], num_vars=1)
        assert solver.load(first).solve().is_sat
        assert solver.load(second).solve().is_unsat
        assert solver.loaded_cnf is second


class TestEngineRegistry:
    def test_default_engine_is_the_arena(self):
        assert isinstance(get_solver("cdcl")(), CDCLSolver)

    def test_both_factories_accept_config_options(self):
        arena = get_solver("cdcl")(restart_base=32)
        assert arena.config.restart_base == 32

    def test_unknown_option_names_it_and_the_fields(self):
        with pytest.raises(ValueError) as refused:
            SolverSpec(options={"simplify": True, "restart_base": 32}).build()
        message = str(refused.value)
        assert "'simplify'" in message
        assert "'restart_base'" not in message
        assert "restart_base, use_luby_restarts" in message


class TestBatchWallTime:
    """``solve_batch`` charges each row an even share of the batch's shared work.

    The snapshot restores and the lockstep root propagation serve every row
    of a batch; without the share, a ``wall_time`` cost measure would read
    low by exactly that time.
    """

    ROWS = [(1,), (-1, 2), (3,), (-2, -3)]

    def test_shared_work_is_spread_evenly(self, monkeypatch):
        import time

        from repro.sat.cdcl import batch

        solver = CDCLSolver().load(random_ksat(10, 42, k=3, seed=77))
        clock = {"now": 0.0}
        monkeypatch.setattr(time, "perf_counter", lambda: clock["now"])
        lockstep_run = batch._LockstepBatch.run

        def slow_lockstep_run(self):
            lockstep_run(self)
            clock["now"] += 8.0

        monkeypatch.setattr(batch._LockstepBatch, "run", slow_lockstep_run)
        results = solver.solve_batch(self.ROWS)
        assert [result.stats.wall_time for result in results] == [2.0] * 4

    def test_row_wall_times_sum_to_the_call(self, monkeypatch):
        import itertools
        import time

        solver = CDCLSolver().load(random_ksat(10, 42, k=3, seed=77))
        ticks = itertools.count()
        reads: list[float] = []

        def ticking_clock() -> float:
            reads.append(float(next(ticks)))
            return reads[-1]

        monkeypatch.setattr(time, "perf_counter", ticking_clock)
        results = solver.solve_batch(self.ROWS)
        monkeypatch.undo()
        assert sum(result.stats.wall_time for result in results) == reads[-1] - reads[0]
