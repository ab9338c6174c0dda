"""The clause-sharing portfolio's determinism and soundness battery (PR 10).

Four layers, bottom up:

* the :class:`~repro.portfolio.exchange.ClauseExchange` bus — policy filters,
  per-round budgets, first-exporter dedup, round-stamped visibility (a round-r
  export is importable from round r+1, never earlier), seeded rotation, audit
  log;
* the solver's sharing surface — ``import_clauses`` / ``exportable_clauses``,
  including transplants between differently configured solvers;
* the inprocessing contract — frozen variables survive
  :meth:`~repro.sat.cdcl.CDCLSolver.inprocess`, ``unassumable_variables`` is
  correct afterwards, and chained reconstruction stacks across repeated
  inprocessing passes;
* the :class:`~repro.portfolio.sharing.SharingPortfolioSolver` determinism
  contract — same seed ⇒ bit-identical winner, costs, counters, exchange log,
  schedule fingerprint and trace bytes, across repeated runs and across the
  inline / thread / simulated-grid executors and ``replay=True``;
  against the isolated sliced race (``SharingPolicy(per_round=0)``) it pins
  exact virtual costs and exchange counts on a ten-instance bivium-tiny suite.

This module is part of the CI flake-detection matrix (five PYTHONHASHSEED
values), so none of the equalities below may depend on dict/set iteration
order.
"""

from __future__ import annotations

import io

import pytest

from repro.portfolio import (
    ClauseExchange,
    SharingPolicy,
    SharingPortfolioSolver,
    slice_budget_for,
)
from repro.portfolio.portfolio import default_portfolio
from repro.sat.cdcl import CDCLConfig, CDCLSolver
from repro.sat.formula import CNF
from repro.sat.random_cnf import planted_ksat, random_ksat
from repro.sat.simplify import Preprocessor
from repro.sat.solver import SolverStatus, check_model


@pytest.fixture(scope="module")
def bivium():
    """One bivium-tiny inversion instance shared by the heavier races."""
    from repro.api.registry import get_cipher
    from repro.problems import make_inversion_instance

    return make_inversion_instance(get_cipher("bivium-tiny")(), seed=1)


# --------------------------------------------------------------------- exchange
class TestClauseExchange:
    def _bus(self, **kwargs) -> ClauseExchange:
        defaults = dict(members=["a", "b", "c"], policy=SharingPolicy(), seed=7)
        defaults.update(kwargs)
        return ClauseExchange(**defaults)

    def test_policy_filters_lbd_and_size(self):
        bus = self._bus(policy=SharingPolicy(max_lbd=3, max_size=4))
        accepted = bus.export(
            "a",
            0,
            [((1, 2), 2), ((3, 4), 4), ((1, 2, 3, 4, 5), 2)],
        )
        assert accepted == 1  # lbd 4 and size 5 both fail the policy
        assert [record.clause for record in bus.records] == [(1, 2)]
        assert bus.exported["a"] == 1
        assert bus.dropped["a"] == 2

    def test_per_round_budget_keeps_the_best_clauses(self):
        bus = self._bus(policy=SharingPolicy(max_lbd=10, max_size=10, per_round=2))
        candidates = [((1, 2, 3), 3), ((4, 5), 1), ((6, 7), 2), ((8, 9), 1)]
        assert bus.export("a", 0, candidates) == 2
        # Ranked by (lbd, size, literals): the two lbd-1 clauses win.
        assert [record.clause for record in bus.records] == [(4, 5), (8, 9)]

    def test_first_exporter_wins_dedup(self):
        bus = self._bus()
        assert bus.export("a", 0, [((1, 2), 2)]) == 1
        assert bus.export("b", 0, [((1, 2), 2)]) == 0
        assert len(bus.records) == 1
        assert bus.records[0].exporter == 0

    def test_round_stamped_visibility(self):
        bus = self._bus()
        bus.export("a", 0, [((1, 2), 2)])
        # Not visible in the round it was exported in ...
        assert bus.imports_for("b", 0) == []
        # ... visible from the next round on, but never to the exporter.
        assert bus.imports_for("b", 1) == [(1, 2)]
        assert bus.imports_for("a", 1) == []
        # The cursor advanced: nothing is delivered twice.
        assert bus.imports_for("b", 2) == []

    def test_import_order_is_a_pure_function_of_the_seed(self):
        def run(seed: int):
            bus = self._bus(seed=seed)
            bus.export("a", 0, [((1, 2), 2), ((3, 4), 2)])
            bus.export("b", 0, [((5, 6), 2), ((7, 8), 2)])
            return bus.imports_for("c", 1), bus.schedule_fingerprint()

        first_order, first_print = run(7)
        second_order, second_print = run(7)
        assert first_order == second_order
        assert first_print == second_print
        assert sorted(first_order) == [(1, 2), (3, 4), (5, 6), (7, 8)]

    def test_audit_log_records_every_barrier_call(self):
        bus = self._bus()
        bus.export("a", 0, [((1, 2), 2)])
        bus.imports_for("b", 1)
        assert bus.log_tuples() == [(0, "a", "export", 1), (1, "b", "import", 1)]
        assert bus.total_exported == 1
        assert bus.total_imported == 1

    def test_member_validation(self):
        with pytest.raises(ValueError):
            ClauseExchange(members=[])
        with pytest.raises(ValueError):
            ClauseExchange(members=["a", "a"])

    def test_policy_validation(self):
        for bad in (
            dict(max_lbd=0),
            dict(max_size=0),
            dict(per_round=-1),
        ):
            with pytest.raises(ValueError):
                SharingPolicy(**bad)

    def test_zero_per_round_exports_nothing(self):
        bus = self._bus(policy=SharingPolicy(per_round=0))
        assert bus.export("a", 0, [((1, 2), 2), ((3, 4), 1)]) == 0
        assert bus.records == []
        assert bus.imports_for("b", 1) == []
        assert bus.dropped["a"] == 2


# ------------------------------------------------------------------ slice budget
class TestSliceBudget:
    def test_sliceable_measures_map_to_their_budget_field(self):
        assert slice_budget_for("conflicts", 5).max_conflicts == 5
        assert slice_budget_for("decisions", 7).max_decisions == 7
        assert slice_budget_for("propagations", 9).max_propagations == 9

    def test_wall_clock_measures_are_rejected(self):
        # Slicing by seconds would make the virtual race machine-dependent —
        # the latent flake the BENCH_7 gate must never inherit.
        for measure in ("wall_time", "weighted"):
            with pytest.raises(ValueError):
                slice_budget_for(measure, 100)

    def test_zero_units_are_rejected(self):
        with pytest.raises(ValueError):
            slice_budget_for("conflicts", 0)


# ------------------------------------------------------------- engine surfaces
ENGINES = {"arena": CDCLSolver}


class TestImportExport:
    @staticmethod
    def _learned_solver(engine_cls, seed: int = 3):  # seed 3: SAT, the solve learns
        cnf = random_ksat(20, 85, k=3, seed=seed)
        solver = engine_cls().load(cnf)
        solver.solve()
        return cnf, solver

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_exportable_clauses_are_canonical_and_filtered(self, engine):
        _, solver = self._learned_solver(ENGINES[engine])
        exports = solver.exportable_clauses(max_lbd=4, max_size=6)
        assert exports, f"{engine}: the solve learned nothing exportable"
        keys = [(lbd, len(clause), clause) for clause, lbd in exports]
        assert keys == sorted(keys)  # canonical (lbd, size, literals) order
        for clause, lbd in exports:
            assert lbd <= 4 and len(clause) <= 6
            assert clause == tuple(sorted(clause, key=abs))
        limited = solver.exportable_clauses(max_lbd=4, max_size=6, limit=3)
        assert limited == exports[:3]

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_exported_clauses_are_implied_by_the_formula(self, engine):
        cnf, solver = self._learned_solver(ENGINES[engine])
        checker = CDCLSolver().load(cnf)
        for clause, _lbd in solver.exportable_clauses(max_lbd=5, max_size=8):
            negation = [-lit for lit in clause]
            assert checker.solve(assumptions=negation).status is SolverStatus.UNSAT, (
                f"{engine} exported a clause the formula does not imply: {clause}"
            )

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_import_units_constrain_the_model(self, engine):
        cnf = random_ksat(12, 30, k=3, seed=11)  # under-constrained: SAT
        solver = ENGINES[engine]().load(cnf)
        model = solver.solve().model
        assert model is not None
        # A unit implied by the formula: any literal true in some model is
        # consistent; re-check it is actually a consequence-free import by
        # solving under it afterwards.
        literal = 3 if model[3] else -3
        assert solver.import_clauses([(literal,)]) == 1
        result = solver.solve()
        assert result.status is SolverStatus.SAT
        assert result.model[3] is (literal > 0)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_import_skips_root_satisfied_and_rejects_foreign_literals(self, engine):
        cnf = CNF([(1,), (1, 2), (3, 4)], num_vars=4)
        solver = ENGINES[engine]().load(cnf)
        solver.solve()
        # 1 is fixed at the root by the unit clause, so (1, 3) adds nothing.
        assert solver.import_clauses([(1, 3)]) == 0
        with pytest.raises(ValueError):
            solver.import_clauses([(5, 6)])

    def test_cross_engine_transplant_preserves_verdicts(self):
        # Clauses learned by one solver import cleanly into a differently
        # configured one (another search, so other learned clauses) and never
        # flip any answer on a shared assumption corpus.
        cnf = random_ksat(16, 68, k=3, seed=23)
        default = CDCLSolver().load(cnf)
        tuned = CDCLSolver(
            CDCLConfig(use_luby_restarts=False, default_phase=True, var_decay=0.85)
        ).load(cnf)
        default.solve()
        tuned.solve()
        tuned.import_clauses(
            [clause for clause, _ in default.exportable_clauses(max_lbd=4, max_size=8)]
        )
        default.import_clauses(
            [clause for clause, _ in tuned.exportable_clauses(max_lbd=4, max_size=8)]
        )
        reference = CDCLSolver()
        for assumptions in ([], [1], [-1], [2, -3], [-2, 3], [4, 5, -6]):
            expected = reference.solve(cnf, assumptions=assumptions).status
            assert default.solve(assumptions=assumptions).status is expected
            assert tuned.solve(assumptions=assumptions).status is expected

    def test_import_requires_a_loaded_formula(self):
        with pytest.raises(ValueError):
            CDCLSolver().import_clauses([(1,)])
        assert CDCLSolver().exportable_clauses() == []


# ------------------------------------------------------- inprocessing contract
class TestInprocessingContract:
    @staticmethod
    def _sliced(solver, assumptions=(), rounds=2, budget=256):
        for _ in range(rounds):
            result = solver.solve(
                None, assumptions, budget=slice_budget_for("propagations", budget)
            )
            if result.is_decided:
                break
        return result

    def test_frozen_variables_survive_inprocessing(self, bivium):
        frozen = frozenset(bivium.start_set)
        solver = CDCLSolver().load(bivium.cnf, frozen=frozen)
        self._sliced(solver)
        result = solver.inprocess(Preprocessor())
        assert result is not None and not result.unsat
        # The whole point of the contract: the assumption superset stays
        # assumable, while the simplifier did real work elsewhere.
        assert not (frozen & solver.unassumable_variables)
        assert not (frozen & result.eliminated_variables)
        assert solver.unassumable_variables, (
            "expected bivium-tiny inprocessing to eliminate or fix variables"
        )

    def test_unassumable_variables_reject_assumptions_after_inprocessing(self, bivium):
        frozen = frozenset(bivium.start_set)
        solver = CDCLSolver().load(bivium.cnf, frozen=frozen)
        self._sliced(solver)
        solver.inprocess(Preprocessor())
        gone = sorted(solver.unassumable_variables)
        assert gone
        with pytest.raises(ValueError):
            solver.solve(None, [gone[0]])
        # Frozen assumptions still work and agree with an untouched solver.
        reference = CDCLSolver().load(bivium.cnf)
        for polarity in (1, -1):
            assumptions = [polarity * v for v in bivium.start_set[:3]]
            expected = reference.solve(None, assumptions)
            got = solver.solve(None, assumptions)
            assert got.status is expected.status

    def test_chained_reconstruction_stacks_across_passes(self, bivium):
        # Two inprocessing passes with solving in between: the reconstruction
        # stages chain, and a final SAT model must satisfy the *original*
        # formula with every assumption honoured.
        frozen = frozenset(bivium.start_set)
        solver = CDCLSolver().load(bivium.cnf, frozen=frozen)
        self._sliced(solver)
        first = solver.inprocess(Preprocessor())
        self._sliced(solver)
        second = solver.inprocess(Preprocessor())
        assert first is not None and second is not None
        result = solver.solve(None, [])
        assert result.status is SolverStatus.SAT
        assert check_model(bivium.cnf, result.model)

    def test_inprocessing_keeps_answers_on_random_instances(self):
        for seed in range(6):
            cnf = random_ksat(14, round(4.3 * 14), k=3, seed=300 + seed)
            frozen = [1, 2, 3]
            solver = CDCLSolver().load(cnf, frozen=frozen)
            self._sliced(solver, budget=64, rounds=1)
            solver.inprocess(Preprocessor())
            reference = CDCLSolver()
            for assumptions in ([], [1], [-1, 2], [3, -2]):
                expected = reference.solve(cnf, assumptions=assumptions)
                got = solver.solve(None, assumptions)
                assert got.status is expected.status, (seed, assumptions)
                if got.status is SolverStatus.SAT:
                    assert check_model(cnf, got.model), (seed, assumptions)
                    for literal in assumptions:
                        assert got.model[abs(literal)] is (literal > 0)

    def test_inprocess_requires_load_and_skips_refuted_databases(self):
        with pytest.raises(ValueError):
            CDCLSolver().inprocess(Preprocessor())
        unsat = CNF([(1,), (-1,)], num_vars=1)
        solver = CDCLSolver().load(unsat)
        assert solver.solve().status is SolverStatus.UNSAT
        assert solver.inprocess(Preprocessor()) is None


# ------------------------------------------------------- portfolio determinism
def _race(members=3, **kwargs) -> SharingPortfolioSolver:
    defaults = dict(
        configurations=default_portfolio()[:members],
        cost_measure="propagations",
        slice_budget=512,
        max_rounds=64,
        policy=SharingPolicy(max_lbd=6, max_size=12, per_round=64),
        seed=3,
    )
    defaults.update(kwargs)
    return SharingPortfolioSolver(**defaults)


def _traced_solve(solver: SharingPortfolioSolver, cnf, **kwargs):
    from repro.trace.format import TraceWriter

    buffer = io.BytesIO()
    writer = TraceWriter(buffer, kind="portfolio-sharing", fingerprint="sharing-test")
    result = solver.solve(cnf, trace=writer, **kwargs)
    writer.close()
    return result, buffer.getvalue()


def _signature(result) -> tuple:
    """Everything the determinism contract pins, as one comparable tuple."""
    return (
        result.status,
        result.winner.configuration.name if result.winner else None,
        result.decided_round,
        result.rounds_executed,
        [run.cost for run in result.runs],
        [run.rounds for run in result.runs],
        [(run.exported, run.imported, run.imported_added) for run in result.runs],
        result.exported,
        result.imported,
        result.exchange_log,
        result.shared_clauses,
        result.exchange_fingerprint,
    )


class TestSharingDeterminism:
    def test_same_seed_is_bit_identical_across_repeated_runs(self, bivium):
        first, first_bytes = _traced_solve(_race(4), bivium.cnf)
        second, second_bytes = _traced_solve(_race(4), bivium.cnf)
        assert _signature(first) == _signature(second)
        assert first_bytes == second_bytes
        assert first.total_exported > 0 and first.total_imported > 0

    def test_all_executors_and_replay_agree_bit_for_bit(self, bivium):
        reference, reference_bytes = _traced_solve(_race(4), bivium.cnf)
        for variant in (
            _race(4, executor="threads"),
            _race(4, executor="threads", threads=2),
            _race(4, executor="simulated-grid"),
        ):
            result, raw = _traced_solve(variant, bivium.cnf)
            assert _signature(result) == _signature(reference), variant.executor
            assert raw == reference_bytes, variant.executor
        replayed, replay_bytes = _traced_solve(_race(4), bivium.cnf, replay=True)
        assert _signature(replayed) == _signature(reference)
        assert replay_bytes == reference_bytes
        assert replayed.executor == "replay" and replayed.replay is True

    def test_thread_vs_inline_in_replay_mode(self, bivium):
        # replay=True ignores the configured executor by construction; the
        # determinism claim is that a thread-configured solver's replay is
        # still bit-identical to the inline solver's live run.
        live, live_bytes = _traced_solve(_race(3), bivium.cnf)
        replayed, replay_bytes = _traced_solve(
            _race(3, executor="threads"), bivium.cnf, replay=True
        )
        assert _signature(replayed) == _signature(live)
        assert replay_bytes == live_bytes

    def test_inprocessing_runs_stay_deterministic(self, bivium):
        solver = lambda: _race(3, policy=SharingPolicy(), inprocess_every=4)  # noqa: E731
        first, first_bytes = _traced_solve(solver(), bivium.cnf)
        second, second_bytes = _traced_solve(solver(), bivium.cnf)
        assert _signature(first) == _signature(second)
        assert first_bytes == second_bytes
        assert any(run.inprocessings > 0 for run in first.runs)

    def test_assumptions_are_honoured_and_deterministic(self):
        cnf, planted = planted_ksat(24, 96, k=3, seed=9)
        literal = 5 if planted[5] else -5
        runs = [
            _race(3, slice_budget=64, max_rounds=128).solve(cnf, assumptions=[literal])
            for _ in range(2)
        ]
        assert _signature(runs[0]) == _signature(runs[1])
        assert runs[0].status is SolverStatus.SAT
        assert runs[0].model[abs(literal)] is (literal > 0)
        assert check_model(cnf, runs[0].model)

    def test_disagreeing_members_raise(self):
        # Simultaneous SAT and UNSAT claims in one barrier must abort the run
        # loudly — sanity net for the soundness argument, never expected.
        class Liar:
            def __init__(self, status):
                self._status = status

            def load(self, cnf, frozen=()):
                return self

            def solve(self, cnf, assumptions=(), budget=None):
                from repro.sat.solver import SolveResult, SolverStats

                return SolveResult(
                    status=self._status,
                    model={} if self._status is SolverStatus.SAT else None,
                    stats=SolverStats(),
                )

        from dataclasses import dataclass

        @dataclass(frozen=True)
        class LiarConfiguration:
            name: str
            status: SolverStatus

            def build_solver(self):
                return Liar(self.status)

        solver = SharingPortfolioSolver(
            [
                LiarConfiguration("sat-liar", SolverStatus.SAT),
                LiarConfiguration("unsat-liar", SolverStatus.UNSAT),
            ],
            slice_budget=16,
            max_rounds=1,
        )
        with pytest.raises(RuntimeError, match="disagree"):
            solver.solve(CNF([(1, 2)], num_vars=2))


class TestSharingAgainstIsolated:
    def test_sharing_agrees_with_the_isolated_sliced_portfolio(self, bivium):
        isolated = _race(4, policy=SharingPolicy(per_round=0)).solve(bivium.cnf)
        sharing = _race(4).solve(bivium.cnf)
        assert isolated.total_exported == 0 and isolated.total_imported == 0
        assert sharing.status is isolated.status
        assert sharing.status is SolverStatus.SAT
        assert check_model(bivium.cnf, sharing.model)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            SharingPortfolioSolver([])
        duplicated = [default_portfolio()[0]] * 2
        with pytest.raises(ValueError):
            SharingPortfolioSolver(duplicated)
        with pytest.raises(ValueError):
            SharingPortfolioSolver(cost_measure="wall_time")
        with pytest.raises(ValueError):
            SharingPortfolioSolver(max_rounds=0)
        with pytest.raises(ValueError):
            SharingPortfolioSolver(inprocess_every=-1)
        with pytest.raises(ValueError):
            SharingPortfolioSolver(executor="processes")
        with pytest.raises(ValueError):
            SharingPortfolioSolver(threads=0)

    def test_undecided_race_reports_unknown_at_the_round_cap(self, bivium):
        result = _race(3, slice_budget=16, max_rounds=2).solve(bivium.cnf)
        assert result.status is SolverStatus.UNKNOWN
        assert result.decided_round is None
        assert result.rounds_executed == 2
        assert result.virtual_parallel_cost == float("inf")


class TestSharingSuiteCounts:
    """Sharing against the isolated sliced race on bivium-tiny instances.

    Both sides run ``_race(4)``: the tiny-4 members, 512-propagation slices,
    64 rounds and exchange seed 3; the isolated side exports nothing.  Every
    figure is a solver work counter, so the totals are exact on any machine.
    They are the committed ``benchmarks/BENCH_7.json`` totals (x1.72, and
    x2.01 with inprocessing).
    """

    @staticmethod
    def _totals(seeds, **sharing_knobs) -> dict[str, float]:
        from repro.api.registry import get_cipher
        from repro.problems import make_inversion_instance

        totals = {"isolated": 0.0, "sharing": 0.0, "exported": 0, "imported": 0}
        for seed in seeds:
            cnf = make_inversion_instance(get_cipher("bivium-tiny")(), seed=seed).cnf
            isolated = _race(4, policy=SharingPolicy(per_round=0)).solve(cnf)
            sharing = _race(4, **sharing_knobs).solve(cnf)
            replayed = _race(4, **sharing_knobs).solve(cnf, replay=True)
            assert isolated.total_exported == 0, seed
            assert sharing.status is isolated.status is SolverStatus.SAT, seed
            assert check_model(cnf, sharing.model), seed
            assert replayed.exchange_fingerprint == sharing.exchange_fingerprint, seed
            assert replayed.virtual_parallel_cost == sharing.virtual_parallel_cost, seed
            totals["isolated"] += isolated.virtual_parallel_cost
            totals["sharing"] += sharing.virtual_parallel_cost
            totals["exported"] += sharing.total_exported
            totals["imported"] += sharing.total_imported
        return totals

    def test_suite_of_ten_seeds(self):
        assert self._totals(range(1, 11)) == {
            "isolated": 133414, "sharing": 77585, "exported": 1955, "imported": 5865,
        }

    def test_inprocessing_on_the_two_hardest_seeds(self):
        assert self._totals((1, 5), policy=SharingPolicy(), inprocess_every=8) == {
            "isolated": 43170, "sharing": 21434, "exported": 269, "imported": 807,
        }
