"""Differential fuzzing of the solver stack on seeded random CNFs.

Roughly 200 random instances around (and off) the 3-SAT phase transition are
solved three ways — fresh CDCL, reference DPLL, and the incremental CDCL
``load()`` + ``solve(assumptions=...)`` path — and the answers must agree
exactly.  Every claimed model is additionally checked against the formula, so
a solver cannot "win" the agreement by being wrong in the same direction.

The ``TestArenaVsLegacyEngines`` class pins the flat-array arena engine
against references outside it: fresh DPLL under incremental assumption
sequences and on 4-SAT instances off the ternary fast path, and a
unit-propagation fixpoint written in the test for its propagation counts.

PR 10 adds the ``TestSharingPortfolio`` lane: the deterministic clause-sharing
portfolio (:mod:`repro.portfolio.sharing`) runs over the same 200+ instance
corpus with aggressively small slices — forcing many exchange rounds even on
tiny formulas — and must agree with fresh CDCL, reference DPLL and the
isolated (non-sharing) sliced portfolio everywhere, with and without
inprocessing.  On top of answer agreement, every clause that crossed the
exchange bus is independently checked *redundant*: solving the original
formula under the clause's negated literals must come back UNSAT, which is
exactly the "implied by the input formula" soundness contract of
:meth:`~repro.sat.cdcl.CDCLSolver.import_clauses`.
"""

from __future__ import annotations

import random

import pytest

from repro.portfolio import (
    SharingPolicy,
    SharingPortfolioSolver,
    default_portfolio,
)
from repro.sat.cdcl import CDCLSolver
from repro.sat.cdcl.solver import _ilit
from repro.sat.dpll import DPLLSolver
from repro.sat.formula import CNF
from repro.sat.random_cnf import planted_ksat, random_ksat, random_unsat_core
from repro.sat.solver import SolverBudget, SolverStats, SolverStatus, check_model

#: (num_vars, clause ratio) grid × seeds: 3 shapes × 60 seeds = 180 uniform
#: instances, plus 10 planted-SAT and 10 constructed-UNSAT ones below.
UNIFORM_GRID = [(8, 3.0), (10, 4.3), (12, 5.2)]
SEEDS_PER_SHAPE = 60


def _uniform_instances():
    for num_vars, ratio in UNIFORM_GRID:
        for seed in range(SEEDS_PER_SHAPE):
            yield random_ksat(num_vars, round(ratio * num_vars), k=3, seed=seed * 7 + num_vars)


def _assert_agreement(cnf: CNF, assumptions: list[int], results) -> None:
    statuses = {name: result.status for name, result in results.items()}
    assert len(set(statuses.values())) == 1, f"solvers disagree: {statuses}"
    for name, result in results.items():
        if result.status is SolverStatus.SAT:
            assert result.model is not None, f"{name} reported SAT without a model"
            assert check_model(cnf, result.model), f"{name} returned a falsifying model"
            for literal in assumptions:
                assert result.model[abs(literal)] == (literal > 0), (
                    f"{name} violated assumption {literal}"
                )


class TestUniformRandomAgreement:
    def test_cdcl_dpll_and_incremental_agree_on_180_instances(self):
        sat = unsat = 0
        for cnf in _uniform_instances():
            incremental = CDCLSolver().load(cnf)
            results = {
                "cdcl": CDCLSolver().solve(cnf),
                "dpll": DPLLSolver().solve(cnf),
                "incremental": incremental.solve(),
            }
            _assert_agreement(cnf, [], results)
            if results["cdcl"].status is SolverStatus.SAT:
                sat += 1
            else:
                unsat += 1
        # The grid straddles the phase transition, so both outcomes must occur.
        assert sat > 20 and unsat > 20

    def test_agreement_under_random_assumptions(self):
        # One shared incremental solver per shape: learned clauses accumulate
        # across unrelated assumption vectors and must never flip an answer.
        for num_vars, ratio in UNIFORM_GRID:
            for seed in range(20):
                cnf = random_ksat(num_vars, round(ratio * num_vars), k=3, seed=900 + seed)
                rng = random.Random(seed)
                variables = rng.sample(range(1, num_vars + 1), 2)
                assumptions = [v if rng.random() < 0.5 else -v for v in variables]
                incremental = CDCLSolver().load(cnf)
                results = {
                    "cdcl": CDCLSolver().solve(cnf, assumptions=assumptions),
                    "dpll": DPLLSolver().solve(cnf, assumptions=assumptions),
                    "incremental": incremental.solve(assumptions=assumptions),
                }
                _assert_agreement(cnf, assumptions, results)
                # A second incremental call on the same solver must agree with
                # a fresh solve as well (learned-clause soundness).
                flipped = [-lit for lit in assumptions]
                followup = {
                    "cdcl": CDCLSolver().solve(cnf, assumptions=flipped),
                    "incremental": incremental.solve(assumptions=flipped),
                }
                _assert_agreement(cnf, flipped, followup)


class TestConstructedInstances:
    def test_planted_instances_are_found_satisfiable(self):
        for seed in range(10):
            cnf, _planted = planted_ksat(10, 38, k=3, seed=seed)
            results = {
                "cdcl": CDCLSolver().solve(cnf),
                "dpll": DPLLSolver().solve(cnf),
                "incremental": CDCLSolver().load(cnf).solve(),
            }
            for name, result in results.items():
                assert result.status is SolverStatus.SAT, f"{name} missed planted model"
            _assert_agreement(cnf, [], results)

    def test_constructed_unsat_chains_are_refuted(self):
        for seed in range(10):
            cnf = random_unsat_core(6 + seed, seed=seed)
            results = {
                "cdcl": CDCLSolver().solve(cnf),
                "dpll": DPLLSolver().solve(cnf),
                "incremental": CDCLSolver().load(cnf).solve(),
            }
            for name, result in results.items():
                assert result.status is SolverStatus.UNSAT, f"{name} missed UNSAT"


class TestFuzzCorpusSize:
    def test_corpus_reaches_two_hundred_instances(self):
        uniform = len(UNIFORM_GRID) * SEEDS_PER_SHAPE
        assumption_runs = len(UNIFORM_GRID) * 20
        constructed = 10 + 10
        assert uniform + assumption_runs + constructed >= 200


class TestArenaVsLegacyEngines:
    """The arena engine against references that share none of its code."""

    def test_engines_agree_under_incremental_assumption_sequences(self):
        # One persistent arena solver per instance: learned clauses accumulate
        # across assumption vectors and must never make it disagree with a
        # fresh DPLL solve of the same vector.
        for num_vars, ratio in UNIFORM_GRID:
            for seed in range(10):
                cnf = random_ksat(num_vars, round(ratio * num_vars), k=3, seed=2500 + seed)
                arena = CDCLSolver().load(cnf)
                rng = random.Random(4000 + seed)
                for _ in range(6):
                    variables = rng.sample(range(1, num_vars + 1), rng.randint(0, 3))
                    assumptions = [v if rng.random() < 0.5 else -v for v in variables]
                    results = {
                        "arena": arena.solve(assumptions=assumptions),
                        "dpll": DPLLSolver().solve(cnf, assumptions=assumptions),
                    }
                    _assert_agreement(cnf, assumptions, results)

    def test_engines_agree_off_the_ternary_fast_path(self):
        # 4-SAT instances route through the arena engine's long-clause
        # (blocker-literal) path, which the ternary fast drain skips.
        for seed in range(12):
            cnf = random_ksat(14, 130, k=4, seed=seed)
            results = {
                "arena": CDCLSolver().solve(cnf),
                "dpll": DPLLSolver().solve(cnf),
            }
            _assert_agreement(cnf, [], results)

    def test_engine_propagation_counts_agree_on_conflict_free_closures(self):
        # Unit propagation is confluent: on a conflict-free assumption vector
        # the arena must assign exactly the unit-propagation closure of the
        # vector, whatever its visit order.  Its propagation counter counts
        # the implied literals, so it equals the closure minus the vector's
        # own literals.  Vectors drawn from a model can never conflict.
        cnf = random_ksat(30, 100, k=3, seed=9)  # under-constrained: SAT
        model = CDCLSolver().solve(cnf).model
        assert model is not None
        rng = random.Random(17)
        vectors = []
        for _ in range(25):
            variables = rng.sample(range(1, 31), rng.randint(1, 6))
            vectors.append([v if model[v] else -v for v in variables])

        solver = CDCLSolver().load(cnf)
        solver._stats = SolverStats()
        solver._budget = SolverBudget()
        solver._propagate()
        assert solver._stats.propagations == 0  # no root-level units
        for vector in vectors:
            solver._trail_lim.append(len(solver._trail))
            for lit in vector:
                solver._enqueue(_ilit(lit), -1)
            solver._propagate()
            solver._cancel_until(0)

        implied = sum(len(_unit_closure(cnf, vector)) - len(vector) for vector in vectors)
        assert solver._stats.propagations == implied
        assert implied > 0


def _unit_closure(cnf: CNF, literals) -> set[int]:
    """The unit-propagation closure of ``literals``, inputs included (naive fixpoint)."""
    assigned = set(literals)
    changed = True
    while changed:
        changed = False
        for clause in cnf.clauses:
            if any(lit in assigned for lit in clause):
                continue
            open_literals = [lit for lit in clause if -lit not in assigned]
            assert open_literals, "the vector must not conflict"
            if len(open_literals) == 1:
                assigned.add(open_literals[0])
                changed = True
    return assigned


class TestTraceStatsParity:
    """PR 6: event traces must agree exactly with each engine's own counters.

    A trace is only useful evidence if it cannot drift from the statistics the
    rest of the system reports, so for a slice of the fuzz corpus the arena
    engine is solved with tracing attached and the per-event totals are
    checked against ``result.stats`` — propagations (ENQUEUE), decisions,
    conflicts, restarts and non-unit learnt clauses.
    """

    @staticmethod
    def _solve_traced(engine_cls, cnf):
        import io

        from repro.trace.format import TraceWriter, read_trace

        buffer = io.BytesIO()
        writer = TraceWriter(buffer)
        result = engine_cls().solve(cnf, trace=writer)
        writer.close()
        _, events = read_trace(io.BytesIO(buffer.getvalue()))
        return result, events

    def test_trace_event_counts_equal_stats_for_both_engines(self):
        corpus = list(_uniform_instances())[::9]  # every 9th: 20 instances
        assert len(corpus) >= 20
        for cnf in corpus:
            result, events = self._solve_traced(CDCLSolver, cnf)
            counts: dict[str, int] = {}
            learned = 0
            for event in events:
                counts[event.name] = counts.get(event.name, 0) + 1
                if event.name == "LEARN" and event.args[1] > 1:
                    learned += 1
            stats = result.stats
            expected = {
                "ENQUEUE": stats.propagations,
                "DECIDE": stats.decisions,
                "CONFLICT": stats.conflicts,
                "RESTART": stats.restarts,
            }
            for event_name, counter in expected.items():
                assert counts.get(event_name, 0) == counter, (
                    f"{event_name} events disagree with stats on {cnf}"
                )
            assert learned == stats.learned_clauses

    def test_batched_trace_event_counts_equal_scalar_stats(self):
        # PR 7: the lockstep fast path synthesises its trace events after the
        # word-parallel propagation, so the per-row ENQUEUE/DECIDE/CONFLICT
        # totals must still equal both the batch result's own counters and the
        # counters of a genuine scalar solve of the same row.
        import io

        from repro.trace.format import TraceWriter, read_trace

        rng = random.Random(4242)
        for index, cnf in enumerate(list(_uniform_instances())[::11]):
            rows = []
            for _ in range(7):
                variables = rng.sample(range(1, cnf.num_vars + 1), rng.randint(0, 5))
                rows.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
            buffer = io.BytesIO()
            writer = TraceWriter(buffer)
            results = CDCLSolver().load(cnf).solve_batch(rows, trace=writer)
            writer.close()
            _, events = read_trace(io.BytesIO(buffer.getvalue()))
            counts: dict[str, int] = {}
            for event in events:
                counts[event.name] = counts.get(event.name, 0) + 1
            scalar_solver = CDCLSolver()
            scalar_totals = {"ENQUEUE": 0, "DECIDE": 0, "CONFLICT": 0}
            batch_totals = dict(scalar_totals)
            for row, batch_result in zip(rows, results):
                scalar_stats = scalar_solver.solve(cnf, assumptions=list(row)).stats
                scalar_totals["ENQUEUE"] += scalar_stats.propagations
                scalar_totals["DECIDE"] += scalar_stats.decisions
                scalar_totals["CONFLICT"] += scalar_stats.conflicts
                batch_totals["ENQUEUE"] += batch_result.stats.propagations
                batch_totals["DECIDE"] += batch_result.stats.decisions
                batch_totals["CONFLICT"] += batch_result.stats.conflicts
            assert batch_totals == scalar_totals, (index, rows)
            for event_name, total in scalar_totals.items():
                assert counts.get(event_name, 0) == total, (index, event_name)

    def test_batched_estimate_traces_are_byte_identical_across_runs(self, tmp_path):
        # The trace-diff lane covers the batched kernel: record_estimate
        # solves each sampled row as one solve_batch task on the simulated
        # cluster, and two identically-seeded recordings must be
        # byte-identical, and diff_traces must say so.
        from repro.trace.diff import diff_traces
        from repro.trace.record import record_estimate

        cnf = random_ksat(12, 52, k=3, seed=23)
        paths = [tmp_path / "a.trace", tmp_path / "b.trace"]
        for path in paths:
            with open(path, "wb") as handle:
                record_estimate(cnf, [1, 2, 3, 4, 5], handle, sample_size=30, seed=9)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        diff = diff_traces(paths[0], paths[1])
        assert diff.identical


class TestBatchedVsScalar:
    """PR 7: ``solve_batch`` must be bit-identical to the scalar fresh loop.

    For 200+ seeded (CNF, assumption-row) pairs — the uniform grid at and off
    the phase transition, 4-SAT instances that exercise the long-clause
    occurrence path, planted-SAT and constructed-UNSAT formulas — the batch
    engine is run at batch sizes 1, 7 and 64 and every reported bit is pinned
    to a fresh scalar ``solve(cnf, assumptions=row)``: statuses, verified
    models, propagation/decision/conflict counters, and the estimator
    statistics folded from the per-row costs.
    """

    BATCH_SIZES = (1, 7, 64)

    @staticmethod
    def _rows_for(cnf: CNF, seed: int, count: int) -> list[tuple[int, ...]]:
        rng = random.Random(seed)
        rows = []
        for _ in range(count):
            width = rng.randint(0, min(6, cnf.num_vars))
            variables = rng.sample(range(1, cnf.num_vars + 1), width)
            rows.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
        return rows

    @classmethod
    def _assert_batch_matches_scalar(cls, cnf: CNF, rows, batch_size: int) -> int:
        from repro.stats.montecarlo import OnlineStatistics

        solver = CDCLSolver().load(cnf)
        batched = []
        for begin in range(0, len(rows), batch_size):
            batched.extend(solver.solve_batch(rows[begin : begin + batch_size]))
        scalar_solver = CDCLSolver()
        batch_fold = OnlineStatistics()
        scalar_fold = OnlineStatistics()
        for row, batch_result in zip(rows, batched):
            scalar_result = scalar_solver.solve(cnf, assumptions=list(row))
            assert batch_result.status is scalar_result.status, (cnf, row)
            bs, ss = batch_result.stats, scalar_result.stats
            assert bs.propagations == ss.propagations, (cnf, row)
            assert bs.decisions == ss.decisions, (cnf, row)
            assert bs.conflicts == ss.conflicts, (cnf, row)
            assert bs.max_decision_level == ss.max_decision_level, (cnf, row)
            if batch_result.status is SolverStatus.SAT:
                assert check_model(cnf, batch_result.model), (cnf, row)
                for literal in row:
                    assert batch_result.model[abs(literal)] == (literal > 0)
            batch_fold.add(float(bs.propagations))
            scalar_fold.add(float(ss.propagations))
        assert batch_fold.mean == scalar_fold.mean
        assert batch_fold.estimate().half_width == scalar_fold.estimate().half_width
        return len(rows)

    def test_uniform_corpus_bit_identical_at_batch_sizes_1_and_7(self):
        checked = 0
        for index, cnf in enumerate(_uniform_instances()):
            if index % 2:
                continue  # 90 instances: every other one of the uniform grid
            rows = self._rows_for(cnf, seed=3100 + index, count=4)
            for batch_size in (1, 7):
                self._assert_batch_matches_scalar(cnf, rows, batch_size)
            checked += len(rows)
        assert checked >= 200

    def test_batch_64_and_long_clause_instances(self):
        # 4-SAT formulas route propagation through the long-clause occurrence
        # lists (the prefix/suffix AND-product path the ternary corpus never
        # touches); 70 rows per instance force multi-word 64-chunking too.
        for seed in range(4):
            cnf = random_ksat(14, 130, k=4, seed=seed)
            rows = self._rows_for(cnf, seed=5200 + seed, count=70)
            self._assert_batch_matches_scalar(cnf, rows, 64)
        cnf = random_ksat(12, 62, k=3, seed=31)
        rows = self._rows_for(cnf, seed=5300, count=70)
        self._assert_batch_matches_scalar(cnf, rows, 64)

    def test_planted_and_constructed_instances(self):
        for seed in range(6):
            cnf, _planted = planted_ksat(10, 38, k=3, seed=seed)
            rows = self._rows_for(cnf, seed=6100 + seed, count=6)
            self._assert_batch_matches_scalar(cnf, rows, 7)
        for seed in range(6):
            cnf = random_unsat_core(6 + seed, seed=seed)
            rows = self._rows_for(cnf, seed=6200 + seed, count=6)
            self._assert_batch_matches_scalar(cnf, rows, 7)

    def test_duplicate_and_contradictory_rows(self):
        # Duplicates within a batch, duplicate literals within a row, and
        # directly contradictory rows must all mirror the scalar placement
        # protocol (empty levels for repeats, placement-UNSAT for x & -x).
        cnf = random_ksat(10, 42, k=3, seed=77)
        rows = [(1, 1, 2), (1, -1), (2, 3), (2, 3), (), (-2, -3, -2)]
        for batch_size in self.BATCH_SIZES:
            self._assert_batch_matches_scalar(cnf, rows, batch_size)

    def test_lockstep_off_matches_lockstep_on(self):
        # config.batch_lockstep=False routes every row through the scalar
        # fallback — the A/B lever that isolates the lockstep engine.
        from repro.sat.cdcl.config import CDCLConfig

        cnf = random_ksat(12, 52, k=3, seed=13)
        rows = self._rows_for(cnf, seed=7100, count=20)
        on = CDCLSolver().load(cnf).solve_batch(rows)
        off_solver = CDCLSolver(CDCLConfig(batch_lockstep=False))
        off = off_solver.load(cnf).solve_batch(rows)
        for row, a, b in zip(rows, on, off):
            assert a.status is b.status, row
            assert a.stats.propagations == b.stats.propagations, row
            assert a.stats.decisions == b.stats.decisions, row
            assert a.stats.conflicts == b.stats.conflicts, row
            assert a.model == b.model, row

    def test_folded_estimator_statistics_identical_through_the_scheduler(self):
        from repro.core.predictive import PredictiveFunction

        cnf = random_ksat(12, 52, k=3, seed=19)
        variables = [1, 2, 3, 4, 5, 6]

        def evaluate(batch_size):
            return PredictiveFunction(
                cnf, sample_size=40, seed=5, batch_size=batch_size
            ).evaluate(variables)

        scalar = evaluate(1)
        for batch_size in (7, 64):
            batched = evaluate(batch_size)
            assert [o.cost for o in batched.observations] == [
                o.cost for o in scalar.observations
            ]
            assert [o.status for o in batched.observations] == [
                o.status for o in scalar.observations
            ]
            assert batched.estimate.mean == scalar.estimate.mean
            assert batched.estimate.half_width == scalar.estimate.half_width


class _CheckedRestoreSolver(CDCLSolver):
    """A CDCL solver that checks every root-snapshot restore against the snapshot.

    ``_restore_root_state`` copies back only the watch lists it logged as
    dirty; here every restore is followed by a full comparison, so a list
    the log missed fails the restore that missed it.
    """

    def __init__(self, config=None):
        super().__init__(config)
        self.partial_restores = 0
        self.full_restores = 0
        self.collections = 0

    def _garbage_collect(self):
        self.collections += 1
        super()._garbage_collect()

    def _restore_root_state(self, snap):
        if self._dirty_lits is None:
            self.full_restores += 1
        else:
            self.partial_restores += 1
        super()._restore_root_state(snap)
        for field in self._SNAPSHOT_FIELDS:
            value = getattr(self, field)
            assert value == snap[field], field
            if isinstance(value, (list, dict)):
                assert value is not snap[field], field
        for field in ("_watches", "_tern_watches"):
            lists = getattr(self, field)
            assert lists == snap[field], field
            assert not any(a is b for a, b in zip(lists, snap[field])), field
        assert self._heap._heap == snap["_heap"]
        assert self._heap._indices == snap["_heap_indices"]
        assert self._heap._activity is self._activity
        assert not any(self._seen)


class TestRestoredRootState:
    """Every partial restore of the batched engine equals the root snapshot.

    Runs ``solve_batch`` on solvers built by ``load`` and by ``load_image``,
    over fuzz CNFs with and without long clauses, with an incremental solve
    and an ``import_clauses`` between two batches, and on a pigeonhole
    formula where ``_reduce_db`` and ``_garbage_collect`` fire inside the
    rows.  Each row's result must also equal a fresh ``solve(cnf, row)``.
    """

    @staticmethod
    def _build(builder: str, cnf: CNF, config=None) -> _CheckedRestoreSolver:
        from repro.sat.cdcl.image import ArenaImage

        solver = _CheckedRestoreSolver(config)
        if builder == "load":
            return solver.load(cnf)
        return solver.load_image(ArenaImage.freeze(cnf, config))

    @staticmethod
    def _assert_rows_equal_fresh(solver, cnf: CNF, rows, results) -> None:
        for row, result in zip(rows, results, strict=True):
            fresh = CDCLSolver(solver.config).solve(cnf, assumptions=list(row))
            assert result.status is fresh.status, row
            assert result.model == fresh.model, row
            assert result.conflict_activity == fresh.conflict_activity, row
            for counter in (
                "conflicts", "decisions", "propagations", "restarts",
                "learned_clauses", "deleted_clauses", "max_decision_level",
            ):
                assert getattr(result.stats, counter) == getattr(fresh.stats, counter), (
                    counter, row,
                )

    @classmethod
    def _batch_incremental_import_batch(cls, solver, cnf: CNF, rows, donor_row) -> None:
        first = solver.solve_batch(rows)
        cls._assert_rows_equal_fresh(solver, cnf, rows, first)
        # Between the batches the snapshot stays live: the incremental solve
        # attaches learnt clauses and the import attaches more, and the next
        # batch's up-front restore must undo all of it.
        solver.solve(assumptions=list(donor_row))
        donor = CDCLSolver(solver.config).load(cnf)
        donor.solve(assumptions=list(donor_row))
        implied = [clause for clause, _lbd in donor.exportable_clauses()]
        implied.extend(clause for clause in cnf.clauses[:4] if len(clause) > 1)
        assert solver.import_clauses(implied) > 0
        second = solver.solve_batch(rows[::-1])
        cls._assert_rows_equal_fresh(solver, cnf, rows[::-1], second)

    @pytest.mark.parametrize("builder", ["load", "load_image"])
    def test_restores_equal_the_snapshot_on_fuzz_cnfs(self, builder):
        for seed in range(4):
            ternary = random_ksat(12, 52, k=3, seed=8100 + seed)
            long_only = random_ksat(14, 130, k=4, seed=8200 + seed)
            mixed = CNF(
                list(random_ksat(12, 30, k=3, seed=8300 + seed).clauses)
                + list(random_ksat(12, 40, k=5, seed=8400 + seed).clauses),
                12,
            )
            for index, cnf in enumerate((ternary, long_only, mixed)):
                rows = TestBatchedVsScalar._rows_for(cnf, seed=8500 + 3 * seed + index, count=9)
                solver = self._build(builder, cnf)
                self._batch_incremental_import_batch(solver, cnf, rows, rows[0])
                assert solver.partial_restores > 0

    @pytest.mark.parametrize("builder", ["load", "load_image"])
    def test_restores_equal_the_snapshot_after_reduction_and_collection(self, builder):
        from repro.sat.cdcl.config import CDCLConfig
        from repro.sat.random_cnf import pigeonhole

        cnf = pigeonhole(6)  # long pigeon clauses, binary hole clauses
        solver = self._build(builder, cnf, CDCLConfig(learntsize_factor=0.01))
        rows = [(), (1,), (-1, 2), (3, -4)]
        self._batch_incremental_import_batch(solver, cnf, rows, (5,))
        assert solver.collections > 0, "the arena collector never ran"
        # A collection rebuilds every list, so the next restore copies them
        # all; the restores between collections stay partial.
        assert solver.full_restores > 0
        assert solver.partial_restores > 0


@pytest.mark.parametrize("seed", range(5))
def test_incremental_statuses_stable_across_call_order(seed):
    """Permuting the assumption vectors must not change any decided status."""
    cnf = random_ksat(10, 42, k=3, seed=1000 + seed)
    vectors = [[1], [-1], [2, 3], [-2, -3], []]
    forward = CDCLSolver().load(cnf)
    backward = CDCLSolver().load(cnf)
    first = [forward.solve(assumptions=v).status for v in vectors]
    second = list(
        reversed([backward.solve(assumptions=v).status for v in reversed(vectors)])
    )
    assert first == second


class TestPreprocessorDifferential:
    """PR 5: the preprocessing subsystem against the whole solver stack.

    Every instance of the seeded corpus (200+ CNFs: the uniform grid, the
    planted-SAT set and the constructed-UNSAT set) is preprocessed — with a
    couple of frozen variables, as the incremental contract prescribes — and
    the simplified formula is solved by fresh CDCL and DPLL.  Both must
    agree with the raw formula's verdict, and every
    model of the simplified formula must, after reconstruction, satisfy the
    *original* formula.  A separate pass drives incremental assumption
    sequences through ``CDCLConfig.simplify`` and requires bit-identical
    statuses with the plain incremental engine.
    """

    @staticmethod
    def _preprocess(cnf: CNF, frozen):
        from repro.sat.simplify import Preprocessor

        return Preprocessor(max_growth=2, max_occurrences=30).preprocess(
            cnf, frozen=frozen
        )

    @classmethod
    def _check_instance(cls, cnf: CNF, frozen=()):
        raw = CDCLSolver().solve(cnf)
        presolve = cls._preprocess(cnf, frozen)
        if presolve.unsat:
            assert raw.status is SolverStatus.UNSAT
            return raw.status
        simplified = presolve.cnf
        results = {
            "cdcl": CDCLSolver().solve(simplified),
            "dpll": DPLLSolver().solve(simplified),
        }
        for name, result in results.items():
            assert result.status is raw.status, (
                f"{name} on the simplified formula disagrees with the raw verdict"
            )
            if result.status is SolverStatus.SAT:
                model = presolve.reconstruct(result.model)
                full = {v: model.get(v, False) for v in range(1, cnf.num_vars + 1)}
                assert check_model(cnf, full), (
                    f"{name}'s reconstructed model falsifies the original formula"
                )
        return raw.status

    def test_simplified_corpus_agreement_uniform_grid(self):
        sat = unsat = 0
        for index, cnf in enumerate(_uniform_instances()):
            frozen = [1 + index % cnf.num_vars]
            status = self._check_instance(cnf, frozen)
            if status is SolverStatus.SAT:
                sat += 1
            else:
                unsat += 1
        assert sat > 20 and unsat > 20

    def test_simplified_planted_and_constructed_instances(self):
        for seed in range(10):
            cnf, _planted = planted_ksat(10, 38, k=3, seed=seed)
            assert self._check_instance(cnf, [1, 2]) is SolverStatus.SAT
        for seed in range(10):
            cnf = random_unsat_core(6 + seed, seed=seed)
            assert self._check_instance(cnf) is SolverStatus.UNSAT

    def test_incremental_assumption_sequences_with_frozen_variables(self):
        from repro.sat.cdcl.config import CDCLConfig

        for num_vars, ratio in UNIFORM_GRID:
            for seed in range(10):
                cnf = random_ksat(num_vars, round(ratio * num_vars), k=3, seed=1700 + seed)
                rng = random.Random(seed)
                frozen = sorted(rng.sample(range(1, num_vars + 1), 4))
                plain = CDCLSolver().load(cnf)
                simplifying = CDCLSolver(CDCLConfig(simplify=True)).load(cnf, frozen=frozen)
                for _ in range(4):
                    chosen = rng.sample(frozen, rng.randint(1, 3))
                    assumptions = [v if rng.random() < 0.5 else -v for v in chosen]
                    expected = plain.solve(assumptions=assumptions)
                    got = simplifying.solve(assumptions=assumptions)
                    assert got.status is expected.status, (cnf, assumptions)
                    if got.status is SolverStatus.SAT:
                        assert check_model(cnf, got.model)
                        for literal in assumptions:
                            assert got.model[abs(literal)] == (literal > 0)

    def test_corpus_size_including_preprocessing_runs(self):
        uniform = len(UNIFORM_GRID) * SEEDS_PER_SHAPE
        constructed = 10 + 10
        incremental_sequences = len(UNIFORM_GRID) * 10
        assert uniform + constructed + incremental_sequences >= 200


# The sharing-fuzz knobs deliberately differ from anything the benchmarks use:
# slices of 8 propagations force multiple exchange rounds even on 8-variable
# formulas, and the tight policy (LBD <= 3, size <= 6, 8 clauses per member
# per round) keeps the bus busy without flooding the tiny databases.
SHARING_FUZZ_KNOBS = dict(
    cost_measure="propagations",
    slice_budget=8,
    max_rounds=64,
    policy=SharingPolicy(max_lbd=3, max_size=6, per_round=8),
    seed=11,
)


def _sharing_solver(**overrides) -> SharingPortfolioSolver:
    knobs = dict(SHARING_FUZZ_KNOBS)
    knobs.update(overrides)
    return SharingPortfolioSolver(default_portfolio()[:3], **knobs)


def _assert_shared_clauses_redundant(cnf: CNF, shared, limit: int = 5) -> None:
    """Solve-under-negation: each bus clause must be implied by ``cnf``."""
    checker = CDCLSolver().load(cnf)
    for clause in shared[:limit]:
        negation = [-literal for literal in clause]
        assert checker.solve(assumptions=negation).status is SolverStatus.UNSAT, (
            f"the exchange carried a clause the formula does not imply: {clause}"
        )


class TestSharingPortfolio:
    """The clause-sharing portfolio differential-fuzz lane (PR 10)."""

    def test_sharing_agrees_with_cdcl_and_dpll_on_180_instances(self):
        total_exported = 0
        for cnf in _uniform_instances():
            sharing = _sharing_solver().solve(cnf)
            results = {
                "sharing": sharing,
                "cdcl": CDCLSolver().solve(cnf),
                "dpll": DPLLSolver().solve(cnf),
            }
            _assert_agreement(cnf, [], results)
            total_exported += sharing.total_exported
        # The tiny slices must actually force clause traffic somewhere in the
        # corpus — otherwise this lane silently degrades to the isolated race.
        assert total_exported > 100

    def test_sharing_agrees_with_the_isolated_portfolio_under_assumptions(self):
        for num_vars, ratio in UNIFORM_GRID:
            for seed in range(10):
                cnf = random_ksat(num_vars, round(ratio * num_vars), k=3, seed=6100 + seed)
                rng = random.Random(7100 + seed)
                variables = rng.sample(range(1, num_vars + 1), 2)
                assumptions = [v if rng.random() < 0.5 else -v for v in variables]
                isolated = _sharing_solver(policy=SharingPolicy(per_round=0))
                results = {
                    "sharing": _sharing_solver().solve(cnf, assumptions=assumptions),
                    "isolated": isolated.solve(cnf, assumptions=assumptions),
                    "cdcl": CDCLSolver().solve(cnf, assumptions=assumptions),
                }
                _assert_agreement(cnf, assumptions, results)

    def test_every_shared_clause_is_implied_by_the_formula(self):
        # Every 6th uniform instance: re-derive each bus clause independently
        # by refuting its negation on the original formula.
        checked_clauses = 0
        for index, cnf in enumerate(_uniform_instances()):
            if index % 6:
                continue
            sharing = _sharing_solver().solve(cnf)
            _assert_shared_clauses_redundant(cnf, sharing.shared_clauses)
            checked_clauses += min(len(sharing.shared_clauses), 5)
        assert checked_clauses > 30

    def test_sharing_with_inprocessing_agrees_on_constructed_instances(self):
        # Planted-SAT and constructed-UNSAT instances, with the preprocessor
        # running as inprocessing every 4 rounds mid-race: answers, models and
        # the redundancy of every shared clause must all survive.
        for seed in range(10):
            cnf, _planted = planted_ksat(10, 38, k=3, seed=seed)
            sharing = _sharing_solver(inprocess_every=4).solve(cnf)
            results = {"sharing": sharing, "dpll": DPLLSolver().solve(cnf)}
            assert sharing.status is SolverStatus.SAT
            _assert_agreement(cnf, [], results)
            _assert_shared_clauses_redundant(cnf, sharing.shared_clauses)
        for seed in range(10):
            cnf = random_unsat_core(6 + seed, seed=seed)
            sharing = _sharing_solver(inprocess_every=4).solve(cnf)
            assert sharing.status is SolverStatus.UNSAT
            _assert_shared_clauses_redundant(cnf, sharing.shared_clauses)

    def test_sharing_corpus_reaches_two_hundred_instances(self):
        uniform = len(UNIFORM_GRID) * SEEDS_PER_SHAPE
        assumption_runs = len(UNIFORM_GRID) * 10
        inprocessing_runs = 10 + 10
        assert uniform + assumption_runs + inprocessing_runs >= 200
