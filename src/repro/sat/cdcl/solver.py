"""A complete, deterministic CDCL SAT solver with a flat-array propagation core.

The solver follows the MiniSat architecture — two-watched-literal unit
propagation, first-UIP conflict analysis with clause minimisation, VSIDS
variable activities with exponential decay, phase saving, Luby restarts and
LBD-aware deletion of learned clauses — but stores the entire clause database
in **flat arrays** instead of Python objects:

* **Clause arena** — one shared flat int sequence holds every clause as
  ``[size, lit0, lit1, ...]``; a clause is identified by the int32 offset
  (*cref*) of its size slot.  There are no per-clause Python objects on the hot
  path, no attribute lookups, and deleted clauses are compacted away by a
  mark-free garbage collector once half the arena is garbage.  (A plain list
  is used as the backing store rather than ``array('i')``: CPython boxes a
  fresh int on every ``array`` read, which measured ~15 % slower end-to-end,
  while a list of small ints shares the cached objects.)
* **Literal indices** — literals are encoded as array indices
  (``var·2`` for the positive, ``var·2 + 1`` for the negative literal, so
  negation is ``idx ^ 1``), and the assignment is a flat list indexed *by
  literal*: evaluating a literal under the current assignment is a single
  indexed load instead of a sign test plus a conditional negation.
* **Watcher lists with blocker literals** — each literal's watchers are a flat
  ``[cref, blocker, cref, blocker, ...]`` int list.  The blocker is a literal
  of the clause (MiniSat's trick): when it is already true the clause is
  satisfied and the propagation loop skips it without touching the arena at
  all, which is where most visits end on structured instances.
* **Preallocated trail/reason/level stores** — the trail is a flat literal
  list with an explicit propagation-queue head; reasons are crefs (``-1`` for
  decisions) and levels plain ints, both indexed by variable.

The engine is deliberately free of any randomisation so that repeated runs on
the same input produce identical work counters — the property the paper
requires of the algorithm ``A`` whose runtime defines the random variable
``ξ_{C,A}(X̃)``.  The differential fuzz suite checks its verdicts against
the reference DPLL solver, and the repository benchmark (``perfbench/``)
guards its end-to-end speed.

One-shot usage (fresh solver state per call, the historical behaviour)::

    solver = CDCLSolver()
    result = solver.solve(cnf, assumptions=[5, -7])
    if result.is_sat:
        print(result.model)
    print(result.stats.conflicts, result.stats.wall_time)

Incremental usage — the contract of the batched Monte Carlo engine
(:class:`repro.core.predictive.PredictiveFunction`):

* :meth:`CDCLSolver.load` builds the internal clause database **once**;
  subsequent ``solve(assumptions=...)`` calls (no CNF argument) solve the same
  formula under different assumption vectors without re-constructing watches,
  heaps or the arena.
* Learned clauses, variable activities and saved phases are **retained across
  calls**.  This is sound because assumptions are treated as decisions (never
  as units at level 0): every learned clause is a resolvent of database
  clauses only and is therefore implied by the formula itself, independent of
  whichever assumptions were active when it was learned.
* ``result.stats`` and ``result.conflict_activity`` are **per call**: counters
  restart from zero at each ``solve`` and the activity dict reports only this
  call's VSIDS bumps, so a :class:`~repro.sat.solver.SolverBudget` passed to
  one call bounds only that call (per-call restart/conflict budgets).  A call
  that exhausts its budget returns UNKNOWN and leaves the solver reusable.
* An UNSAT answer from an assumption-based call means "UNSAT *under these
  assumptions*"; only a conflict at decision level 0 proves the formula
  globally unsatisfiable (after which every later call returns UNSAT
  immediately).

Passing a CNF to :meth:`CDCLSolver.solve` always re-initialises from scratch,
which keeps one-shot runs deterministic and bit-for-bit repeatable.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Sequence

from repro.sat.cdcl.config import CDCLConfig
from repro.sat.cdcl.heap import ActivityHeap
from repro.sat.cdcl.luby import luby
from repro.sat.formula import CNF, normalize_clause
from repro.sat.solver import SolveResult, SolverBudget, SolverStats, SolverStatus

#: Assignment-array states (indexed by literal): true / false / unassigned.
_TRUE, _FALSE, _UNDEF = 1, 0, -1
#: Reason sentinel: the variable is a decision/assumption (no reason clause).
_NO_REASON = -1
#: The budget of a call given none; never mutated, so every such call shares it.
_UNLIMITED = SolverBudget()


def _ilit(lit: int) -> int:
    """External DIMACS literal -> internal literal index (2v / 2v+1)."""
    return (lit << 1) if lit > 0 else ((-lit) << 1) | 1


def _elit(idx: int) -> int:
    """Internal literal index -> external DIMACS literal."""
    return -(idx >> 1) if idx & 1 else (idx >> 1)


class CDCLSolver:
    """Conflict-driven clause-learning solver over a flat clause arena."""

    def __init__(self, config: CDCLConfig | None = None):
        self.config = config or CDCLConfig()
        #: The formula currently held in the internal clause database, or
        #: ``None`` before the first ``load``/``solve``.  The batched Monte
        #: Carlo engine checks this to decide whether a re-load is needed.
        self.loaded_cnf: CNF | None = None
        #: The (chained) :class:`~repro.sat.simplify.PreprocessResult` of the
        #: :meth:`inprocess` calls since the last load (``None`` before one).
        self._presolve = None
        #: Persistent event sink (:class:`repro.trace.format.TraceWriter` or
        #: anything with its event methods); ``None`` keeps tracing off.  A
        #: per-call sink can also be passed as ``solve(trace=...)``.
        self.trace = None
        self._trace = None
        self._solve_seq = 0
        #: The :class:`~repro.sat.cdcl.image.ArenaImage` behind the last
        #: :meth:`load_image` (``None`` after a plain ``load``); re-loads for
        #: :meth:`solve_batch`'s root snapshot go through it when present.
        self._image = None
        #: Copy of the pristine post-load state (lazily captured by
        #: :meth:`solve_batch`); :meth:`_restore_root_state` brings it back
        #: byte for byte, copying only the watch lists that can have changed.
        self._root_snapshot = None
        #: Literals of the clauses attached since the root snapshot was taken
        #: (their long lists and the ternary lists of their negations may
        #: differ from the snapshot's); ``None`` means every literal, which
        #: holds while no snapshot is live and after the lists are rebuilt.
        self._dirty_lits: set[int] | None = None
        #: True while the internal state is exactly the post-load state (no
        #: solve has mutated it since); guards snapshot capture.
        self._pristine = False
        #: The frozen-variable set of the last :meth:`load` (the incremental
        #: contract's assumption candidates); :meth:`inprocess` re-freezes it.
        self._frozen: frozenset[int] = frozenset()

    # ------------------------------------------------------------------ public
    @property
    def presolve(self):
        """The inprocessing record of the loaded formula (``None`` before :meth:`inprocess`)."""
        return self._presolve

    @property
    def eliminated_variables(self) -> frozenset[int]:
        """Variables removed by :meth:`inprocess` (empty before it runs)."""
        return self._presolve.eliminated_variables if self._presolve is not None else frozenset()

    @property
    def unassumable_variables(self) -> frozenset[int]:
        """Variables illegal as assumptions after :meth:`inprocess`.

        Eliminated variables plus non-frozen root-fixed ones — either way
        their clauses are gone from the internal database, so an assumption
        against them could come back SAT on a formula the original refutes.
        Empty before :meth:`inprocess` runs, and empty when inprocessing
        refuted the formula outright (every solve then answers UNSAT, which is
        sound under any assumptions).
        """
        if self._presolve is None or self._presolve.unsat:
            return frozenset()
        return self._presolve.unassumable_variables

    def load(self, cnf: CNF, frozen=()) -> "CDCLSolver":
        """Build the internal clause database for ``cnf`` (incremental entry point).

        After ``load``, call :meth:`solve` without a CNF argument to solve the
        formula under varying assumptions while retaining learned clauses,
        activities and saved phases across calls.  Returns ``self`` so the
        idiom ``CDCLSolver().load(cnf)`` works.

        ``frozen`` names the variables that later ``solve(assumptions=...)``
        calls may constrain (the incremental contract: pass the superset of
        all assumption candidates, e.g. the instance's start set), which
        :meth:`inprocess` then never eliminates.  Frozen ids outside
        ``1..cnf.num_vars`` raise :class:`ValueError`.
        """
        from repro.sat.simplify import validate_frozen

        self._frozen = validate_frozen(frozen, cnf.num_vars)
        self._presolve = None
        self._init(cnf)
        self.loaded_cnf = cnf
        self._image = None
        self._root_snapshot = None
        self._pristine = True
        return self

    def load_image(self, image) -> "CDCLSolver":
        """Rebuild the clause database from a frozen :class:`ArenaImage`.

        Bit-identical to :meth:`load` on the formula the image froze — the
        arena, cref table and root-unit trail are copied straight out of the
        buffer, skipping per-clause normalisation entirely (the frozen-image
        worker protocol: process-pool workers inherit the leader's image
        through the pool initializer and rebuild from it instead of
        re-loading a CNF).  The saving is modest: 2.26 ms against 2.63 ms
        for ``load`` on the simplified Bivium16 formula and 11.85 ms against
        13.69 ms on a51-tiny (medians of 50 interleaved rounds on a 2-vCPU
        VM), and decoding ``loaded_cnf`` with ``image.to_cnf()`` is 1.41 ms
        of the Bivium16 figure.
        """
        n = image.num_vars
        self._presolve = None
        self._frozen = frozenset()
        self._num_vars = n
        self._values = [_UNDEF] * ((n + 1) << 1)
        self._level = [0] * (n + 1)
        self._reason = [_NO_REASON] * (n + 1)
        self._saved_phase = [self.config.default_phase] * (n + 1)
        self._activity = [0.0] * (n + 1)
        self._activity_rescales = 0
        self._bumped_vars = set()
        self._bump_snapshots = {}
        self._track_bumps = False
        self._var_inc = 1.0
        self._cla_inc = 1.0
        self._heap = ActivityHeap(self._activity)
        for v in range(1, n + 1):
            self._heap.push(v)
        self._watches = [[] for _ in range((n + 1) << 1)]
        self._tern_watches = [[] for _ in range((n + 1) << 1)]
        self._dirty_lits = None
        self._values[0] = _FALSE
        self._has_long = False
        self._arena = image.arena()
        self._clauses = image.crefs()
        self._learnts = []
        self._cla_activity = {}
        self._cla_lbd = {}
        self._wasted = 0
        self._trail = []
        self._trail_lim = []
        self._qhead = 0
        self._ok = image.ok
        self._seen = [False] * (n + 1)
        for cref in self._clauses:
            self._attach(cref)
        for lit in image.root_units():
            var = lit >> 1
            self._values[lit] = _TRUE
            self._values[lit ^ 1] = _FALSE
            self._level[var] = 0
            self._reason[var] = _NO_REASON
            self._trail.append(lit)
        self.loaded_cnf = image.to_cnf()
        self._image = image
        self._root_snapshot = None
        self._pristine = True
        return self

    def solve(
        self,
        cnf: CNF | None = None,
        assumptions: Sequence[int] = (),
        budget: SolverBudget | None = None,
        trace=None,
    ) -> SolveResult:
        """Solve under ``assumptions`` within an optional per-call ``budget``.

        With a ``cnf`` argument the solver re-initialises from scratch (the
        one-shot behaviour).  With ``cnf=None`` the formula from a previous
        :meth:`load` (or previous one-shot solve) is reused incrementally:
        learned clauses are retained, only ``result.stats`` restarts from zero.

        ``trace`` attaches an event sink (a
        :class:`repro.trace.format.TraceWriter`) for this call; when ``None``
        the persistent :attr:`trace` attribute is used, and when that is also
        ``None`` tracing is fully disabled — the search loops then perform a
        single guarded attribute check per propagation call and allocate
        nothing.

        Returns a :class:`~repro.sat.solver.SolveResult` whose status is SAT,
        UNSAT, or UNKNOWN (budget exhausted).  When SAT, ``result.model`` maps
        every variable ``1..num_vars`` to a Boolean; variables that do not
        occur in the formula default to the solver's default phase.
        """
        start = time.perf_counter()
        fresh = cnf is not None
        if fresh:
            self.load(cnf)
        elif self.loaded_cnf is None:
            raise ValueError("no formula loaded: pass a CNF or call load() first")
        else:
            self._cancel_until(0)
        return self._run_solve(assumptions, budget, trace, fresh, start)

    def _run_solve(
        self,
        assumptions: Sequence[int],
        budget: SolverBudget | None,
        trace,
        fresh: bool,
        start: float,
    ) -> SolveResult:
        """The post-load body of :meth:`solve` (shared with :meth:`solve_batch`).

        ``fresh`` selects the one-shot reporting contract (activity read off
        the activity array, no bump tracking); :meth:`solve_batch` restores
        the pristine root snapshot before each row and calls this with
        ``fresh=True``, which makes every row bit-identical to
        ``solve(cnf, ...)`` without re-running ``_init``.
        """
        self._budget = budget or _UNLIMITED
        self._stats = SolverStats()
        self._trace = trace if trace is not None else self.trace
        self._pristine = False
        # Snapshot bookkeeping is only consumed by the incremental activity
        # report; keep it off the fresh path's conflict-analysis hot loop.
        self._track_bumps = not fresh
        self._bumped_vars.clear()
        self._bump_snapshots.clear()
        rescales_before = self._activity_rescales
        var_inc_before = self._var_inc

        # One pass converts each literal to its internal index (as _ilit
        # does) and refuses 0 and variables outside the formula.
        num_vars = self._num_vars
        internal: list[int] = []
        for literal in assumptions:
            if 0 < literal <= num_vars:
                internal.append(literal << 1)
            elif 0 < -literal <= num_vars:
                internal.append((-literal << 1) | 1)
            else:
                raise ValueError(
                    f"assumption literal {literal} is outside the loaded "
                    f"formula's variables 1..{num_vars}"
                )
        if self._presolve is not None:
            gone = sorted({abs(lit) for lit in assumptions} & self.unassumable_variables)
            if gone:
                raise ValueError(
                    f"assumption variables {gone} were eliminated or fixed by "
                    f"preprocessing; pass them in load(..., frozen=...) to keep "
                    f"them assumable"
                )
        if self._trace is not None:
            self._trace.solve_begin(self._solve_seq, len(assumptions))
        self._solve_seq += 1
        status = self._solve_internal(internal)

        self._stats.wall_time = time.perf_counter() - start
        model = None
        if status is SolverStatus.SAT:
            values = self._values
            default = self.config.default_phase
            model = {
                v: (values[v << 1] == _TRUE if values[v << 1] != _UNDEF else default)
                for v in range(1, self._num_vars + 1)
            }
            if self._presolve is not None:
                # Replay the preprocessor's reconstruction stack so eliminated
                # and root-fixed variables carry values satisfying the
                # *original* formula, not the solver's default phase.
                model = self._presolve.reconstruct(model)
        # Like stats, conflict_activity is per call: report only the bumps of
        # this call, not the cumulative VSIDS state retained across calls, and
        # only variables with nonzero activity.  Fresh solves start from zero
        # activity, so they report the raw activity of every bumped variable;
        # incremental calls report the variables bumped this call,
        # reconstructed from per-variable snapshots taken at first bump (no
        # O(num_vars) work per sample).
        # Deltas are normalised by the call-start var_inc so a bump in one
        # call weighs the same as a bump in any other, and each snapshot is
        # brought into the current frame when the 1e100 activity rescale fired
        # after it — without those two corrections, accumulated activity would
        # be exponentially dominated by the most recent calls, or collapse to
        # zero in the call where the rescale happens.
        if fresh:
            activity = {v: act for v, act in enumerate(self._activity) if act > 0.0}
        else:
            unit = var_inc_before * (
                1e-100 ** (self._activity_rescales - rescales_before)
            )
            if unit <= 0.0:
                # >= 4 rescales in one call (~18k conflicts): the unit
                # underflowed to exactly 0.  Use the smallest positive float
                # and rely on the cap below — such a call saturated the
                # activity order anyway.
                unit = 5e-324
            activity = {}
            for v in sorted(self._bumped_vars):
                snap_value, snap_rescales = self._bump_snapshots[v]
                snap_scale = 1e-100 ** (self._activity_rescales - snap_rescales)
                delta = (self._activity[v] - snap_value * snap_scale) / unit
                if delta > 0.0:
                    # Keep reported activity finite: an inf would be folded
                    # into downstream accumulated sums permanently.
                    activity[v] = min(delta, 1e100)
        return SolveResult(
            status=status,
            model=model,
            stats=self._stats,
            conflict_activity=activity,
        )

    def solve_batch(
        self,
        assumption_rows: Sequence[Sequence[int]],
        cnf: CNF | None = None,
        budget: SolverBudget | None = None,
        trace=None,
    ) -> list[SolveResult]:
        """Solve many assumption rows against one formula, each as a fresh solve.

        Semantically identical to ``[solve(cnf, row, budget) for row in rows]``
        on the loaded formula: no learnt clause or activity carries across
        rows, and ``budget`` bounds each row on its own.  The formula is
        loaded once; each row then starts from the pristine post-load state,
        restored from a snapshot (:meth:`_restore_root_state`) instead of
        re-running ``_init`` and root propagation, and one more restore at
        the end leaves the solver as the batch found it.  Statuses, models,
        stats counters and conflict activity are bit-identical to fresh
        solves; see ``tests/test_differential_fuzz.py::TestBatchedVsScalar``.
        A batch solves the *loaded* formula fresh, so, like
        ``solve(cnf, ...)``, it drops what :meth:`inprocess` did (the frozen
        set of :meth:`load` is kept).  Every row's literals are checked
        before any row is solved.  Each row's ``wall_time`` carries an even
        share of the batch's shared work (the check, the snapshot and its
        restores), so the rows' wall times sum to the call's elapsed time.
        """
        if cnf is not None:
            self.load(cnf)
        elif self.loaded_cnf is None:
            raise ValueError("no formula loaded: pass a CNF or call load() first")
        started = time.perf_counter()
        rows = [tuple(row) for row in assumption_rows]
        if not rows:
            return []
        num_vars = self.loaded_cnf.num_vars
        for row in rows:
            for literal in row:
                if literal == 0 or abs(literal) > num_vars:
                    raise ValueError(
                        f"assumption literal {literal} is outside the loaded "
                        f"formula's variables 1..{num_vars}"
                    )
        snapshot = self._ensure_root_snapshot()
        results = []
        for row in rows:
            if not self._pristine:
                self._restore_root_state(snapshot)
            results.append(self._run_solve(row, budget, trace, True, time.perf_counter()))
        self._restore_root_state(snapshot)
        # The check, the snapshot and the restores serve every row: charge
        # each row an even share, so the rows' wall times sum to the call's.
        elapsed = time.perf_counter() - started
        shared = (elapsed - sum(result.stats.wall_time for result in results)) / len(rows)
        for result in results:
            result.stats.wall_time += shared
        return results

    # ------------------------------------------------------------ clause sharing
    def import_clauses(self, clauses: Sequence[Sequence[int]]) -> int:
        """Add externally learned clauses to the database at a restart boundary.

        The clause-sharing entry point of the parallel portfolio
        (:mod:`repro.portfolio.sharing`): every clause **must be implied by
        the loaded formula** — the caller's contract, typically satisfied
        because the clauses are learned clauses exported by another solver
        working on the same formula (learned clauses are resolvents of
        database clauses only, so they are formula consequences independent
        of any assumptions in force when they were derived).

        The trail is first cancelled to decision level 0 (the restart
        boundary).  Each clause is normalised, clauses satisfied at the root
        are skipped, root-falsified literals are removed, units are enqueued
        at the root, and everything longer is attached as a *learnt* clause
        (LBD = clause length) so the reduction heuristic may age it out
        again.  Returns the number of clauses actually added (units
        included); skipped duplicates of root-satisfied clauses do not count.
        Literals outside the loaded formula's variables raise
        :class:`ValueError`.
        """
        if self.loaded_cnf is None:
            raise ValueError("no formula loaded: call load() before import_clauses()")
        self._cancel_until(0)
        values = self._values
        imported = 0
        for clause in clauses:
            norm = normalize_clause(clause)
            if norm is None:
                continue  # tautology
            lits: list[int] = []
            satisfied = False
            for lit in norm:
                if abs(lit) > self._num_vars:
                    raise ValueError(
                        f"imported literal {lit} is outside the loaded "
                        f"formula's variables 1..{self._num_vars}"
                    )
                idx = _ilit(lit)
                val = values[idx]
                if val == _TRUE:
                    satisfied = True
                    break
                if val == _UNDEF:
                    lits.append(idx)
            if satisfied or not self._ok:
                continue
            imported += 1
            if not lits:
                self._ok = False  # implied empty clause: the formula is UNSAT
            elif len(lits) == 1:
                if not self._enqueue(lits[0], _NO_REASON):
                    self._ok = False
            else:
                cref = self._alloc(lits)
                self._learnts.append(cref)
                self._cla_activity[cref] = 0.0
                self._cla_lbd[cref] = len(lits)
                self._attach(cref)
        if imported:
            self._pristine = False
        return imported

    def exportable_clauses(
        self,
        max_lbd: int | None = None,
        max_size: int | None = None,
        limit: int | None = None,
    ) -> list[tuple[tuple[int, ...], int]]:
        """Learned clauses worth sharing, as ``(clause, lbd)`` pairs.

        Returns root-level unit consequences (LBD 1) plus the current learnt
        clauses passing the ``max_lbd`` / ``max_size`` quality filters, in a
        canonical deterministic order — sorted by ``(lbd, size, literals)``
        — truncated to ``limit``.  Clauses are tuples of external signed
        literals in :func:`normalize_clause` order, so identical clauses
        exported by different members compare equal in the exchange.  Every
        returned clause is implied by the loaded formula (root units and
        learned clauses are formula consequences), which is exactly the
        soundness contract :meth:`import_clauses` requires.
        """
        if self.loaded_cnf is None:
            return []
        arena = self._arena
        out: list[tuple[tuple[int, ...], int]] = []
        root_end = self._trail_lim[0] if self._trail_lim else len(self._trail)
        for lit in self._trail[:root_end]:
            out.append(((_elit(lit),), 1))
        for cref in self._learnts:
            size = arena[cref]
            lbd = self._cla_lbd.get(cref, size)
            if max_lbd is not None and lbd > max_lbd:
                continue
            if max_size is not None and size > max_size:
                continue
            external = normalize_clause(
                _elit(arena[cref + 1 + off]) for off in range(size)
            )
            if external is None:
                continue
            out.append((external, lbd))
        out.sort(key=lambda pair: (pair[1], len(pair[0]), pair[0]))
        if limit is not None:
            out = out[:limit]
        return out

    def inprocess(self, preprocessor=None, frozen=()):
        """Re-simplify the live clause database (inprocessing).

        Runs the PR 5 :class:`~repro.sat.simplify.Preprocessor` rules against
        the *current* database — root-fixed literals, problem clauses and
        learned clauses alike — at a restart boundary, then rebuilds the
        internal structures from the simplified formula.  The frozen-variable
        contract of :meth:`load` carries over: variables frozen at load time
        (plus any extra ``frozen`` ids given here) are never eliminated, so
        incremental ``solve(assumptions=...)`` calls stay valid afterwards.
        Saved phases and VSIDS activities survive the rebuild (variable
        numbering is stable), learned clauses that survive simplification
        become permanent clauses of the rebuilt database, and the
        preprocessing stage is chained onto any earlier stages so SAT models
        keep reconstructing over the *original* formula
        (:class:`~repro.sat.simplify.ChainedPreprocessResult`).

        Returns the stage's :class:`~repro.sat.simplify.PreprocessResult`,
        or ``None`` when the database is already known UNSAT (nothing to
        simplify).  :attr:`unassumable_variables` reflects the union over all
        stages after the call.
        """
        from repro.sat.simplify import (
            Preprocessor,
            chain_preprocess_results,
            validate_frozen,
        )

        if self.loaded_cnf is None:
            raise ValueError("no formula loaded: call load() before inprocess()")
        if not self._ok:
            return None
        self._cancel_until(0)
        frozen_set = self._frozen | validate_frozen(frozen, self._num_vars)

        # The live database in external literal form: root consequences as
        # units, then problem clauses, then learnt clauses (age order — the
        # ordering only affects the simplifier's deterministic tie-breaks).
        arena = self._arena
        clauses: list[tuple[int, ...]] = [(_elit(lit),) for lit in self._trail]
        for group in (self._clauses, self._learnts):
            for cref in group:
                size = arena[cref]
                clauses.append(tuple(_elit(arena[cref + 1 + off]) for off in range(size)))
        db_cnf = CNF(clauses, self._num_vars)

        if preprocessor is None:
            preprocessor = Preprocessor()
        result = preprocessor.preprocess(db_cnf, frozen=frozen_set, trace=self.trace)
        self._presolve = chain_preprocess_results(self._presolve, result)
        if result.unsat:
            self._ok = False
            return result

        # Rebuild the engine from the simplified formula, preserving the
        # branching heuristics (stable variable numbering makes the arrays
        # carry over verbatim; the heap is re-pushed so its invariant holds
        # under the restored activities).
        saved_phase = self._saved_phase
        activity = self._activity
        var_inc, cla_inc = self._var_inc, self._cla_inc
        rescales = self._activity_rescales
        self._init(result.cnf)
        self._saved_phase = saved_phase
        self._activity = activity
        self._var_inc, self._cla_inc = var_inc, cla_inc
        self._activity_rescales = rescales
        heap = ActivityHeap(self._activity)
        for v in range(1, self._num_vars + 1):
            heap.push(v)
        self._heap = heap
        self._frozen = frozen_set
        self._image = None
        self._root_snapshot = None
        self._pristine = False
        return result

    # --------------------------------------------------------- root snapshotting
    _SNAPSHOT_FIELDS = (
        # Every mutable field _init creates, except _seen (all-False between
        # solves — _analyze restores it) and the per-call bookkeeping that
        # _run_solve resets anyway (_budget/_stats/_trace, bump tracking).
        "_num_vars",
        "_values",
        "_level",
        "_reason",
        "_saved_phase",
        "_activity",
        "_activity_rescales",
        "_var_inc",
        "_cla_inc",
        "_has_long",
        "_arena",
        "_clauses",
        "_learnts",
        "_cla_activity",
        "_cla_lbd",
        "_wasted",
        "_trail",
        "_trail_lim",
        "_qhead",
        "_ok",
    )

    def _capture_root_state(self) -> dict:
        """Copy the pristine post-load state and start logging dirty literals.

        Besides the flat fields, the heap and every watch list, the snapshot
        records the literals of the long (>= 4) problem clauses: their long
        watch lists are the only ones propagation edits.  Every other list
        changes only when a clause is attached or detached, and from here on
        :meth:`_attach` logs the literals of each clause it attaches (a
        pristine state holds no learnt clause, so nothing attached before
        the capture is ever detached).
        """
        snap = {}
        for field in self._SNAPSHOT_FIELDS:
            value = getattr(self, field)
            if isinstance(value, list):
                value = value[:]
            elif isinstance(value, dict):
                value = dict(value)
            snap[field] = value
        snap["_watches"] = [wl[:] for wl in self._watches]
        snap["_tern_watches"] = [wl[:] for wl in self._tern_watches]
        snap["_heap"] = self._heap._heap[:]
        snap["_heap_indices"] = dict(self._heap._indices)
        arena = self._arena
        long_lits: set[int] = set()
        for cref in self._clauses:
            size = arena[cref]
            if size >= 4:
                long_lits.update(arena[cref + 1 : cref + 1 + size])
        snap["_long_lits"] = sorted(long_lits)
        self._dirty_lits = set()
        return snap

    def _restore_root_state(self, snap: dict) -> None:
        """Overwrite the internal state with fresh copies of ``snap``.

        Watch lists are copied back only where they can differ from the
        snapshot:

        * the long lists of the long problem clauses' literals, whose
          watches propagation moves;
        * both lists of every literal :meth:`_attach` logged since the
          capture or the last restore (attaching a clause appends to its
          literals' long lists or to their negations' ternary lists, and
          detaching it removes the entries again).

        Every other list is skipped: propagation never edits a ternary list,
        and the long list of a literal in no long clause stays empty.  When
        the lists were rebuilt since (``_garbage_collect``, or ``_init``
        through ``load``/``load_image``/``inprocess``), every literal counts
        as dirty and every list is copied.
        """
        for field in self._SNAPSHOT_FIELDS:
            value = snap[field]
            if isinstance(value, list):
                value = value[:]
            elif isinstance(value, dict):
                value = dict(value)
            setattr(self, field, value)
        dirty = self._dirty_lits
        snap_watches = snap["_watches"]
        snap_tern = snap["_tern_watches"]
        if dirty is None:
            self._watches = [wl[:] for wl in snap_watches]
            self._tern_watches = [wl[:] for wl in snap_tern]
        else:
            watches = self._watches
            tern_watches = self._tern_watches
            for lit in snap["_long_lits"]:
                watches[lit] = snap_watches[lit][:]
            for lit in dirty:
                watches[lit] = snap_watches[lit][:]
                tern_watches[lit ^ 1] = snap_tern[lit ^ 1][:]
        self._dirty_lits = set()
        # The heap must index into the *restored* activity list, not the
        # snapshot's: rebuild it around self._activity and graft the frozen
        # order back on.
        heap = ActivityHeap(self._activity)
        heap._heap = snap["_heap"][:]
        heap._indices = dict(snap["_heap_indices"])
        self._heap = heap
        self._seen = [False] * (self._num_vars + 1)
        self._bumped_vars = set()
        self._bump_snapshots = {}
        self._track_bumps = False
        self._pristine = True

    def _ensure_root_snapshot(self) -> dict:
        """Capture (or return) the pristine post-load snapshot, re-loading the
        formula first (with its frozen set) if a previous solve or
        :meth:`inprocess` already changed the state."""
        if self._root_snapshot is None:
            if not self._pristine:
                if self._image is not None:
                    self.load_image(self._image)
                else:
                    self.load(self.loaded_cnf, frozen=self._frozen)
            self._root_snapshot = self._capture_root_state()
        return self._root_snapshot

    # -------------------------------------------------------------- initialise
    def _init(self, cnf: CNF) -> None:
        n = cnf.num_vars
        self._num_vars = n
        #: Assignment indexed by literal index: _TRUE / _FALSE / _UNDEF.
        self._values: list[int] = [_UNDEF] * ((n + 1) << 1)
        self._level: list[int] = [0] * (n + 1)
        #: Reason cref per variable; _NO_REASON for decisions and unassigned.
        self._reason: list[int] = [_NO_REASON] * (n + 1)
        self._saved_phase: list[bool] = [self.config.default_phase] * (n + 1)
        self._activity: list[float] = [0.0] * (n + 1)
        self._activity_rescales = 0
        self._bumped_vars: set[int] = set()
        #: var -> (activity value, rescale count) at this call's first bump.
        self._bump_snapshots: dict[int, tuple[float, int]] = {}
        self._track_bumps = False
        self._var_inc = 1.0
        self._cla_inc = 1.0
        self._heap = ActivityHeap(self._activity)
        for v in range(1, n + 1):
            self._heap.push(v)
        #: Array-indexed watcher lists: _watches[lit] is a flat
        #: [cref, blocker, cref, blocker, ...] int list over clauses of
        #: length >= 3 whose watched literals include ``lit``.
        self._watches: list[list[int]] = [[] for _ in range((n + 1) << 1)]
        #: Binary and ternary clauses are watched on *all* their literals as
        #: static ``(cref, other1, other2)`` tuples, indexed by the
        #: *triggering* literal (the negation of the clause literal, so the
        #: hot loop skips the per-literal XOR): a visit decides
        #: satisfied/unit/conflict from the sibling values alone, with no
        #: arena access and no watcher movement, ever.  A binary clause is
        #: stored as ``(cref, other, 0)`` — literal index 0 belongs to the
        #: unused variable 0 and is pinned false, which makes the ternary
        #: visit logic collapse to exactly the binary implication rules.
        #: The dominant Tseitin workloads (an XOR gate encodes as four
        #: ternary clauses) never touch the arena during propagation at all.
        #: Tuples (not flat triples) let the hot loop unpack via the C-level
        #: ``for`` protocol.
        self._tern_watches: list[list[tuple[int, int, int]]] = [
            [] for _ in range((n + 1) << 1)
        ]
        self._dirty_lits = None  # new lists: no snapshot can be restored in part
        self._values[0] = _FALSE  # the binary-clause sentinel literal
        #: True once any clause of length >= 4 is attached; while False the
        #: propagation loop skips the arena-backed long-clause path.
        self._has_long = False
        #: The clause arena.  Index 0 holds a sentinel so 0 is never a cref.
        self._arena = [0]
        self._clauses: list[int] = []  # problem-clause crefs, age order
        self._learnts: list[int] = []  # learnt-clause crefs, age order
        #: Learnt metadata keyed by cref (learnt-ness test = dict membership).
        self._cla_activity: dict[int, float] = {}
        self._cla_lbd: dict[int, int] = {}
        self._wasted = 0  # arena ints freed by clause deletion, reclaimed by GC
        self._trail: list[int] = []  # literal indices in assignment order
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._ok = True
        self._seen: list[bool] = [False] * (n + 1)

        for clause in cnf.clauses:
            if not self._add_problem_clause(clause):
                self._ok = False
                return

    def _add_problem_clause(self, clause: Sequence[int]) -> bool:
        """Add an original (non-learnt) clause; returns False on immediate conflict."""
        norm = normalize_clause(clause)
        if norm is None:
            return True  # tautology
        # Remove literals already falsified at level 0 and drop clauses already
        # satisfied at level 0.
        values = self._values
        lits: list[int] = []
        for lit in norm:
            idx = _ilit(lit)
            val = values[idx]
            if val == _TRUE:
                return True
            if val == _UNDEF:
                lits.append(idx)
        if not lits:
            return False
        if len(lits) == 1:
            return self._enqueue(lits[0], _NO_REASON)
        cref = self._alloc(lits)
        self._clauses.append(cref)
        self._attach(cref)
        return True

    def _alloc(self, lits: list[int]) -> int:
        """Append a clause to the arena and return its cref."""
        arena = self._arena
        cref = len(arena)
        arena.append(len(lits))
        arena.extend(lits)
        return cref

    def _attach(self, cref: int) -> None:
        arena = self._arena
        size = arena[cref]
        dirty = self._dirty_lits
        if dirty is not None:  # a root snapshot is live: log the edited lists
            dirty.update(arena[cref + 1 : cref + 1 + size])
        l0 = arena[cref + 1]
        l1 = arena[cref + 2]
        if size == 3:
            l2 = arena[cref + 3]
            self._tern_watches[l0 ^ 1].append((cref, l1, l2))
            self._tern_watches[l1 ^ 1].append((cref, l0, l2))
            self._tern_watches[l2 ^ 1].append((cref, l0, l1))
            return
        if size == 2:
            self._tern_watches[l0 ^ 1].append((cref, l1, 0))
            self._tern_watches[l1 ^ 1].append((cref, l0, 0))
            return
        self._has_long = True
        wl = self._watches[l0]
        wl.append(cref)
        wl.append(l1)
        wl = self._watches[l1]
        wl.append(cref)
        wl.append(l0)

    def _detach(self, cref: int) -> None:
        arena = self._arena
        size = arena[cref]
        if size in (2, 3):
            for off in range(1, size + 1):
                wl = self._tern_watches[arena[cref + off] ^ 1]
                for i, entry in enumerate(wl):
                    if entry[0] == cref:
                        del wl[i]
                        break
            return
        for lit in (arena[cref + 1], arena[cref + 2]):
            wl = self._watches[lit]
            for i in range(0, len(wl), 2):
                if wl[i] == cref:
                    del wl[i : i + 2]
                    break

    # -------------------------------------------------------------- propagation
    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _enqueue(self, lit: int, reason: int) -> bool:
        """Assign internal literal ``lit`` true; False when it is already false."""
        values = self._values
        val = values[lit]
        if val != _UNDEF:
            return val == _TRUE
        var = lit >> 1
        values[lit] = _TRUE
        values[lit ^ 1] = _FALSE
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _propagate(self) -> int:
        """Unit propagation; returns a conflicting cref or ``-1``.

        This is the hottest loop of the whole system (every Monte Carlo sample
        of ξ runs through it), so it is written against local aliases of the
        flat stores with the enqueue inlined, and edits watcher lists in place
        (read cursor ``i``, write cursor ``j``) instead of rebuilding them.

        ``stats.propagations`` counts the literals **assigned** by this call
        (the trail growth), not the literals dequeued: assignment counts are a
        property of the propagation closure and therefore agree across engines
        whenever their trails agree, where dequeue counts depend on which
        watcher order first surfaces a conflict.  One ENQUEUE trace event is
        emitted per counted literal, so traces and stats agree by construction.
        """
        trail = self._trail
        values = self._values
        watches = self._watches
        tern_watches = self._tern_watches
        arena = self._arena
        levels = self._level
        reasons = self._reason
        dl = len(self._trail_lim)
        qhead = self._qhead
        t0 = len(trail)
        confl = -1
        # Drain the trail in segments: each pass snapshots the still-unseen
        # suffix and iterates it with the C-level list iterator; literals
        # enqueued during the pass land in the next segment (same FIFO order
        # as a per-literal queue head, without per-literal len()/indexing).
        has_long = self._has_long
        enqueue = trail.append
        while confl < 0 and qhead < len(trail):
            segment = trail[qhead:]
            qhead = len(trail)

            if not has_long:
                # Fast drain: every database clause is binary or ternary, so
                # each literal is fully processed from its static watcher
                # tuples — no arena, no watcher movement, no long-path test.
                # MIRROR: this visit logic must stay identical to the copy in
                # the mixed path below (a shared helper would cost a call per
                # literal); tests/test_arena_engine.py pins the two paths to
                # identical results by forcing _has_long on short databases.
                for p in segment:
                    for cref, o1, o2 in tern_watches[p]:
                        v1 = values[o1]
                        v2 = values[o2]
                        if v1 == -1:
                            if v2 != 0:  # satisfied or two non-false remain
                                continue
                            unit = o1  # o2 false -> o1 implied
                        elif v1 == 1:
                            continue
                        elif v2 == 1:
                            continue
                        elif v2 == -1:
                            unit = o2  # o1 false -> o2 implied
                        else:  # all literals false
                            confl = cref
                            break
                        var = unit >> 1
                        values[unit] = 1
                        values[unit ^ 1] = 0
                        levels[var] = dl
                        reasons[var] = cref
                        enqueue(unit)
                    if confl >= 0:
                        break
                continue

            for p in segment:
                # Binary/ternary clauses: decided from the sibling values
                # (lists are indexed by the triggering literal p itself;
                # binary entries carry the pinned-false sentinel literal 0).
                # MIRROR: identical to the fast-drain copy above — keep the
                # two in sync (pinned by tests/test_arena_engine.py).
                for cref, o1, o2 in tern_watches[p]:
                    v1 = values[o1]
                    v2 = values[o2]
                    if v1 == -1:
                        if v2 != 0:  # satisfied or two non-false remain
                            continue
                        unit = o1  # o2 false -> o1 implied
                    elif v1 == 1:
                        continue
                    elif v2 == 1:
                        continue
                    elif v2 == -1:
                        unit = o2  # o1 false -> o2 implied
                    else:  # all literals false
                        confl = cref
                        break
                    var = unit >> 1
                    values[unit] = 1
                    values[unit ^ 1] = 0
                    levels[var] = dl
                    reasons[var] = cref
                    enqueue(unit)
                if confl >= 0:
                    break

                # Long clauses (>= 4 literals): classic two-watched scheme
                # over the arena, with blocker literals and in-place watcher
                # compaction (read cursor i, write cursor j).
                false_lit = p ^ 1
                wl = watches[false_lit]
                if not wl:
                    continue
                i = j = 0
                end = len(wl)
                while i < end:
                    cref = wl[i]
                    blocker = wl[i + 1]
                    if values[blocker] == 1:  # blocker true: clause satisfied
                        if j < i:
                            wl[j] = cref
                            wl[j + 1] = blocker
                        i += 2
                        j += 2
                        continue
                    i += 2
                    base = cref + 1
                    # Move the falsified literal into the second watch slot.
                    first = arena[base]
                    if first == false_lit:
                        first = arena[base + 1]
                        arena[base] = first
                        arena[base + 1] = false_lit
                    if values[first] == 1:  # other watch true: keep
                        wl[j] = cref
                        wl[j + 1] = first
                        j += 2
                        continue
                    # Look for a replacement watch among the tail literals.
                    k = base + 2
                    stop = base + arena[cref]
                    while k < stop:
                        lk = arena[k]
                        if values[lk] != 0:  # true or unassigned: new watch
                            arena[base + 1] = lk
                            arena[k] = false_lit
                            other = watches[lk]
                            other.append(cref)
                            other.append(first)
                            break
                        k += 1
                    else:
                        # Clause is unit or conflicting under this assignment.
                        wl[j] = cref
                        wl[j + 1] = first
                        j += 2
                        if values[first] == 0:
                            confl = cref
                            # Preserve the remaining watchers untouched.
                            while i < end:
                                wl[j] = wl[i]
                                wl[j + 1] = wl[i + 1]
                                i += 2
                                j += 2
                            break
                        # Inlined enqueue of the implied literal.
                        var = first >> 1
                        values[first] = 1
                        values[first ^ 1] = 0
                        levels[var] = dl
                        reasons[var] = cref
                        enqueue(first)
                del wl[j:]
                if confl >= 0:
                    break
        if confl >= 0:
            qhead = len(trail)
        self._qhead = qhead
        self._stats.propagations += len(trail) - t0
        trace = self._trace  # trace-hook
        if trace is not None and len(trail) > t0:  # trace-hook
            trace.enqueue_all(map(_elit, trail[t0:]))  # trace-hook
        return confl

    # ----------------------------------------------------------------- analyse
    def _analyze(self, confl: int) -> tuple[list[int], int, int]:
        """First-UIP conflict analysis.

        Returns ``(learnt clause as internal literals, backjump level, LBD)``;
        the asserting literal is at index 0 and a literal of the backjump
        level at index 1.
        """
        arena = self._arena
        trail = self._trail
        levels = self._level
        reasons = self._reason
        seen = self._seen
        learnt_meta = self._cla_activity
        learnt: list[int] = [0]  # placeholder for the asserting literal
        counter = 0
        p = -1  # -1 = none (first round uses the whole conflict clause)
        index = len(trail) - 1
        current_level = len(self._trail_lim)
        cref = confl
        to_clear: list[int] = []

        while True:
            if cref in learnt_meta:
                self._bump_clause(cref)
            base = cref + 1
            end = base + arena[cref]
            # On reason rounds skip the implied literal p itself (p = -1 on
            # the conflict round, which never matches a literal index).
            for qi in range(base, end):
                q = arena[qi]
                if q == p:
                    continue
                var = q >> 1
                if not seen[var] and levels[var] > 0:
                    seen[var] = True
                    to_clear.append(var)
                    self._bump_var(var)
                    if levels[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            var_p = p >> 1
            cref = reasons[var_p]
            seen[var_p] = False
            index -= 1
            counter -= 1
            if counter == 0:
                break
        learnt[0] = p ^ 1

        if self.config.clause_minimization and len(learnt) > 1:
            learnt = self._minimize(learnt)

        # Compute the backjump level and put a literal of that level at index 1.
        if len(learnt) == 1:
            bt_level = 0
        else:
            max_i = 1
            for i in range(2, len(learnt)):
                if levels[learnt[i] >> 1] > levels[learnt[max_i] >> 1]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt_level = levels[learnt[1] >> 1]

        # LBD = number of distinct decision levels among the learnt literals
        # (all currently assigned), the glue metric of the database reduction.
        lbd = len({levels[lit >> 1] for lit in learnt})

        for var in to_clear:
            seen[var] = False
        return learnt, bt_level, lbd

    def _minimize(self, learnt: list[int]) -> list[int]:
        """Cheap (non-recursive) clause minimisation.

        A literal other than the asserting one can be dropped when the reason of
        its variable is entirely subsumed by the remaining learnt literals.
        """
        arena = self._arena
        levels = self._level
        reasons = self._reason
        marked = {lit >> 1 for lit in learnt}
        result = [learnt[0]]
        for lit in learnt[1:]:
            var = lit >> 1
            reason = reasons[var]
            if reason < 0:
                result.append(lit)
                continue
            redundant = True
            for qi in range(reason + 1, reason + 1 + arena[reason]):
                q_var = arena[qi] >> 1
                if q_var == var:
                    continue
                if q_var not in marked and levels[q_var] > 0:
                    redundant = False
                    break
            if not redundant:
                result.append(lit)
        return result

    # --------------------------------------------------------------- activities
    def _bump_var(self, var: int) -> None:
        if self._track_bumps and var not in self._bumped_vars:
            self._bumped_vars.add(var)
            self._bump_snapshots[var] = (self._activity[var], self._activity_rescales)
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
            self._activity_rescales += 1
        self._heap.update(var)

    def _decay_var_activity(self) -> None:
        self._var_inc /= self.config.var_decay

    def _bump_clause(self, cref: int) -> None:
        act = self._cla_activity
        bumped = act[cref] + self._cla_inc
        act[cref] = bumped
        if bumped > 1e20:
            for learnt in self._learnts:
                act[learnt] *= 1e-20
            self._cla_inc *= 1e-20

    def _decay_clause_activity(self) -> None:
        self._cla_inc /= self.config.clause_decay

    # --------------------------------------------------------------- backtracking
    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        target = self._trail_lim[level]
        trail = self._trail
        values = self._values
        reasons = self._reason
        saved = self._saved_phase
        heap = self._heap
        queued = heap._indices  # inline membership test: push is a no-op then
        phase_saving = self.config.phase_saving
        for i in range(len(trail) - 1, target - 1, -1):
            lit = trail[i]
            var = lit >> 1
            if phase_saving:
                saved[var] = not (lit & 1)  # even index = positive = True
            values[lit] = _UNDEF
            values[lit ^ 1] = _UNDEF
            reasons[var] = _NO_REASON
            if var not in queued:
                heap.push(var)
        del trail[target:]
        del self._trail_lim[level:]
        self._qhead = target

    # ------------------------------------------------------------------- decide
    def _pick_branch_var(self) -> int | None:
        values = self._values
        heap = self._heap
        while not heap.is_empty():
            var = heap.pop()
            if values[var << 1] == _UNDEF:
                return var
        return None

    # --------------------------------------------------------------- reduce DB
    def _reduce_db(self) -> None:
        """Delete the worst half of the deletable learnt clauses.

        Deletion order is LBD-first (higher LBD = weaker clause), activity
        second, age (cref) as the deterministic tie-break.  Glue clauses
        (LBD <= ``config.glue_lbd``), binary clauses and clauses currently
        locked as reasons on the trail are never deleted.  Once deletions have
        turned half the arena into garbage, the arena is compacted in place.
        """
        arena = self._arena
        lbd = self._cla_lbd
        act = self._cla_activity
        locked = set()
        for lit in self._trail:
            reason = self._reason[lit >> 1]
            if reason >= 0 and reason in act:
                locked.add(reason)
        # Worst first: high LBD, then low activity, then young (large cref).
        order = sorted(self._learnts, key=lambda c: (-lbd[c], act[c], -c))
        target = len(self._learnts) // 2
        glue_limit = self.config.glue_lbd
        removed: set[int] = set()
        for cref in order:
            if len(removed) >= target:
                break
            if lbd[cref] <= glue_limit or arena[cref] <= 2 or cref in locked:
                continue
            removed.add(cref)
        for cref in removed:
            self._detach(cref)
            self._wasted += arena[cref] + 1
            del act[cref]
            del lbd[cref]
        self._stats.deleted_clauses += len(removed)
        self._learnts = [c for c in self._learnts if c not in removed]
        if self._trace is not None:
            self._trace.reduce(len(removed), len(self._learnts))
        if self._wasted * 2 > len(arena):
            self._garbage_collect()

    def _garbage_collect(self) -> None:
        """Compact the arena: copy live clauses, remap crefs, rebuild watches."""
        old = self._arena
        new = [0]
        remap: dict[int, int] = {}
        for group in (self._clauses, self._learnts):
            for slot, cref in enumerate(group):
                size = old[cref]
                new_cref = len(new)
                new.append(size)
                new.extend(old[cref + 1 : cref + 1 + size])
                remap[cref] = new_cref
                group[slot] = new_cref
        self._arena = new
        self._wasted = 0
        self._cla_activity = {remap[c]: v for c, v in self._cla_activity.items()}
        self._cla_lbd = {remap[c]: v for c, v in self._cla_lbd.items()}
        reasons = self._reason
        for lit in self._trail:
            var = lit >> 1
            if reasons[var] >= 0:
                reasons[var] = remap[reasons[var]]
        for wl in self._watches:
            del wl[:]
        for wl in self._tern_watches:
            del wl[:]
        self._dirty_lits = None  # every list is rebuilt under the new crefs
        self._has_long = False  # recomputed by the re-attach pass below
        for group in (self._clauses, self._learnts):
            for cref in group:
                self._attach(cref)
        if self._trace is not None:
            self._trace.arena_gc(len(old), len(new))

    # --------------------------------------------------------------- main loop
    def _budget_exhausted(self, start_time: float) -> bool:
        budget = self._budget
        stats = self._stats
        if budget.max_conflicts is not None and stats.conflicts >= budget.max_conflicts:
            return True
        if budget.max_decisions is not None and stats.decisions >= budget.max_decisions:
            return True
        if budget.max_propagations is not None and stats.propagations >= budget.max_propagations:
            return True
        if budget.max_seconds is not None and (time.perf_counter() - start_time) >= budget.max_seconds:
            return True
        return False

    def _solve_internal(self, assumptions: list[int]) -> SolverStatus:
        """Run the restart loop; ``assumptions`` are internal literal indices."""
        if not self._ok:
            return SolverStatus.UNSAT
        # An incremental call usually finds the root queue drained already.
        if self._qhead < len(self._trail) and self._propagate() >= 0:
            self._ok = False  # conflict at level 0: globally UNSAT
            return SolverStatus.UNSAT
        if self._num_vars == 0:
            return SolverStatus.SAT

        start_time = time.perf_counter()
        max_learnts = max(
            100.0, self.config.learntsize_factor * max(1, len(self._clauses))
        )
        restart_count = 0

        while True:
            restart_count += 1
            if self.config.use_luby_restarts:
                conflict_budget = self.config.restart_base * luby(restart_count)
            else:
                conflict_budget = int(self.config.restart_base * (1.5 ** (restart_count - 1)))
            status = self._search(conflict_budget, assumptions, max_learnts, start_time)
            if status is not None:
                return status
            if self._budget_exhausted(start_time):
                return SolverStatus.UNKNOWN
            self._stats.restarts += 1
            if self._trace is not None:
                self._trace.restart(self._stats.conflicts)
            max_learnts *= self.config.learntsize_inc
            self._cancel_until(0)

    def _search(
        self,
        conflict_budget: int,
        assumptions: list[int],
        max_learnts: float,
        start_time: float,
    ) -> SolverStatus | None:
        """Run until the restart conflict budget is spent; None means "restart"."""
        values = self._values
        conflicts_here = 0
        while True:
            confl = self._propagate()
            if confl >= 0:
                self._stats.conflicts += 1
                conflicts_here += 1
                trace = self._trace
                if trace is not None:
                    trace.conflict(len(self._trail_lim))
                if not self._trail_lim:
                    self._ok = False  # conflict below all decisions: globally UNSAT
                    return SolverStatus.UNSAT
                learnt, bt_level, lbd = self._analyze(confl)
                if trace is not None:
                    trace.learn(lbd, len(learnt))
                    trace.backtrack(len(self._trail_lim), bt_level)
                self._cancel_until(bt_level)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], _NO_REASON)
                else:
                    cref = self._alloc(learnt)
                    self._learnts.append(cref)
                    self._cla_activity[cref] = 0.0
                    self._cla_lbd[cref] = lbd
                    self._stats.learned_clauses += 1
                    self._attach(cref)
                    self._bump_clause(cref)
                    self._enqueue(learnt[0], cref)
                self._decay_var_activity()
                self._decay_clause_activity()
                if self._budget_exhausted(start_time):
                    return SolverStatus.UNKNOWN
                continue

            # No conflict.
            if conflicts_here >= conflict_budget:
                return None  # restart
            if len(self._learnts) - len(self._trail) >= max_learnts:
                self._reduce_db()

            # Assumptions first, then heap decisions.
            decision = -1
            while len(self._trail_lim) < len(assumptions):
                lit = assumptions[len(self._trail_lim)]
                val = values[lit]
                if val == _TRUE:
                    self._trail_lim.append(len(self._trail))
                    continue
                if val == _FALSE:
                    return SolverStatus.UNSAT
                decision = lit
                break
            if decision < 0:
                var = self._pick_branch_var()
                if var is None:
                    return SolverStatus.SAT
                phase = (
                    self._saved_phase[var]
                    if self.config.phase_saving
                    else self.config.default_phase
                )
                decision = (var << 1) | (0 if phase else 1)
            self._stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._stats.max_decision_level = max(
                self._stats.max_decision_level, len(self._trail_lim)
            )
            self._enqueue(decision, _NO_REASON)
            if self._trace is not None:
                self._trace.decide(_elit(decision))


# --------------------------------------------------------------- registry wiring
from repro.api.registry import register_solver  # noqa: E402  (import-time registration)


@register_solver("cdcl", description="conflict-driven clause learning (flat-array arena core)")
def _cdcl_factory(**options) -> CDCLSolver:
    """Build a CDCL solver; keyword options are :class:`CDCLConfig` fields.

    An option that is not a field raises :class:`ValueError` naming it and
    the fields, so a config from a run with other options fails cleanly.
    """
    fields = [field.name for field in dataclasses.fields(CDCLConfig)]
    unknown = sorted(set(options) - set(fields))
    if unknown:
        raise ValueError(
            f"unknown cdcl solver option(s): {', '.join(map(repr, unknown))} "
            f"(CDCLConfig fields: {', '.join(fields)})"
        )
    return CDCLSolver(CDCLConfig(**options)) if options else CDCLSolver()


__all__ = ["CDCLConfig", "CDCLSolver"]
