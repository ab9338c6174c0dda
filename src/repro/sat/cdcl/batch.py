"""Word-parallel lockstep root propagation — the batched fresh-solve engine.

:meth:`CDCLSolver.solve_batch` must be *bit-identical* to solving each
assumption row with a fresh scalar ``solve(cnf, row)``, yet the Monte Carlo
estimation loop calls it with rows that differ only in a handful of
decomposition bits.  Three observations make the batch dramatically cheaper
than the scalar loop without changing a single reported bit:

1. **The root prefix is shared.**  ``load``/``_init`` plus root-level unit
   propagation are a pure function of the formula; the scalar loop repeated
   them per sample (~83 % of conflict-free sample time on the bivium family).
   Here they run once, and each divergent sample re-starts from the pristine
   root snapshot (:meth:`CDCLSolver._restore_root_state`, byte-identical
   by construction).  A restore copies the flat fields and the heap, but
   only the watch lists a solve can have edited: the long lists of the long
   problem clauses' literals, and the lists of the literals of clauses
   attached since the last restore.
2. **Root propagation vectorises across samples.**  Mirroring the bit-sliced
   keystream engine (``lfsr.pack_state_columns``/``run_batch``), the batch
   keeps one Python big-int *mask* per literal — bit ``b`` of ``tmask[lit]``
   says "sample ``b`` has ``lit`` true".  A ternary clause visit then decides
   conflict/unit for **all samples at once** with a few bitwise ops::

       conflict = mask & f1 & f2                 # both siblings false
       unit1    = mask & f2 & ~f1 & ~t1          # o2 false, o1 unassigned

   Unit propagation is confluent, so the per-sample propagation *closure* and
   the per-sample "hit a conflict?" boolean are independent of visit order —
   which is what makes the lockstep counts equal the scalar counts.
3. **Only conflicting samples need search.**  A sample whose assumptions
   propagate to a complete conflict-free assignment is already answered (SAT,
   with stats fully determined by the closure); a sample refuted *at
   assumption placement* is answered UNSAT with zero conflicts.  Only samples
   that hit a conflict (or remain incomplete after placement) fall back to an
   exact scalar solve from the restored snapshot.

The scalar placement protocol is mirrored exactly: assumptions are placed one
decision at a time (already-true assumptions open an *empty* level and do not
count as decisions; a false-at-placement assumption answers UNSAT
immediately), and each decision round is followed by propagation to
quiescence.  ``tests/test_differential_fuzz.py::TestBatchedVsScalar`` pins
statuses, models, stats, activity maps and folded estimator statistics to the
scalar path across batch sizes, and ``TestTraceStatsParity`` pins the emitted
trace event counts.
"""

from __future__ import annotations

import time

from repro.sat.solver import SolveResult, SolverStats, SolverStatus


def _validate_rows(rows, num_vars: int) -> None:
    for row in rows:
        for literal in row:
            if literal == 0 or abs(literal) > num_vars:
                raise ValueError(
                    f"assumption literal {literal} is outside the loaded "
                    f"formula's variables 1..{num_vars}"
                )


def solve_batch_rows(solver, assumption_rows, budget=None, trace=None):
    """Backend of :meth:`CDCLSolver.solve_batch`; see the module docstring."""
    started = time.perf_counter()
    rows = [tuple(row) for row in assumption_rows]
    if not rows:
        return []
    _validate_rows(rows, solver.loaded_cnf.num_vars)

    snapshot = solver._ensure_root_snapshot()
    if not solver._pristine:
        solver._restore_root_state(snapshot)

    trace = trace if trace is not None else solver.trace
    use_lockstep = solver.config.batch_lockstep

    if use_lockstep:
        batch = _LockstepBatch(solver, rows)
        batch.run()
    else:
        batch = None

    results: list[SolveResult | None] = [None] * len(rows)
    for b, row in enumerate(rows):
        start = time.perf_counter()
        if batch is not None and batch.fast_path(b):
            results[b] = batch.emit_result(b, trace, start)
        else:
            solver._restore_root_state(snapshot)
            results[b] = solver._run_solve(row, budget, trace, True, start)
    solver._restore_root_state(snapshot)
    # The snapshot restores and the lockstep run serve every row: charge each
    # row an even share, so the rows' wall times sum to the call's.
    elapsed = time.perf_counter() - started
    shared = (elapsed - sum(result.stats.wall_time for result in results)) / len(rows)
    for result in results:
        result.stats.wall_time += shared
    return results


class _LockstepBatch:
    """One word-parallel root-propagation run over a batch of assumption rows."""

    def __init__(self, solver, rows):
        self.solver = solver
        self.rows = rows
        n_samples = len(rows)
        self.full = (1 << n_samples) - 1
        # Divergent samples (conflict during propagation, or incomplete after
        # placement): answered by the scalar fallback.
        self.conflicted = 0
        self.divergent = 0
        # Samples refuted at assumption placement: answered UNSAT on the fast
        # path with zero conflicts (the scalar `_search` placement contract).
        self.failed = 0
        # Samples that placed every assumption without incident.
        self.placed = 0
        # Per-sample scalar mirrors of the `_search` placement loop.
        self.ptr = [0] * n_samples  # next assumption index to place
        self.levels = [0] * n_samples  # len(trail_lim): counts empty levels too
        self.decisions = [0] * n_samples
        self.maxdl = [0] * n_samples
        # Per-round records for stats/trace synthesis: decisions[r] maps
        # sample -> decided literal (internal), derived[r] is the FIFO list of
        # (lit, mask) assignment events of that round's propagation.
        self.round_decisions: list[dict[int, int]] = []
        self.round_derived: list[list[tuple[int, int]]] = []
        self.root_derived: list[int] = []
        self.root_conflict = False

    # --------------------------------------------------------------- main loop
    def run(self) -> None:
        solver = self.solver
        # Shared root propagation, run once through the *scalar* engine so the
        # derived-literal order matches a scalar fresh solve exactly (the
        # synthetic traces replay it verbatim).  State is mutated here; every
        # fallback and the batch epilogue restore the pristine snapshot.
        solver._stats = SolverStats()
        solver._trace = None
        if not solver._ok:
            self.root_conflict = False
            self.divergent = 0
            self.failed = 0
            self.placed = self.full  # fast path: every sample answers UNSAT
            self.not_ok = True
            return
        self.not_ok = False
        t0 = len(solver._trail)
        confl = solver._propagate()
        self.root_derived = list(solver._trail[t0:])
        if confl >= 0:
            self.root_conflict = True
            self.placed = self.full
            return
        if solver._num_vars == 0:
            self.placed = self.full
            self.complete = self.full
            return

        self._init_masks()
        while True:
            decided = self._placement_round()
            if not decided:
                break
            self._propagate_round(decided)
        self._finish()

    def _init_masks(self) -> None:
        solver = self.solver
        full = self.full
        size = (solver._num_vars + 1) << 1
        tmask = [0] * size
        fmask = [0] * size
        # The binary-clause sentinel literal 0 is pinned false in the scalar
        # engine (_values[0] = _FALSE, literal 1 stays unassigned): mirror it
        # so ternary tuples holding the sentinel collapse to binary rules.
        fmask[0] = full
        for lit in solver._trail:
            tmask[lit] = full
            fmask[lit ^ 1] = full
        self.tmask = tmask
        self.fmask = fmask
        # Long-clause (>= 4 literals) occurrence lists, keyed like the ternary
        # watch tuples by the *triggering* literal (the one just assigned
        # true): occ[p] holds the crefs containing the falsified literal p^1.
        occ: dict[int, list[int]] = {}
        arena = solver._arena
        for cref in solver._clauses:
            sz = arena[cref]
            if sz < 4:
                continue
            for k in range(cref + 1, cref + 1 + sz):
                occ.setdefault(arena[k] ^ 1, []).append(cref)
        self.occ = occ

    def _placement_round(self) -> dict[int, int]:
        """Advance every live sample to its next decision (scalar placement).

        Mirrors the assumption loop of ``_search``: already-true assumptions
        open an empty level (no decision, no DECIDE event, no
        max_decision_level update); a false assumption answers the sample
        UNSAT right there; the first unassigned assumption becomes this
        round's decision.  Returns the per-sample decisions, insertion-ordered
        by sample index (deterministic under any hash seed: int keys only).
        """
        tmask, fmask = self.tmask, self.fmask
        blocked = self.conflicted | self.failed | self.placed
        decided: dict[int, int] = {}
        for b, row in enumerate(self.rows):
            bit = 1 << b
            if blocked & bit:
                continue
            i = self.ptr[b]
            while i < len(row):
                lit = row[i]
                idx = (lit << 1) if lit > 0 else ((-lit) << 1) | 1
                if tmask[idx] & bit:  # already satisfied: empty level
                    self.levels[b] += 1
                    i += 1
                    continue
                if fmask[idx] & bit:  # refuted at placement: UNSAT, 0 conflicts
                    self.failed |= bit
                    break
                self.levels[b] += 1
                self.decisions[b] += 1
                self.maxdl[b] = self.levels[b]
                decided[b] = idx
                i += 1
                break
            else:
                self.placed |= bit
            self.ptr[b] = i
        self.round_decisions.append(decided)
        return decided

    def _propagate_round(self, decided: dict[int, int]) -> None:
        """Propagate this round's decisions to quiescence, word-parallel.

        A FIFO worklist of ``(lit, mask)`` assignment events with *immediate*
        mask updates reproduces the scalar engine's queue discipline; visit
        order does not affect the per-sample closure or the conflict booleans
        (unit propagation is confluent), which is why the fast-path counts
        are bit-identical to scalar.
        """
        tmask, fmask = self.tmask, self.fmask
        tern_watches = self.solver._tern_watches
        occ = self.occ
        arena = self.solver._arena
        derived: list[tuple[int, int]] = []
        self.round_derived.append(derived)

        worklist: list[tuple[int, int]] = []
        # Group the round's decisions by literal (samples assuming the same
        # bit propagate as one event); dict insertion order keeps this
        # deterministic and in sample order.
        grouped: dict[int, int] = {}
        for b, idx in decided.items():
            grouped[idx] = grouped.get(idx, 0) | (1 << b)
        for idx, mask in grouped.items():
            tmask[idx] |= mask
            fmask[idx ^ 1] |= mask
            worklist.append((idx, mask))

        head = 0
        while head < len(worklist):
            lit, mask = worklist[head]
            head += 1
            mask &= ~self.conflicted
            if not mask:
                continue
            for cref, o1, o2 in tern_watches[lit]:
                f1 = fmask[o1]
                f2 = fmask[o2]
                conf = mask & f1 & f2
                if conf:
                    self.conflicted |= conf
                    mask &= ~conf
                    if not mask:
                        break
                u1 = mask & f2 & ~f1 & ~tmask[o1]
                if u1:
                    tmask[o1] |= u1
                    fmask[o1 ^ 1] |= u1
                    derived.append((o1, u1))
                    worklist.append((o1, u1))
                u2 = mask & f1 & ~f2 & ~tmask[o2]
                if u2:
                    tmask[o2] |= u2
                    fmask[o2 ^ 1] |= u2
                    derived.append((o2, u2))
                    worklist.append((o2, u2))
            if not mask:
                continue
            for cref in occ.get(lit, ()):
                sz = arena[cref]
                lits = arena[cref + 1 : cref + 1 + sz]
                # Prefix/suffix AND-products of the false-masks give, for each
                # literal, the samples where *all other* literals are false —
                # the unit mask — in O(size) instead of O(size^2).
                pre = -1  # AND identity (arbitrary-precision all-ones)
                pres = []
                for li in lits:
                    pres.append(pre)
                    pre &= fmask[li]
                conf = mask & pre
                if conf:
                    self.conflicted |= conf
                    mask &= ~conf
                    if not mask:
                        break
                suf = -1
                for j in range(sz - 1, -1, -1):
                    li = lits[j]
                    others = pres[j] & suf
                    u = mask & others & ~fmask[li] & ~tmask[li]
                    if u:
                        tmask[li] |= u
                        fmask[li ^ 1] |= u
                        derived.append((li, u))
                        worklist.append((li, u))
                    suf &= fmask[li]

    def _finish(self) -> None:
        """Classify every sample: fast SAT, fast UNSAT, or divergent."""
        tmask = self.tmask
        complete = self.full
        for v in range(1, self.solver._num_vars + 1):
            complete &= tmask[v << 1] | tmask[(v << 1) | 1]
            if not complete:
                break
        self.complete = complete
        # Samples that hit a conflict need real search; samples that placed
        # every assumption but left variables unassigned would now take heap
        # decisions in the scalar engine — also real search.
        incomplete = self.placed & ~complete & ~self.conflicted
        self.divergent = self.conflicted | incomplete

    # ---------------------------------------------------------------- reporting
    def fast_path(self, b: int) -> bool:
        return not (self.divergent >> b) & 1

    def emit_result(self, b: int, trace, start: float) -> SolveResult:
        """Synthesize the scalar-identical result (and trace block) for sample ``b``.

        Trace events replay what a scalar fresh solve would emit: SOLVE, the
        shared root ENQUEUEs (in genuine scalar order — they were recorded
        from a real ``_propagate`` run), then per round one DECIDE plus the
        round's derived ENQUEUEs for this sample.  Event *counts* match the
        scalar run exactly (DECIDE = stats.decisions, ENQUEUE =
        stats.propagations); within-round ENQUEUE order is the deterministic
        lockstep assignment order.
        """
        solver = self.solver
        row = self.rows[b]
        bit = 1 << b
        if trace is not None:
            trace.solve_begin(solver._solve_seq, len(row))
        solver._solve_seq += 1

        stats = SolverStats()
        if getattr(self, "not_ok", False):
            stats.wall_time = time.perf_counter() - start
            return SolveResult(
                status=SolverStatus.UNSAT,
                model=None,
                stats=stats,
                conflict_activity={},
            )

        stats.propagations = len(self.root_derived)
        if trace is not None and self.root_derived:
            trace.enqueue_all(
                -(idx >> 1) if idx & 1 else (idx >> 1) for idx in self.root_derived
            )
        if self.root_conflict:
            status = SolverStatus.UNSAT
        elif solver._num_vars == 0:
            status = SolverStatus.SAT
        else:
            rounds = min(len(self.round_decisions), len(self.round_derived))
            for r in range(rounds):
                idx = self.round_decisions[r].get(b)
                if idx is None:
                    # This sample decided nothing in round r (already failed,
                    # placed, or skipped): it emitted and derived nothing.
                    continue
                if trace is not None:
                    trace.decide(-(idx >> 1) if idx & 1 else (idx >> 1))
                derived = [lit for lit, mask in self.round_derived[r] if mask & bit]
                stats.propagations += len(derived)
                if trace is not None and derived:
                    trace.enqueue_all(
                        -(i >> 1) if i & 1 else (i >> 1) for i in derived
                    )
            stats.decisions = self.decisions[b]
            stats.max_decision_level = self.maxdl[b]
            status = (
                SolverStatus.UNSAT if (self.failed >> b) & 1 else SolverStatus.SAT
            )

        model = None
        if status is SolverStatus.SAT:
            if solver._num_vars == 0:
                model = {}
            else:
                tmask = self.tmask
                model = {
                    v: bool(tmask[v << 1] & bit)
                    for v in range(1, solver._num_vars + 1)
                }
        stats.wall_time = time.perf_counter() - start
        return SolveResult(
            status=status,
            model=model,
            stats=stats,
            conflict_activity={},
        )


__all__ = ["solve_batch_rows"]
