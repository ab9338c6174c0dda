"""SatELite-style CNF simplification: subsumption, self-subsumption, variable elimination.

MiniSat (the algorithm ``A`` of the paper's experiments) ships with the
SatELite preprocessor; PDSAT inherited it.  This module reproduces the core
preprocessing techniques so that weakened cipher-inversion CNFs can be shrunk
before search (their Tseitin encodings carry large amounts of removable
structure: functionally defined gate variables, subsumed clauses, literals
fixed by the known keystream):

* **unit propagation** — unit clauses fix their variable; satisfied clauses
  are removed and falsified literals stripped, to a fixed point;
* **pure-literal elimination** — a variable occurring with a single polarity
  is satisfied (recorded as an elimination: zero resolvents);
* **subsumption** — a clause ``C`` subsumes ``D`` when ``C ⊆ D``; ``D`` is
  redundant and removed;
* **self-subsuming resolution** — when ``C = A ∨ l`` and ``D = A ∨ B ∨ ¬l``,
  the resolvent ``A ∨ B`` subsumes ``D``, so ``¬l`` can be stripped from ``D``;
* **bounded variable elimination (BVE)** — a variable is eliminated by
  replacing the clauses containing it with their pairwise resolvents, whenever
  that does not increase the clause count beyond a configured growth bound;
* **failed-literal probing** — a literal whose unit-propagation closure is
  contradictory is false; its negation is fixed (optional, off by default);
* **blocked clause elimination (BCE)** — a clause is blocked on a literal
  ``l`` when every resolvent with clauses containing ``¬l`` is a tautology;
  blocked clauses can be removed without affecting satisfiability (optional,
  off by default).

The production entry point is :class:`Preprocessor` (registered as the
``"satelite"`` preprocessor): it takes a CNF plus a set of **frozen**
variables that must survive untouched — the incremental-solving contract, see
below — and returns a :class:`PreprocessResult` carrying the simplified CNF,
per-rule reduction statistics and a model-reconstruction stack whose
:meth:`PreprocessResult.reconstruct` turns any model of the simplified formula
back into a model of the original formula, the way MiniSat's ``extend()``
does.

Subsumption and self-subsuming resolution find their candidates by
intersecting occurrence sets, and bounded variable elimination builds each
resolvent as one literal set, sorting it only once the elimination is
accepted; ``tests/simplify_reference.py`` keeps the plain walks these
replace, and the tests check that both give the same result.

The frozen-variable contract
----------------------------

Every transformation above except BVE/pure-literal elimination and BCE
preserves logical *equivalence*, so it is sound under any later assumptions.
BVE only preserves equivalence over the **surviving** variables
(``∃v.F ≡ resolvents``), and BCE repairs models by flipping the blocking
literal — both are therefore unsound for variables a caller may still
constrain externally.  Freezing a variable guarantees it is never eliminated,
never chosen as a pure literal and never used as a blocking literal, which
makes ``solve(assumptions=...)`` over frozen variables against the simplified
formula equivalent to solving the original:

* the decomposition-set machinery freezes the instance's start set (the
  superset of every assumption candidate);
* unit-propagation consequences on frozen variables are kept as unit clauses
  in the simplified CNF (instead of being silently substituted away), so an
  assumption contradicting a root-level consequence still reports UNSAT.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field, fields, replace

from repro.sat.formula import CNF, Clause, normalize_clause


def _resolve(first: Clause, second: Clause, variable: int) -> set[int] | None:
    """The literals of the resolvent of two clauses on ``variable``, unsorted.

    ``None`` when the resolvent is a tautology.  Both clauses are normalised
    (no repeated or complementary literals), so the resolvent is one only
    when a literal of ``second`` meets its negation from ``first``.
    """
    merged = set(first)
    merged.update(second)
    merged.discard(variable)
    merged.discard(-variable)
    for lit in second:
        if -lit in merged:
            return None
    return merged


@dataclass(frozen=True)
class PreprocessConfig:
    """Knobs of the :class:`Preprocessor` pipeline.

    Every rule can be switched off independently; the defaults enable the
    equivalence-safe core (unit propagation, pure literals, subsumption,
    self-subsuming resolution, bounded variable elimination) and leave the
    expensive or rarely-profitable rules (failed-literal probing, blocked
    clause elimination) off.
    """

    #: Fixpoint unit propagation (root-level consequences become fixed values).
    unit_propagation: bool = True
    #: Eliminate variables occurring with a single polarity.
    pure_literals: bool = True
    #: Remove clauses that are supersets of another clause.
    subsumption: bool = True
    #: Strengthen clauses by self-subsuming resolution.
    self_subsumption: bool = True
    #: Bounded variable elimination (resolve-and-eliminate).
    variable_elimination: bool = True
    #: A variable is eliminated only if the clause count grows by at most this.
    max_growth: int = 0
    #: Never try to eliminate variables with more occurrences than this.
    max_occurrences: int = 20
    #: Reject an elimination that would create a resolvent longer than this
    #: (``0`` = unlimited).  Capping at 3 keeps the whole database on the
    #: arena engine's static binary/ternary fast path; the cost is fewer
    #: eliminations.
    max_resolvent_length: int = 0
    #: Failed-literal probing: propagate each literal; a conflict fixes its
    #: negation.  Quadratic-ish in formula size, hence off by default.
    failed_literal_probing: bool = False
    #: Blocked clause elimination (never uses a frozen blocking literal).
    blocked_clause_elimination: bool = False
    #: Safety valve on the outer fixpoint loop.
    max_rounds: int = 50

    def __post_init__(self) -> None:
        if self.max_occurrences < 1:
            raise ValueError("max_occurrences must be at least 1")
        if self.max_growth < 0:
            raise ValueError("max_growth must be non-negative")
        if self.max_resolvent_length < 0:
            raise ValueError("max_resolvent_length must be non-negative (0 = unlimited)")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")


@dataclass
class PreprocessStats:
    """Per-rule reduction counters of one :meth:`Preprocessor.preprocess` run."""

    vars_before: int = 0
    vars_after: int = 0
    clauses_before: int = 0
    clauses_after: int = 0
    literals_before: int = 0
    literals_after: int = 0
    fixed_literals: int = 0
    pure_literals: int = 0
    subsumed: int = 0
    strengthened: int = 0
    eliminated_variables: int = 0
    failed_literals: int = 0
    probed_literals: int = 0
    blocked_clauses: int = 0
    rounds: int = 0
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        """JSON-serialisable counters (CLI and benchmark records)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary(self) -> str:
        """One-line reduction report used by the CLI."""
        return (
            f"vars {self.vars_before} -> {self.vars_after}, "
            f"clauses {self.clauses_before} -> {self.clauses_after}, "
            f"literals {self.literals_before} -> {self.literals_after} "
            f"(fixed {self.fixed_literals}, pure {self.pure_literals}, "
            f"subsumed {self.subsumed}, strengthened {self.strengthened}, "
            f"eliminated {self.eliminated_variables}, "
            f"failed literals {self.failed_literals}, "
            f"blocked {self.blocked_clauses}, rounds {self.rounds})"
        )


#: Reconstruction-stack entry kinds (chronological order of removal).
_FIXED, _ELIMINATED, _BLOCKED = "fixed", "eliminated", "blocked"


def validate_frozen(frozen, num_vars: int) -> frozenset[int]:
    """Normalise a frozen-variable collection against a formula's range.

    The single implementation of the frozen-id contract shared by
    :meth:`Preprocessor.preprocess` and the CDCL engines' ``load``: ids must
    be variables of the formula (``1..num_vars``); anything else raises a
    clean :class:`ValueError` — the caller almost certainly passed a stale
    decomposition set, and silently ignoring it would make later
    ``solve(assumptions=...)`` calls on that variable unsound.
    """
    frozen_set = frozenset(int(v) for v in frozen)
    out_of_range = sorted(v for v in frozen_set if v < 1 or v > num_vars)
    if out_of_range:
        raise ValueError(
            f"frozen variables {out_of_range} are outside the formula's "
            f"variables 1..{num_vars}"
        )
    return frozen_set


@dataclass
class PreprocessResult:
    """Outcome of :meth:`Preprocessor.preprocess`.

    ``cnf`` is the simplified formula over the **same variable numbering** as
    the original (no renumbering — decomposition-set bookkeeping and the
    incremental solver contract both rely on stable variable ids).
    ``reconstruction`` is a stack of entries in the order the simplifier
    removed things; :meth:`reconstruct` replays it backwards:

    * ``("fixed", variable, ((lit,),))`` — a root-level unit consequence;
    * ``("eliminated", variable, clauses)`` — the clauses that mentioned the
      variable when (bounded or pure-literal) elimination removed it;
    * ``("blocked", blocking_literal, (clause,))`` — a clause removed by
      blocked clause elimination together with its blocking literal.
    """

    original: CNF
    cnf: CNF
    frozen: frozenset[int] = frozenset()
    unsat: bool = False
    fixed: dict[int, bool] = field(default_factory=dict)
    reconstruction: list[tuple[str, int, tuple[Clause, ...]]] = field(default_factory=list)
    stats: PreprocessStats = field(default_factory=PreprocessStats)

    @property
    def eliminated_variables(self) -> frozenset[int]:
        """Variables removed by (pure-literal or bounded) variable elimination."""
        return frozenset(
            variable for kind, variable, _ in self.reconstruction if kind == _ELIMINATED
        )

    @property
    def unassumable_variables(self) -> frozenset[int]:
        """Variables that later assumptions must not name.

        Eliminated variables, plus *non-frozen* root-fixed ones: both had
        their clauses removed from the simplified formula, so an assumption
        contradicting them would be trivially "satisfiable" there while the
        original formula refutes it.  (Frozen fixed variables are safe — their
        forced value stays visible as a unit clause.)
        """
        return self.eliminated_variables | frozenset(
            variable for variable in self.fixed if variable not in self.frozen
        )

    def reconstruct(self, model: dict[int, bool]) -> dict[int, bool]:
        """Extend a model of the simplified CNF to a model of the original CNF.

        The reconstruction stack is replayed backwards: fixed variables take
        their forced value, eliminated variables get a polarity satisfying
        every clause they were resolved out of (always possible — a
        contradiction would have produced a falsified resolvent in the
        simplified formula), and falsified blocked clauses are repaired by
        flipping their blocking literal.  The input mapping is not mutated.
        """
        extended = dict(model)
        for kind, pivot, clauses in reversed(self.reconstruction):
            if kind == _FIXED:
                ((lit,),) = clauses
                extended[pivot] = lit > 0
            elif kind == _ELIMINATED:
                value_needed: bool | None = None
                for clause in clauses:
                    satisfied = False
                    polarity = False
                    for lit in clause:
                        if abs(lit) == pivot:
                            polarity = lit > 0
                            continue
                        if extended.get(abs(lit), False) == (lit > 0):
                            satisfied = True
                            break
                    if not satisfied:
                        if value_needed is not None and value_needed != polarity:
                            raise ValueError(
                                f"cannot reconstruct model: variable {pivot} is over-constrained"
                            )
                        value_needed = polarity
                extended[pivot] = (
                    value_needed if value_needed is not None else extended.get(pivot, False)
                )
            else:  # blocked clause: pivot is the blocking literal
                (clause,) = clauses
                if not any(extended.get(abs(lit), False) == (lit > 0) for lit in clause):
                    extended[abs(pivot)] = pivot > 0
        return extended

    def summary(self) -> str:
        """One-line report used by the CLI."""
        if self.unsat:
            return "formula refuted during preprocessing"
        return self.stats.summary()


@dataclass
class ChainedPreprocessResult:
    """Several :class:`PreprocessResult` stages applied in sequence.

    Inprocessing (re-running the simplifier against a solver's *live* clause
    database mid-run, see :meth:`repro.sat.cdcl.CDCLSolver.inprocess`) stacks
    a new preprocessing stage on top of whatever the original ``load``
    already applied.  This wrapper presents the stack through the exact
    interface solvers consume from a single result:

    * :meth:`reconstruct` replays the stages backwards — a model of the
      newest (most simplified) formula is extended stage by stage until it
      satisfies the original formula;
    * :attr:`unassumable_variables` / :attr:`eliminated_variables` are the
      unions over all stages (a variable eliminated by *any* stage is gone
      from the live database);
    * :attr:`unsat` is true when any stage refuted the formula.
    """

    results: list[PreprocessResult] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.results:
            raise ValueError("a chained preprocess result needs at least one stage")

    @property
    def original(self) -> CNF:
        """The formula the *first* stage started from."""
        return self.results[0].original

    @property
    def cnf(self) -> CNF:
        """The formula the *last* stage produced (the live database's source)."""
        return self.results[-1].cnf

    @property
    def frozen(self) -> frozenset[int]:
        """Union of the frozen sets of every stage."""
        out: frozenset[int] = frozenset()
        for result in self.results:
            out |= result.frozen
        return out

    @property
    def unsat(self) -> bool:
        return any(result.unsat for result in self.results)

    @property
    def eliminated_variables(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for result in self.results:
            out |= result.eliminated_variables
        return out

    @property
    def unassumable_variables(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for result in self.results:
            out |= result.unassumable_variables
        return out

    def reconstruct(self, model: dict[int, bool]) -> dict[int, bool]:
        """Extend a model of the newest formula to one of the original formula."""
        extended = model
        for result in reversed(self.results):
            extended = result.reconstruct(extended)
        return extended

    def summary(self) -> str:
        """One-line report naming the stage count."""
        if self.unsat:
            return "formula refuted during preprocessing"
        return f"{len(self.results)} preprocessing stages: " + self.results[-1].summary()


def chain_preprocess_results(previous, latest: PreprocessResult) -> ChainedPreprocessResult:
    """Stack ``latest`` on top of ``previous`` (``None``, single, or chained)."""
    if previous is None:
        return ChainedPreprocessResult([latest])
    if isinstance(previous, ChainedPreprocessResult):
        return ChainedPreprocessResult([*previous.results, latest])
    return ChainedPreprocessResult([previous, latest])


class _OccurrenceDatabase:
    """Mutable clause store with occurrence lists and a pending-unit queue.

    Internal engine of :class:`Preprocessor`.  Clause ids are allocation-order
    ints and every iteration that affects the output is over *sorted* ids, so
    the simplified formula is byte-identical across runs and hash seeds.
    """

    def __init__(self) -> None:
        self.clauses: dict[int, Clause] = {}
        self.occurrences: dict[int, set[int]] = defaultdict(set)
        self.pending_units: list[int] = []
        #: Clauses added or strengthened since the last subsumption round —
        #: only these can newly subsume something, so later rounds skip the
        #: untouched bulk of the database.
        self.touched: set[int] = set()
        self.unsat = False
        self._next_id = 0

    def add(self, clause: Clause) -> None:
        if not clause:
            self.unsat = True
            return
        clause_id = self._next_id
        self._next_id += 1
        self.clauses[clause_id] = clause
        self.touched.add(clause_id)
        for lit in clause:
            self.occurrences[lit].add(clause_id)
        if len(clause) == 1:
            self.pending_units.append(clause[0])

    def remove(self, clause_id: int) -> Clause:
        clause = self.clauses.pop(clause_id)
        for lit in clause:
            self.occurrences[lit].discard(clause_id)
        return clause

    def strengthen(self, clause_id: int, drop: int) -> None:
        """Remove literal ``drop`` from the clause (self-subsumption / UP)."""
        clause = self.clauses[clause_id]
        shorter = tuple(lit for lit in clause if lit != drop)
        self.clauses[clause_id] = shorter
        self.touched.add(clause_id)
        self.occurrences[drop].discard(clause_id)
        if not shorter:
            self.unsat = True
        elif len(shorter) == 1:
            self.pending_units.append(shorter[0])

    def ids_with(self, lit: int) -> list[int]:
        """Sorted ids of clauses currently containing the literal."""
        return sorted(self.occurrences[lit])

    def num_occurrences(self, variable: int) -> int:
        return len(self.occurrences[variable]) + len(self.occurrences[-variable])

    def variables(self) -> list[int]:
        """Sorted variables with at least one occurrence."""
        return sorted(
            {abs(lit) for lit, ids in self.occurrences.items() if ids}
        )

    def num_literals(self) -> int:
        return sum(len(clause) for clause in self.clauses.values())


class Preprocessor:
    """The SatELite-style preprocessing/inprocessing pipeline.

    Stateless between calls: :meth:`preprocess` takes a CNF (plus the frozen
    variables of the incremental contract) and returns a fresh
    :class:`PreprocessResult`.  Keyword overrides are a shorthand for
    constructing a :class:`PreprocessConfig`::

        Preprocessor()                               # defaults
        Preprocessor(max_growth=8, max_occurrences=30)
        Preprocessor(PreprocessConfig(failed_literal_probing=True))
    """

    def __init__(self, config: PreprocessConfig | None = None, **overrides):
        if config is not None and overrides:
            config = replace(config, **overrides)
        elif config is None:
            config = PreprocessConfig(**overrides)
        self.config = config

    # ------------------------------------------------------------------ public
    #: PreprocessStats counter attribute per trace rule slot, in the order of
    #: :data:`repro.trace.format.PRE_RULES` — index ``i`` of a ``PRE_RULE``
    #: event refers to ``_TRACE_RULE_COUNTERS[i]``.
    _TRACE_RULE_COUNTERS = (
        "fixed_literals",
        "pure_literals",
        "subsumed",
        "strengthened",
        "eliminated_variables",
        "probed_literals",
        "failed_literals",
        "blocked_clauses",
    )

    def preprocess(self, cnf: CNF, frozen=(), trace=None) -> PreprocessResult:
        """Simplify ``cnf``; variables in ``frozen`` are never eliminated.

        Raises :class:`ValueError` when a frozen id is not a variable of the
        formula (``1..cnf.num_vars``) — the caller almost certainly passed a
        stale decomposition set, and silently ignoring it would make later
        ``solve(assumptions=...)`` calls on that variable unsound.

        ``trace`` is an optional :class:`repro.trace.format.TraceWriter`: each
        round emits a ``PRE_ROUND`` event with the database size at round
        entry, followed by one ``PRE_RULE`` event per rule counter that moved
        during the round (the per-round delta, not the running total).
        """
        frozen_set = validate_frozen(frozen, cnf.num_vars)
        started = time.perf_counter()
        config = self.config
        result = PreprocessResult(original=cnf, cnf=cnf, frozen=frozen_set)
        stats = result.stats
        stats.vars_before = len(cnf.variables())
        stats.clauses_before = cnf.num_clauses
        stats.literals_before = sum(len(clause) for clause in cnf.clauses)

        db = _OccurrenceDatabase()
        seen: set[Clause] = set()
        for clause in cnf.clauses:
            norm = normalize_clause(clause)
            if norm is None or norm in seen:
                continue  # tautology or exact duplicate
            seen.add(norm)
            db.add(norm)

        changed = True
        snapshot = None
        while changed and not db.unsat and stats.rounds < config.max_rounds:
            stats.rounds += 1
            changed = False
            if trace is not None:
                if snapshot is not None:
                    self._emit_rule_deltas(trace, stats, snapshot)
                live = {abs(lit) for clause in db.clauses.values() for lit in clause}
                trace.pre_round(stats.rounds, len(live), len(db.clauses))
                snapshot = [getattr(stats, name) for name in self._TRACE_RULE_COUNTERS]
            if config.unit_propagation and self._propagate(db, result):
                changed = True
            if db.unsat:
                break
            if config.pure_literals and self._pure_literal_round(db, result):
                changed = True
            if (config.subsumption or config.self_subsumption) and self._subsumption_round(
                db, result, full=(stats.rounds == 1)
            ):
                changed = True
            if db.unsat:
                break
            if config.variable_elimination and self._elimination_round(db, result):
                changed = True
            if db.unsat:
                break
            if config.failed_literal_probing and self._probing_round(db, result):
                changed = True
            if db.unsat:
                break
            if config.blocked_clause_elimination and self._blocked_round(db, result):
                changed = True

        if trace is not None and snapshot is not None:
            self._emit_rule_deltas(trace, stats, snapshot)

        if db.unsat:
            result.unsat = True
            result.cnf = CNF([()], cnf.num_vars, list(cnf.comments))
        else:
            ordered = [db.clauses[cid] for cid in sorted(db.clauses)]
            # Root-level consequences on frozen variables stay visible as unit
            # clauses: an assumption contradicting one must come back UNSAT
            # from the solver instead of silently satisfying a reduced formula.
            for variable in sorted(result.fixed):
                if variable in frozen_set:
                    ordered.append((variable,) if result.fixed[variable] else (-variable,))
            result.cnf = CNF(ordered, cnf.num_vars, list(cnf.comments))
            stats.vars_after = len(result.cnf.variables())
            stats.clauses_after = result.cnf.num_clauses
            stats.literals_after = sum(len(clause) for clause in result.cnf.clauses)
        stats.wall_time = time.perf_counter() - started
        return result

    def __call__(self, cnf: CNF, frozen=(), trace=None) -> PreprocessResult:
        """Alias for :meth:`preprocess`."""
        return self.preprocess(cnf, frozen=frozen, trace=trace)

    @classmethod
    def _emit_rule_deltas(cls, trace, stats, snapshot) -> None:
        """Emit one ``PRE_RULE`` event per counter that moved since ``snapshot``."""
        for index, name in enumerate(cls._TRACE_RULE_COUNTERS):
            delta = getattr(stats, name) - snapshot[index]
            if delta:
                trace.pre_rule(index, delta)

    # ------------------------------------------------------------------- rules
    @staticmethod
    def _assign(db: _OccurrenceDatabase, result: PreprocessResult, lit: int) -> bool:
        """Fix ``lit`` true at the root; returns False on contradiction."""
        variable, value = abs(lit), lit > 0
        known = result.fixed.get(variable)
        if known is not None:
            return known == value
        result.fixed[variable] = value
        result.reconstruction.append((_FIXED, variable, ((lit,),)))
        result.stats.fixed_literals += 1
        for clause_id in db.ids_with(lit):
            db.remove(clause_id)  # satisfied
        for clause_id in db.ids_with(-lit):
            db.strengthen(clause_id, -lit)
            if db.unsat:
                return False
        return True

    def _propagate(self, db: _OccurrenceDatabase, result: PreprocessResult) -> bool:
        """Drain the pending-unit queue to a fixed point."""
        changed = False
        while db.pending_units:
            lit = db.pending_units.pop(0)
            changed = True
            if not self._assign(db, result, lit):
                db.unsat = True
                return True
        return changed

    def _pure_literal_round(self, db: _OccurrenceDatabase, result: PreprocessResult) -> bool:
        """Eliminate non-frozen single-polarity variables (zero resolvents)."""
        changed = False
        for variable in db.variables():
            if variable in result.frozen or variable in result.fixed:
                continue
            pos, neg = db.occurrences[variable], db.occurrences[-variable]
            if pos and neg:
                continue
            occurring = db.ids_with(variable if pos else -variable)
            if not occurring:
                continue
            removed = tuple(db.remove(clause_id) for clause_id in occurring)
            result.reconstruction.append((_ELIMINATED, variable, removed))
            result.stats.pure_literals += 1
            result.stats.eliminated_variables += 1
            changed = True
        return changed

    def _subsumption_round(
        self, db: _OccurrenceDatabase, result: PreprocessResult, full: bool = False
    ) -> bool:
        """One pass of subsumption and self-subsuming resolution.

        The first pass (``full=True``) considers every clause as a potential
        subsumer; later passes only consider clauses added or strengthened
        since the previous pass (only those can newly subsume anything).

        Each rule visits, in ascending id order, only the clauses that hold
        two literals every clause passing its test must hold; the others
        would fail the test, so the removals and strengthenings are those
        of a walk over the whole occurrence list of one literal.
        """
        config = self.config
        clauses, occurrences = db.clauses, db.occurrences
        changed = False
        pool = clauses if full else (db.touched & clauses.keys())
        db.touched.clear()
        order = sorted(pool, key=lambda cid: (len(clauses[cid]), cid))
        for clause_id in order:
            clause = clauses.get(clause_id)
            if clause is None:
                continue
            # A clause either rule acts on holds every literal of this one
            # but at most one, so the rarest literals narrow the candidates.
            ranked = sorted(clause, key=lambda lit: len(occurrences[lit]))
            literals = set(clause)
            if config.subsumption:
                candidates = occurrences[ranked[0]]
                if len(ranked) > 1:
                    candidates = candidates & occurrences[ranked[1]]
                for other_id in sorted(candidates):
                    if other_id == clause_id:
                        continue
                    other = clauses.get(other_id)
                    if other is None or len(other) < len(clause):
                        continue
                    if literals <= set(other):
                        db.remove(other_id)
                        result.stats.subsumed += 1
                        changed = True
            if config.self_subsumption:
                for lit in clause:
                    rest = literals - {lit}
                    candidates = occurrences[-lit]
                    if rest:
                        partner = ranked[1] if ranked[0] == lit else ranked[0]
                        candidates = candidates & occurrences[partner]
                    for other_id in sorted(candidates):
                        other = clauses.get(other_id)
                        if other is None or len(other) < len(clause):
                            continue
                        if rest <= set(other) - {-lit}:
                            db.strengthen(other_id, -lit)
                            result.stats.strengthened += 1
                            changed = True
                            if db.unsat:
                                return True
        return changed

    def _elimination_round(self, db: _OccurrenceDatabase, result: PreprocessResult) -> bool:
        """Bounded variable elimination, cheapest (fewest occurrences) first."""
        config = self.config
        changed = False
        candidates = [
            variable
            for variable in db.variables()
            if variable not in result.frozen and variable not in result.fixed
        ]
        candidates.sort(key=lambda variable: (db.num_occurrences(variable), variable))
        for variable in candidates:
            positive = db.ids_with(variable)
            negative = db.ids_with(-variable)
            if not positive or not negative:
                continue  # pure or gone; the pure-literal pass owns this case
            if len(positive) + len(negative) > config.max_occurrences:
                continue
            limit = len(positive) + len(negative) + config.max_growth
            max_length = config.max_resolvent_length
            resolvents: list[set[int]] = []
            empty = rejected = False
            for pos_id in positive:
                first = db.clauses[pos_id]
                for neg_id in negative:
                    resolvent = _resolve(first, db.clauses[neg_id], variable)
                    if resolvent is None:
                        continue  # tautology
                    if not resolvent:
                        empty = True
                        break
                    if max_length and len(resolvent) > max_length:
                        rejected = True
                        break
                    resolvents.append(resolvent)
                    if len(resolvents) > limit:
                        # Growth bound already exceeded: stop resolving early
                        # (heavily-occurring variables would otherwise pay the
                        # full quadratic resolvent bill just to be rejected).
                        rejected = True
                        break
                if empty or rejected:
                    break
            if empty:
                db.unsat = True
                return True
            if rejected:
                continue
            removed = tuple(db.remove(clause_id) for clause_id in positive + negative)
            for resolvent in resolvents:
                # normalize_clause's order: no two literals share a variable.
                db.add(tuple(sorted(resolvent, key=abs)))
            result.reconstruction.append((_ELIMINATED, variable, removed))
            result.stats.eliminated_variables += 1
            changed = True
            if db.unsat:
                return True
        return changed

    def _probing_round(self, db: _OccurrenceDatabase, result: PreprocessResult) -> bool:
        """Failed-literal probing over both polarities of every live variable."""
        changed = False
        for variable in db.variables():
            if variable in result.fixed:
                continue
            result.stats.probed_literals += 2
            positive_ok = self._up_consistent(db, variable)
            negative_ok = self._up_consistent(db, -variable)
            if not positive_ok and not negative_ok:
                db.unsat = True
                return True
            if positive_ok == negative_ok:
                continue
            forced = variable if positive_ok else -variable
            result.stats.failed_literals += 1
            changed = True
            if not self._assign(db, result, forced):
                db.unsat = True
                return True
            if self._propagate(db, result) and db.unsat:
                return True
        return changed

    @staticmethod
    def _up_consistent(db: _OccurrenceDatabase, lit: int) -> bool:
        """Does assuming ``lit`` survive unit propagation without conflict?"""
        values: dict[int, bool] = {}
        queue = [lit]
        while queue:
            current = queue.pop()
            variable, value = abs(current), current > 0
            known = values.get(variable)
            if known is not None:
                if known != value:
                    return False
                continue
            values[variable] = value
            for clause_id in db.occurrences[-current]:
                clause = db.clauses[clause_id]
                unassigned = None
                open_count = 0
                satisfied = False
                for other in clause:
                    other_value = values.get(abs(other))
                    if other_value is None:
                        unassigned = other
                        open_count += 1
                        if open_count > 1:
                            break
                    elif other_value == (other > 0):
                        satisfied = True
                        break
                if satisfied or open_count > 1:
                    continue
                if open_count == 0:
                    return False
                queue.append(unassigned)
        return True

    def _blocked_round(self, db: _OccurrenceDatabase, result: PreprocessResult) -> bool:
        """Remove clauses blocked on a non-frozen literal."""
        changed = False
        for clause_id in sorted(db.clauses):
            clause = db.clauses.get(clause_id)
            if clause is None:
                continue
            for lit in clause:
                if abs(lit) in result.frozen:
                    continue
                blocked = True
                for other_id in db.occurrences[-lit]:
                    if other_id == clause_id:
                        continue
                    if _resolve(clause, db.clauses[other_id], abs(lit)) is not None:
                        blocked = False
                        break
                if blocked:
                    db.remove(clause_id)
                    result.reconstruction.append((_BLOCKED, lit, (clause,)))
                    result.stats.blocked_clauses += 1
                    changed = True
                    break
        return changed


# --------------------------------------------------------------- registry wiring
from repro.api.registry import register_preprocessor  # noqa: E402  (import-time registration)


@register_preprocessor(
    "satelite",
    description="fixpoint UP + pure literals + subsumption/SSR + bounded variable elimination",
)
def _satelite_factory(**options) -> Preprocessor:
    """Build the default preprocessor; options are :class:`PreprocessConfig` fields."""
    return Preprocessor(PreprocessConfig(**options)) if options else Preprocessor()


@register_preprocessor(
    "units-only",
    description="fixpoint unit propagation and pure literals only (cheapest, equivalence-safe)",
)
def _units_only_factory(**options) -> Preprocessor:
    """A propagation-only pipeline (no clause-set rewriting beyond UP/pure)."""
    base = PreprocessConfig(
        subsumption=False, self_subsumption=False, variable_elimination=False
    )
    return Preprocessor(replace(base, **options) if options else base)


__all__ = [
    "PreprocessConfig",
    "PreprocessResult",
    "PreprocessStats",
    "Preprocessor",
    "validate_frozen",
]
