"""The plain candidate walks ``Preprocessor`` replaced, kept as its reference.

``Preprocessor`` finds subsumption and self-subsumption candidates by
intersecting two occurrence sets, and builds each resolvent of bounded
variable elimination as one unsorted literal set.  :class:`ReferencePreprocessor`
keeps the walks those replaced: every clause in the sorted occurrence list of
the subsumer's rarest literal (of ``¬l`` for self-subsumption), and every
resolvent normalised by ``normalize_clause`` sorting on ``(abs(l), l < 0)``.
:func:`assert_same_as_reference` runs both and asserts an equal
:class:`~repro.sat.simplify.PreprocessResult`: the same clauses in the same
order, reconstruction stack, ``fixed`` values in the same order, ``unsat``
flag, every stats counter but ``wall_time``, and the same trace events.

``tests/test_simplify_reference.py`` compares the two on the tiny encodings
and on drawn formulas, ``tests/test_simplify.py`` on its hand-made cases, and
``benchmarks/bench_preprocessing.py`` on the larger ``*-small`` encodings.
This module imports nothing beyond the package, so the benchmarks can use
it without the test dependencies.
"""

from __future__ import annotations

from unittest import mock

from repro.sat import simplify
from repro.sat.simplify import Preprocessor


def reference_normalize_clause(literals):
    """``normalize_clause`` as it sorted before: on ``(abs(l), l < 0)``."""
    seen: set[int] = set()
    for lit in literals:
        if lit == 0:
            raise ValueError("0 terminator is not allowed inside a clause")
        if -lit in seen:
            return None
        seen.add(lit)
    return tuple(sorted(seen, key=lambda lit: (abs(lit), lit < 0)))


def reference_resolve(first, second, variable):
    """The resolvent of two clauses on ``variable`` (``None`` when tautological)."""
    merged = [lit for lit in first if abs(lit) != variable]
    merged.extend(lit for lit in second if abs(lit) != variable)
    return reference_normalize_clause(merged)


class ReferencePreprocessor(Preprocessor):
    """The preprocessor with its plain candidate walks and normalised resolvents."""

    def preprocess(self, cnf, frozen=(), trace=None):
        with mock.patch.object(simplify, "normalize_clause", reference_normalize_clause):
            return super().preprocess(cnf, frozen=frozen, trace=trace)

    def _subsumption_round(self, db, result, full=False):
        config = self.config
        changed = False
        pool = db.clauses if full else (db.touched & db.clauses.keys())
        db.touched.clear()
        order = sorted(pool, key=lambda cid: (len(db.clauses[cid]), cid))
        for clause_id in order:
            clause = db.clauses.get(clause_id)
            if clause is None:
                continue
            if config.subsumption:
                rarest = min(clause, key=lambda lit: (len(db.occurrences[lit]), lit))
                literals = set(clause)
                for other_id in db.ids_with(rarest):
                    if other_id == clause_id:
                        continue
                    other = db.clauses.get(other_id)
                    if other is None or len(other) < len(clause):
                        continue
                    if literals <= set(other):
                        db.remove(other_id)
                        result.stats.subsumed += 1
                        changed = True
            if config.self_subsumption:
                for lit in clause:
                    rest = set(clause) - {lit}
                    for other_id in db.ids_with(-lit):
                        other = db.clauses.get(other_id)
                        if other is None or len(other) < len(clause):
                            continue
                        if rest <= set(other) - {-lit}:
                            db.strengthen(other_id, -lit)
                            result.stats.strengthened += 1
                            changed = True
                            if db.unsat:
                                return True
        return changed

    def _elimination_round(self, db, result):
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
                continue
            if len(positive) + len(negative) > config.max_occurrences:
                continue
            limit = len(positive) + len(negative) + config.max_growth
            max_length = config.max_resolvent_length
            resolvents = []
            empty = rejected = False
            for pos_id in positive:
                for neg_id in negative:
                    resolvent = reference_resolve(
                        db.clauses[pos_id], db.clauses[neg_id], variable
                    )
                    if resolvent is None:
                        continue
                    if not resolvent:
                        empty = True
                        break
                    if max_length and len(resolvent) > max_length:
                        rejected = True
                        break
                    resolvents.append(resolvent)
                    if len(resolvents) > limit:
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
                db.add(resolvent)
            result.reconstruction.append(("eliminated", variable, removed))
            result.stats.eliminated_variables += 1
            changed = True
            if db.unsat:
                return True
        return changed


class _EventLog:
    """A trace writer that keeps the preprocessing events it is given."""

    def __init__(self):
        self.events = []

    def pre_round(self, *event):
        self.events.append(("round", *event))

    def pre_rule(self, *event):
        self.events.append(("rule", *event))


def _observable(result, log):
    stats = result.stats.to_dict()
    del stats["wall_time"]
    return {
        "clauses": result.cnf.clauses,
        "num_vars": result.cnf.num_vars,
        "reconstruction": result.reconstruction,
        "fixed": list(result.fixed.items()),
        "unsat": result.unsat,
        "stats": stats,
        "trace": log.events,
    }


def assert_same_as_reference(cnf, config, frozen=()):
    """Preprocess ``cnf`` both ways and assert equal results; returns the fast one."""
    fast_log, reference_log = _EventLog(), _EventLog()
    fast = Preprocessor(config).preprocess(cnf, frozen=frozen, trace=fast_log)
    reference = ReferencePreprocessor(config).preprocess(cnf, frozen=frozen, trace=reference_log)
    assert _observable(fast, fast_log) == _observable(reference, reference_log)
    return fast
