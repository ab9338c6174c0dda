"""CNF formulas and literal conventions.

Literals follow the DIMACS convention used throughout the library: a literal is
a non-zero signed integer, ``+v`` for the positive literal of variable ``v`` and
``-v`` for the negated literal.  Variables are positive integers numbered from
1.  Clauses are tuples of literals; a CNF is an ordered collection of clauses
plus the number of variables.

The representation is deliberately simple and immutable-ish (clauses are stored
as tuples) so that formulas can be hashed, shared between threads and processes,
and reasoned about easily in tests.  Solvers convert to their own internal
representation on construction.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

Clause = tuple[int, ...]


def neg(lit: int) -> int:
    """Return the negation of a literal."""
    if lit == 0:
        raise ValueError("0 is not a valid literal")
    return -lit


def lit_to_var(lit: int) -> int:
    """Return the variable of a literal (always positive)."""
    if lit == 0:
        raise ValueError("0 is not a valid literal")
    return abs(lit)


def var_to_lit(var: int, positive: bool = True) -> int:
    """Build a literal from a variable and a polarity."""
    if var <= 0:
        raise ValueError(f"variables must be positive integers, got {var}")
    return var if positive else -var


def normalize_clause(literals: Iterable[int]) -> Clause | None:
    """Normalise a clause: deduplicate literals, sort, detect tautologies.

    Returns ``None`` when the clause is a tautology (contains both ``l`` and
    ``-l``), otherwise the sorted tuple of distinct literals.  An empty input
    yields the empty clause ``()`` which denotes falsity.
    """
    seen: set[int] = set()
    for lit in literals:
        if lit == 0:
            raise ValueError("0 terminator is not allowed inside a clause")
        if -lit in seen:
            return None
        seen.add(lit)
    # No two literals left share a variable, so ``abs`` alone orders them.
    return tuple(sorted(seen, key=abs))


@dataclass
class CNF:
    """A propositional formula in conjunctive normal form.

    Parameters
    ----------
    clauses:
        Iterable of clauses; each clause is an iterable of non-zero ints.
    num_vars:
        Number of variables.  If omitted it is inferred as the largest variable
        index mentioned in the clauses.  It may be larger than the largest
        mentioned variable (useful when some variables are unconstrained).
    comments:
        Free-form comment lines carried through DIMACS round trips.
    """

    clauses: list[Clause] = field(default_factory=list)
    num_vars: int = 0
    comments: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        cleaned: list[Clause] = []
        max_var = 0
        for clause in self.clauses:
            tup = tuple(clause)
            for lit in tup:
                if lit == 0:
                    raise ValueError("0 terminator is not allowed inside a clause")
                max_var = max(max_var, abs(lit))
            cleaned.append(tup)
        self.clauses = cleaned
        if self.num_vars < max_var:
            self.num_vars = max_var

    # ------------------------------------------------------------------ basic
    @property
    def num_clauses(self) -> int:
        """Number of clauses."""
        return len(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CNF):
            return NotImplemented
        return self.num_vars == other.num_vars and self.clauses == other.clauses

    def variables(self) -> set[int]:
        """Set of variables that actually occur in some clause."""
        occurring: set[int] = set()
        for clause in self.clauses:
            for lit in clause:
                occurring.add(abs(lit))
        return occurring

    # ------------------------------------------------------------- construction
    def add_clause(self, literals: Iterable[int]) -> None:
        """Append one clause, updating ``num_vars`` as needed."""
        tup = tuple(literals)
        for lit in tup:
            if lit == 0:
                raise ValueError("0 terminator is not allowed inside a clause")
            if abs(lit) > self.num_vars:
                self.num_vars = abs(lit)
        self.clauses.append(tup)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        """Append several clauses."""
        for clause in clauses:
            self.add_clause(clause)

    def new_var(self) -> int:
        """Allocate (and return) a fresh variable index."""
        self.num_vars += 1
        return self.num_vars

    def copy(self) -> "CNF":
        """Return a shallow copy (clauses are immutable tuples)."""
        return CNF(list(self.clauses), self.num_vars, list(self.comments))

    # ------------------------------------------------------------- operations
    def assign(self, assignment: dict[int, bool]) -> "CNF":
        """Return the formula obtained by substituting a partial assignment.

        Clauses satisfied by the assignment are dropped; falsified literals are
        removed from the remaining clauses.  If some clause becomes empty the
        result contains the empty clause (i.e. is trivially unsatisfiable).
        The variable numbering is preserved (no renumbering is performed), which
        keeps decomposition-set bookkeeping simple.
        """
        new_clauses: list[Clause] = []
        for clause in self.clauses:
            satisfied = False
            remaining: list[int] = []
            for lit in clause:
                var = abs(lit)
                if var in assignment:
                    value = assignment[var]
                    if (lit > 0) == value:
                        satisfied = True
                        break
                else:
                    remaining.append(lit)
            if not satisfied:
                new_clauses.append(tuple(remaining))
        return CNF(new_clauses, self.num_vars, list(self.comments))

    def with_unit_clauses(self, assignment: dict[int, bool]) -> "CNF":
        """Return a copy of the formula extended with unit clauses for ``assignment``.

        This is the standard way to "weaken" / decompose an instance without
        rewriting its clauses: the sub-instance ``C[X̃/α]`` of the paper is
        logically equivalent to ``C ∧ {unit clauses encoding α}`` and a CDCL
        solver handles the units during preprocessing.
        """
        result = self.copy()
        for var, value in sorted(assignment.items()):
            result.add_clause((var if value else -var,))
        return result

    def restrict_to_clauses(self, predicate) -> "CNF":
        """Return a CNF containing only the clauses for which ``predicate`` holds."""
        return CNF([c for c in self.clauses if predicate(c)], self.num_vars, list(self.comments))

    def is_satisfied_by(self, model: Sequence[bool] | dict[int, bool]) -> bool:
        """Check whether a full assignment satisfies every clause.

        ``model`` may be a dict ``{var: bool}`` or a sequence where index ``v-1``
        holds the value of variable ``v``.
        """
        getter = _model_getter(model)
        for clause in self.clauses:
            if not any(getter(abs(lit)) == (lit > 0) for lit in clause):
                return False
        return True

    def falsified_clauses(self, model: Sequence[bool] | dict[int, bool]) -> list[Clause]:
        """Return the clauses falsified by a full assignment (useful in tests)."""
        getter = _model_getter(model)
        return [
            clause
            for clause in self.clauses
            if not any(getter(abs(lit)) == (lit > 0) for lit in clause)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CNF(num_vars={self.num_vars}, num_clauses={self.num_clauses})"


def _model_getter(model: Sequence[bool] | dict[int, bool]):
    """Return a ``var -> bool`` accessor for the two supported model shapes."""
    if isinstance(model, dict):
        return lambda var: bool(model[var])
    return lambda var: bool(model[var - 1])
