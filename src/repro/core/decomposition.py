"""Decomposition sets and decomposition families.

A *decomposition set* ``X̃ = {x_{i_1}, ..., x_{i_d}}`` is a subset of the
variables of a CNF ``C``.  It induces the *decomposition family*

    Δ_C(X̃) = { C[X̃/α] : α ∈ {0,1}^d },

the set of ``2^d`` sub-instances obtained by substituting every assignment of
``X̃``.  Section 2 of the paper shows this family is a *partitioning* of the
SAT instance: the sub-instances are pairwise inconsistent and their disjunction
is equivalent to ``C``.  :meth:`DecompositionFamily.check_partitioning`
verifies both properties explicitly for small ``d`` (used in tests).
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from repro.sat.assignment import Assignment
from repro.sat.formula import CNF
from repro.stats.sampling import random_bits


class SampleRow(NamedTuple):
    """One assignment ``α`` of a decomposition set, as the sample loop solves it."""

    #: ``α`` itself, one bit per variable in the set's order.
    bits: tuple[int, ...]
    #: The substitution ``X̃ / α`` as assumption literals, sorted by variable.
    literals: tuple[int, ...]


@dataclass(frozen=True)
class DecompositionSet:
    """An ordered set of decomposition variables."""

    variables: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("decomposition variables must be distinct")
        if any(v <= 0 for v in self.variables):
            raise ValueError("variables must be positive integers")

    @classmethod
    def of(cls, variables: Iterable[int]) -> "DecompositionSet":
        """Build a decomposition set from any iterable (sorted, deduplicated)."""
        return cls(tuple(sorted(set(int(v) for v in variables))))

    @classmethod
    def coerce(cls, decomposition: "DecompositionSet | Iterable[int]") -> "DecompositionSet":
        """``decomposition`` itself when it is a set already (order kept), else :meth:`of` it."""
        return decomposition if isinstance(decomposition, cls) else cls.of(decomposition)

    @property
    def d(self) -> int:
        """Number of decomposition variables (the ``d`` of the paper)."""
        return len(self.variables)

    @property
    def num_subproblems(self) -> int:
        """Size of the decomposition family, ``2^d``."""
        return 1 << self.d

    def __len__(self) -> int:
        return len(self.variables)

    def __iter__(self) -> Iterator[int]:
        return iter(self.variables)

    def __contains__(self, var: int) -> bool:
        return var in self.variables

    def assignment_from_bits(self, bits: Sequence[int | bool]) -> Assignment:
        """The substitution ``X̃ / α`` for a concrete bit vector ``α``."""
        return Assignment.from_bits(self.variables, bits)

    def random_assignment(self, rng: random.Random) -> Assignment:
        """Draw ``α`` uniformly from ``{0,1}^d``."""
        return Assignment.from_bits(self.variables, random_bits(rng, self.d))

    def random_sample(self, sample_size: int, rng: random.Random) -> list[SampleRow]:
        """The paper's *random sample* (4): ``N`` independent uniform assignments.

        One :func:`~repro.stats.sampling.random_bits` call draws the bits of
        all ``N`` rows, row after row, as ``N`` draws of ``d`` bits would.
        """
        d = self.d
        drawn = random_bits(rng, sample_size * d)
        return self.rows(drawn[row * d : (row + 1) * d] for row in range(sample_size))

    def rows(self, bit_vectors: Iterable[tuple[int, ...]]) -> list[SampleRow]:
        """Each bit vector ``α`` with the assumption literals of ``X̃ / α``."""
        signed = sorted((var, index) for index, var in enumerate(self.variables))
        return [
            SampleRow(bits, tuple([var if bits[index] else -var for var, index in signed]))
            for bits in bit_vectors
        ]

    def all_assignments(self) -> Iterator[Assignment]:
        """Enumerate the full decomposition family's assignments in lexicographic order."""
        for bits in itertools.product((0, 1), repeat=self.d):
            yield Assignment.from_bits(self.variables, bits)

    def with_variable(self, var: int) -> "DecompositionSet":
        """The set extended by ``var`` (no-op when already present)."""
        if var in self.variables:
            return self
        return DecompositionSet.of(self.variables + (var,))

    def without_variable(self, var: int) -> "DecompositionSet":
        """The set with ``var`` removed (no-op when absent)."""
        if var not in self.variables:
            return self
        return DecompositionSet.of(v for v in self.variables if v != var)

    def as_frozenset(self) -> frozenset[int]:
        """Frozenset view (the search space's point representation)."""
        return frozenset(self.variables)

    def __str__(self) -> str:
        return "{" + ", ".join(str(v) for v in self.variables) + "}"


class DecompositionFamily:
    """The family ``Δ_C(X̃)`` of sub-instances of a CNF induced by a decomposition set."""

    def __init__(self, cnf: CNF, decomposition: DecompositionSet | Iterable[int]):
        self.cnf = cnf
        self.decomposition = DecompositionSet.coerce(decomposition)
        missing = [v for v in self.decomposition if v > cnf.num_vars]
        if missing:
            raise ValueError(f"decomposition variables {missing} exceed num_vars={cnf.num_vars}")

    def __len__(self) -> int:
        return self.decomposition.num_subproblems

    def subproblem(self, assignment: Assignment, as_units: bool = True) -> CNF:
        """The sub-instance ``C[X̃/α]``.

        With ``as_units`` (default) the substitution is expressed as unit
        clauses appended to ``C`` — logically equivalent and what a CDCL solver
        sees in practice; otherwise the substitution is applied syntactically.
        """
        if as_units:
            return self.cnf.with_unit_clauses(assignment.values)
        return self.cnf.assign(assignment.values)

    def subproblems(self, as_units: bool = True) -> Iterator[tuple[Assignment, CNF]]:
        """Enumerate all ``2^d`` sub-instances (use only for small ``d``)."""
        for assignment in self.decomposition.all_assignments():
            yield assignment, self.subproblem(assignment, as_units=as_units)

    # ----------------------------------------------------------------- checking
    def check_partitioning(self, solver, max_subproblems: int = 1 << 12) -> bool:
        """Verify the partitioning property of Δ_C(X̃) (Section 2 of the paper).

        Checks that (a) any two distinct sub-instances are mutually
        inconsistent — immediate here because distinct assignments of ``X̃``
        disagree on some variable — and (b) ``C`` is equivalent to the
        disjunction of the sub-instances: every model of ``C`` extends exactly
        one assignment of ``X̃``, and every model of a sub-instance is a model
        of ``C``.  Property (b) is verified by solving each sub-instance and
        checking the returned models against ``C``, plus checking that ``C`` is
        satisfiable iff some sub-instance is.

        Only intended for small decomposition sets (``2^d`` bounded by
        ``max_subproblems``).
        """
        if self.decomposition.num_subproblems > max_subproblems:
            raise ValueError(
                f"family of size {self.decomposition.num_subproblems} is too large to check"
            )
        any_sat = False
        for assignment, sub in self.subproblems():
            result = solver.solve(sub)
            if not result.is_decided:
                raise RuntimeError("solver returned UNKNOWN during partitioning check")
            if result.is_sat:
                any_sat = True
                assert result.model is not None
                if not self.cnf.is_satisfied_by(result.model):
                    return False
                if Assignment(
                    {v: result.model[v] for v in self.decomposition}
                ).bits_for(list(self.decomposition.variables)) != assignment.bits_for(
                    list(self.decomposition.variables)
                ):
                    return False
        original = solver.solve(self.cnf)
        if not original.is_decided:
            raise RuntimeError("solver returned UNKNOWN during partitioning check")
        return original.is_sat == any_sat
