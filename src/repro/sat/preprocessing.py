"""Unit propagation closure of a formula under a partial assignment.

The backdoor-set verifier (:mod:`repro.sat.backdoor`) needs the closure to
check the Strong Unit-Propagation Backdoor property, and the partitioning
techniques (:mod:`repro.partitioning`) propagate the formula alone or under a
cube.  SatELite-style preprocessing, pure literals included, is
:class:`repro.sat.simplify.Preprocessor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sat.formula import CNF


@dataclass
class PropagationResult:
    """Outcome of running unit propagation to a fixed point."""

    conflict: bool
    assignment: dict[int, bool] = field(default_factory=dict)
    simplified: CNF | None = None

    @property
    def fixed_variables(self) -> set[int]:
        """Variables whose value is forced by unit propagation."""
        return set(self.assignment)


def unit_propagate(cnf: CNF, assignment: dict[int, bool] | None = None) -> PropagationResult:
    """Run Boolean constraint propagation to a fixed point.

    Parameters
    ----------
    cnf:
        Input formula.
    assignment:
        Optional initial partial assignment (e.g. a decomposition-set
        substitution); it is included in the returned closure.

    Returns
    -------
    PropagationResult
        ``conflict`` is True when propagation derives the empty clause.  When
        there is no conflict, ``assignment`` holds the propagation closure and
        ``simplified`` the residual formula (satisfied clauses removed,
        falsified literals deleted).
    """
    values: dict[int, bool] = dict(assignment or {})
    clauses = [tuple(c) for c in cnf.clauses]

    changed = True
    while changed:
        changed = False
        residual: list[tuple[int, ...]] = []
        for clause in clauses:
            satisfied = False
            remaining: list[int] = []
            for lit in clause:
                var = abs(lit)
                if var in values:
                    if values[var] == (lit > 0):
                        satisfied = True
                        break
                else:
                    remaining.append(lit)
            if satisfied:
                continue
            if not remaining:
                return PropagationResult(conflict=True, assignment=values)
            if len(remaining) == 1:
                lit = remaining[0]
                values[abs(lit)] = lit > 0
                changed = True
            else:
                residual.append(tuple(remaining))
        clauses = residual

    simplified = CNF(list(clauses), cnf.num_vars)
    return PropagationResult(conflict=False, assignment=values, simplified=simplified)

