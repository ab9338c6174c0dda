"""Frozen, buffer-backed CNF/arena images — the frozen-image worker protocol.

A :class:`CDCLSolver` builds its internal clause database with
:meth:`~repro.sat.cdcl.solver.CDCLSolver._init`: clause normalisation, root
unit enqueueing, arena layout and watcher construction.  That work is a pure
function of the formula, yet the process-pool estimation path historically
repeated it in *every worker for every task* (the CNF rode along in the pool
initializer, and each fresh ``solve(cnf, ...)`` re-ran ``_init``).  An
:class:`ArenaImage` does the work once in the leader and ships the result as
one flat ``int64`` buffer:

* :meth:`ArenaImage.freeze` loads the formula into a throwaway solver and
  serialises the **post-``_init`` state** — the clause arena, the problem-cref
  table and the root-level unit trail — into a private buffer, which
  :func:`repro.runner.pool.worker_executor` hands to forked pool workers
  through the pool initializer;
* :meth:`~repro.sat.cdcl.solver.CDCLSolver.load_image` rebuilds a solver from
  an image without re-normalising a single clause — bit-identical to
  ``load(cnf)`` on the original formula.

What that saves is small.  Medians of 50 interleaved rounds on a 2-vCPU VM
(one run, not host-corrected): on the simplified Bivium16 formula ``load``
takes 2.63 ms, ``freeze`` 2.82 ms and ``load_image`` 2.26 ms, 1.41 ms of it
in the :meth:`ArenaImage.to_cnf` that sets the solver's ``loaded_cnf``; on
a51-tiny ``load`` takes 13.69 ms, ``freeze`` 14.83 ms and ``load_image``
11.85 ms.  The leader's freeze costs about one ``load``, and each worker
saves 0.4–2 ms per load.

Buffer layout (``int64`` words)::

    ┌─────────┬─────────┬──────────┬────┬───────────┬──────────┬────────────┐
    │ MAGIC   │ VERSION │ num_vars │ ok │ arena_len │ n_crefs  │ n_units    │
    ├─────────┴─────────┴──────────┴────┴───────────┴──────────┴────────────┤
    │ arena words  …  │ problem crefs … │ root-unit trail (internal lits) … │
    └───────────────────────────────────────────────────────────────────────┘
"""

from __future__ import annotations

from array import array

from repro.sat.formula import CNF

_MAGIC = 0x41524E41  # "ARNA"
_VERSION = 1
_HEADER_WORDS = 7


class ArenaImage:
    """A frozen post-``_init`` solver state behind a flat ``int64`` buffer."""

    def __init__(self, words):
        self._words = words
        self._validate()

    # ------------------------------------------------------------------ freeze
    @classmethod
    def freeze(cls, cnf: CNF, config=None) -> "ArenaImage":
        """Build the formula's clause database once and freeze it.

        The image holds ``cnf`` as given: a run that preprocesses freezes the
        simplified formula.
        """
        from repro.sat.cdcl.solver import CDCLSolver

        solver = CDCLSolver(config).load(cnf)
        arena = solver._arena
        crefs = solver._clauses
        trail = solver._trail
        words = array(
            "q",
            [
                _MAGIC,
                _VERSION,
                solver._num_vars,
                1 if solver._ok else 0,
                len(arena),
                len(crefs),
                len(trail),
            ],
        )
        words.extend(arena)
        words.extend(crefs)
        words.extend(trail)
        return cls(words)

    # --------------------------------------------------------------- accessors
    @property
    def buffer(self):
        """The raw ``int64`` words."""
        return self._words

    @property
    def num_vars(self) -> int:
        return int(self._words[2])

    @property
    def ok(self) -> bool:
        """False when the formula was refuted while building the database."""
        return bool(self._words[3])

    def arena(self) -> list[int]:
        """A fresh mutable copy of the frozen clause arena."""
        base = _HEADER_WORDS
        return list(self._words[base : base + int(self._words[4])])

    def crefs(self) -> list[int]:
        """A fresh copy of the problem-clause cref table (age order)."""
        base = _HEADER_WORDS + int(self._words[4])
        return list(self._words[base : base + int(self._words[5])])

    def root_units(self) -> list[int]:
        """The root-level unit trail (internal literal indices, enqueue order)."""
        base = _HEADER_WORDS + int(self._words[4]) + int(self._words[5])
        return list(self._words[base : base + int(self._words[6])])

    def to_cnf(self) -> CNF:
        """Decode a CNF equivalent to the frozen database (for verification).

        Root units come first (they were enqueued before/while the arena was
        built), then the arena clauses in cref order.  The result is
        logically equivalent to the frozen formula but not literal-for-literal
        identical to the original (``_init`` already dropped tautologies and
        root-satisfied clauses).
        """
        from repro.sat.cdcl.solver import _elit

        clauses: list[tuple[int, ...]] = [(_elit(lit),) for lit in self.root_units()]
        arena = self.arena()
        for cref in self.crefs():
            size = arena[cref]
            clauses.append(tuple(_elit(lit) for lit in arena[cref + 1 : cref + 1 + size]))
        return CNF(clauses=clauses, num_vars=self.num_vars)

    # ---------------------------------------------------------------- internals
    def _validate(self) -> None:
        words = self._words
        if len(words) < _HEADER_WORDS:
            raise ValueError("buffer too small to be an ArenaImage")
        if int(words[0]) != _MAGIC:
            raise ValueError(f"bad ArenaImage magic: 0x{int(words[0]):x}")
        if int(words[1]) != _VERSION:
            raise ValueError(
                f"ArenaImage version {int(words[1])} unsupported "
                f"(this build reads version {_VERSION})"
            )
        needed = _HEADER_WORDS + int(words[4]) + int(words[5]) + int(words[6])
        if len(words) < needed:
            raise ValueError(
                f"truncated ArenaImage: {len(words)} words, header declares {needed}"
            )


__all__ = ["ArenaImage"]
