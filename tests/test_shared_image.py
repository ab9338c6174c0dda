"""Tests for the frozen CNF image (:mod:`repro.sat.cdcl.image`).

:class:`~repro.sat.cdcl.image.ArenaImage` is the worker-side half of the
frozen-image protocol: the leader freezes the post-``_init`` clause database
once into a flat ``int64`` buffer, process-pool workers receive it through
the pool initializer, and each rebuilds its solver with ``load_image``.
These tests pin that ``load_image`` is bit-identical to ``load`` and that
corrupt buffers are rejected; ``tests/test_run_pool.py`` pins that image-fed
pool workers return exactly the serial run's results.
"""

from __future__ import annotations

import pytest

from repro.sat.cdcl import CDCLSolver
from repro.sat.cdcl.image import ArenaImage
from repro.sat.formula import CNF
from repro.sat.random_cnf import random_ksat
from repro.sat.solver import SolverStatus


def _cnf():
    return random_ksat(10, 42, k=3, seed=5)


class TestImageLifecycle:
    def test_freeze_is_private_and_round_trips_the_formula(self):
        cnf = _cnf()
        image = ArenaImage.freeze(cnf)
        assert image.num_vars == cnf.num_vars
        assert image.ok
        # The decoded formula is logically equivalent: same verdict and the
        # original formula accepts the model found on the decoded one.
        decoded = image.to_cnf()
        result = CDCLSolver().solve(decoded)
        assert result.status is CDCLSolver().solve(cnf).status is SolverStatus.SAT
        assert cnf.is_satisfied_by(result.model)

    def test_freeze_and_load_image_are_bit_identical_to_load(self):
        cnf = _cnf()
        # A solver rebuilt from the image must match load(cnf) bit for bit
        # on statuses and counters, row after row on the same solver.
        rows = [(1, -2), (3,), (), (-1, -3, 5)]
        from_image = CDCLSolver().load_image(ArenaImage.freeze(cnf))
        from_cnf = CDCLSolver().load(cnf)
        sat_rows = 0
        for row in rows:
            a = from_image.solve(cnf, assumptions=list(row))
            b = from_cnf.solve(cnf, assumptions=list(row))
            assert a.status is b.status
            assert a.stats.propagations == b.stats.propagations
            assert a.stats.conflicts == b.stats.conflicts
            if a.status is SolverStatus.SAT:
                sat_rows += 1
                assert a.model == b.model
        assert sat_rows  # at least one model was compared

    def test_root_refuted_formula_freezes_with_ok_false(self):
        cnf = CNF(clauses=[(1,), (-1,)], num_vars=1)  # x and not-x as root units
        image = ArenaImage.freeze(cnf)
        assert not image.ok
        assert CDCLSolver().load_image(image).solve(cnf).status is SolverStatus.UNSAT

    def test_validation_rejects_corrupt_buffers(self):
        from array import array

        good = ArenaImage.freeze(_cnf())
        words = array("q", good.buffer)
        words[0] ^= 1
        with pytest.raises(ValueError, match="magic"):
            ArenaImage(words)
        words[0] ^= 1
        words[1] += 1
        with pytest.raises(ValueError, match="version"):
            ArenaImage(words)
        words[1] -= 1
        with pytest.raises(ValueError, match="truncated"):
            ArenaImage(words[:-1])
        with pytest.raises(ValueError, match="too small"):
            ArenaImage(array("q", [1, 2, 3]))

