"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
import time

import pytest

from repro.ciphers import Geffe
from repro.problems import make_inversion_instance
from repro.sat.cdcl import CDCLSolver
from repro.sat.dpll import DPLLSolver
from repro.sat.formula import CNF


@pytest.fixture
def cdcl() -> CDCLSolver:
    """A fresh CDCL solver with default configuration."""
    return CDCLSolver()


@pytest.fixture
def dpll() -> DPLLSolver:
    """A fresh DPLL solver (reference implementation)."""
    return DPLLSolver()


@pytest.fixture
def tiny_sat_cnf() -> CNF:
    """A small satisfiable CNF with a unique model: x1=T, x2=F, x3=T."""
    return CNF([(1,), (-2,), (3,), (-1, -2, 3)])


@pytest.fixture
def tiny_unsat_cnf() -> CNF:
    """A minimal unsatisfiable CNF."""
    return CNF([(1, 2), (1, -2), (-1, 2), (-1, -2)])


@pytest.fixture
def geffe_instance():
    """A Geffe-tiny inversion instance used by several integration-level tests."""
    return make_inversion_instance(Geffe.tiny(), keystream_length=24, seed=5)


@pytest.fixture
def slow_rows():
    """Register the ``slow-rows`` solver for one test; yields the rows it solved.

    It is the CDCL solver with every batched row made ``delay`` seconds
    (default 0.15) slower, solved one row at a time, so the test sees how
    many rows a run got through.
    """
    from repro.api.registry import SOLVERS, register_solver

    solved: list[tuple[int, ...]] = []

    class SlowRows(CDCLSolver):
        def __init__(self, delay: float = 0.15):
            super().__init__()
            self.delay = delay

        def solve_batch(self, assumption_rows, cnf=None, budget=None, trace=None):
            results = []
            for row in assumption_rows:
                time.sleep(self.delay)
                results += super().solve_batch([row], cnf=cnf, budget=budget, trace=trace)
                solved.append(tuple(row))
            return results

    register_solver("slow-rows", description="CDCL with slow batched rows (tests)")(SlowRows)
    yield solved
    SOLVERS.unregister("slow-rows")


@pytest.fixture
def no_process_pool(monkeypatch):
    """Make every worker process unstartable, so ``ProcessExecutor`` degrades to threads.

    A short interpreter switch interval makes those threads interleave often.
    """
    from repro.runner.scheduler import ProcessExecutor

    def refuse(*args, **kwargs):
        raise OSError("process pools are disabled in this test")

    monkeypatch.setattr(ProcessExecutor, "_spawn", refuse)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
