"""The two PDSAT modes, pinned output for output.

``tests/data/mode_outputs_geffe_tiny.json`` holds what both modes produced on
geffe-tiny (seed 1) before each mode's loop was written once:

* the estimating mode: :class:`~repro.core.predictive.PredictiveFunction` in
  each of its four row engines (fresh, incremental, ``batch_size=8`` and
  ``"units"``) under each sample-cache setting (the default, off, and an
  evicting capacity of 4), over two successive evaluations of different
  decomposition sets and an ``exhaustive_value`` at ``d = 4``: every
  observation's status, cost and ``cached`` flag, ``F``, the counters, the
  accumulated conflict activity and the cache's LRU order;
* the solving mode: ``Experiment.solve`` with a checkpoint file on the
  ``serial``, ``process-pool`` (2 processes) and ``simulated-cluster`` (4
  cores) backends: status, summary, result data, progress events and the
  final checkpoint's records.

Wall-clock fields, the checkpoint's temporary path and the scheduler's
retired ``steals`` counter are left out; everything else must match exactly.
Serial chunks are sized from their pace, so the solving runs fix the inline
chunk time as the ``untimed_chunks`` fixture of ``tests/test_runner.py`` does.

Regenerate the file only when an output is meant to change::

    PYTHONPATH=src python tests/test_mode_outputs.py > tests/data/mode_outputs_geffe_tiny.json
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.api import Experiment, ExperimentConfig
from repro.api.backends import SerialBackend
from repro.api.specs import BackendSpec, InstanceSpec
from repro.core.decomposition import DecompositionSet
from repro.core.pdsat import PDSAT
from repro.core.predictive import PredictiveFunction
from repro.sat.cdcl import CDCLSolver
from repro.sat.solver import SolverStatus

DATA = Path(__file__).parent / "data" / "mode_outputs_geffe_tiny.json"

INSTANCE = InstanceSpec(cipher="geffe-tiny", seed=1)

ENGINES = {
    "fresh": {},
    "incremental": {"incremental": True},
    "batch8": {"batch_size": 8},
    "units": {"substitution_mode": "units"},
}

CACHES = {
    "default": {},
    "off": {"sample_cache_size": None},
    "evicting": {"sample_cache_size": 4},
}

BACKENDS = {
    "serial": BackendSpec(name="serial"),
    "process-pool": BackendSpec(name="process-pool", options={"processes": 2}),
    "simulated-cluster": BackendSpec(name="simulated-cluster", options={"cores": 4}),
}

#: Keys that depend on the machine or the run, not on the code.
_UNPINNED_DATA = ("wall_time", "checkpoint_path")
_UNPINNED_METADATA = ("steals", "executor_fallback")


def estimator_outputs(engine: str, cache: str) -> dict:
    """Two evaluations and one exhaustive value on one evaluator."""
    instance = INSTANCE.build()
    start = instance.start_set
    evaluator = PredictiveFunction(
        instance.cnf, sample_size=20, seed=3, **ENGINES[engine], **CACHES[cache]
    )
    evaluations = []
    # d = 3 with N = 20 repeats cells (and evicts from a 4-entry cache); the
    # overlapping second set reuses the solver's history.
    for variables in (start[:3], start[2:6]):
        result = evaluator.evaluate(variables)
        evaluations.append(
            {
                "observations": [
                    [o.status.value, o.cost, o.cached] for o in result.observations
                ],
                "value": result.value,
            }
        )
    total, costs = evaluator.exhaustive_value(start[2:6])
    return {
        "evaluations": evaluations,
        "exhaustive": {"total": total, "costs": costs},
        "counters": {
            "num_solver_calls": evaluator.num_solver_calls,
            "num_subproblem_solves": evaluator.num_subproblem_solves,
            "sample_cache_hits": evaluator.sample_cache_hits,
        },
        "accumulated_activity": sorted(
            [var, act] for var, act in evaluator.accumulated_activity.items()
        ),
        "cache_order": [list(key) for key in evaluator._sample_cache],
    }


def solve_outputs(backend: str, directory: str) -> dict:
    """``Experiment.solve`` of the family of variables 1-6, checkpointed."""
    path = Path(directory) / f"{backend}.ckpt"
    events = []
    config = ExperimentConfig(
        instance=INSTANCE, backend=BACKENDS[backend], checkpoint_path=str(path)
    )
    result = Experiment(config, progress=events.append).solve(decomposition=range(1, 7))
    data = {key: value for key, value in result.data.items() if key not in _UNPINNED_DATA}
    data["backend_metadata"] = {
        key: value
        for key, value in data["backend_metadata"].items()
        if key not in _UNPINNED_METADATA
    }
    checkpoint = json.loads(path.read_text())
    for record in checkpoint["results"].values():
        record.pop("wall_time", None)
    return {
        "status": result.status,
        "summary": result.summary,
        "data": data,
        "events": [[e.phase, e.completed, e.total, e.message] for e in events],
        "checkpoint": checkpoint,
    }


def snapshot() -> dict:
    """Every pinned output, in the layout of the data file."""
    import repro.api.backends as backends

    backends._INLINE_CHUNK_SECONDS = 1e9
    with tempfile.TemporaryDirectory() as directory:
        return {
            "estimator": {
                f"{engine}/{cache}": estimator_outputs(engine, cache)
                for engine in ENGINES
                for cache in CACHES
            },
            "solve": {backend: solve_outputs(backend, directory) for backend in BACKENDS},
        }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(DATA.read_text())


def _json_plain(value):
    """``value`` as the data file stores it (tuples become lists)."""
    return json.loads(json.dumps(value))


@pytest.mark.parametrize("cache", sorted(CACHES))
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_estimator_outputs_match_the_pinned_ones(pinned, engine, cache):
    expected = pinned["estimator"][f"{engine}/{cache}"]
    assert _json_plain(estimator_outputs(engine, cache)) == expected


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_experiment_solve_outputs_match_the_pinned_ones(
    pinned, backend, tmp_path, monkeypatch
):
    import repro.api.backends as backends

    monkeypatch.setattr(backends, "_INLINE_CHUNK_SECONDS", 1e9)
    assert _json_plain(solve_outputs(backend, str(tmp_path))) == pinned["solve"][backend]


def test_non_batched_engines_never_call_solve_batch(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("solve_batch called by a non-batched engine")

    monkeypatch.setattr(CDCLSolver, "solve_batch", refuse)
    for engine in ("fresh", "incremental", "units"):
        estimator_outputs(engine, "evicting")


@pytest.mark.parametrize("stop_on_sat", [False, True], ids=["whole-family", "stop-on-sat"])
def test_pdsat_solve_family_equals_fresh_solves(stop_on_sat):
    """The default family path answers every row as a fresh solve would."""
    instance = INSTANCE.build()
    decomposition = list(range(1, 7))
    expected = []
    for assignment in DecompositionSet.of(decomposition).all_assignments():
        result = CDCLSolver().solve(instance.cnf, assumptions=assignment.to_literals())
        expected.append(
            (result.status, result.stats.cost("propagations"), result.model if result.is_sat else None)
        )
        if stop_on_sat and result.is_sat:
            break
    report = PDSAT(instance, sample_size=5).solve_family(decomposition, stop_on_sat=stop_on_sat)
    statuses = [status for status, _, _ in expected]
    assert report.statuses == statuses
    assert report.costs == [cost for _, cost, _ in expected]
    assert report.satisfying_models == [model for _, _, model in expected if model is not None]
    assert report.first_sat_index == statuses.index(SolverStatus.SAT)
    assert report.stopped_early is stop_on_sat
    assert len(report.costs) == (report.first_sat_index + 1 if stop_on_sat else 64)


def test_backend_without_checkpoint_keywords_is_refused(tmp_path):
    """A checkpointed solve on a backend whose ``run`` cannot resume fails cleanly."""
    from repro.api.registry import BACKENDS, register_backend

    @register_backend("no-checkpoint", description="a backend that cannot resume (tests)")
    class NoCheckpoint:
        name = "no-checkpoint"

        def run(self, cnf, assumption_vectors, solver=None, cost_measure="propagations",
                budget=None, stop_on_sat=False, progress=None):
            return SerialBackend().run(
                cnf, assumption_vectors, solver=solver, cost_measure=cost_measure,
                budget=budget, stop_on_sat=stop_on_sat, progress=progress,
            )

    try:
        config = ExperimentConfig(
            instance=INSTANCE,
            backend=BackendSpec(name="no-checkpoint"),
            checkpoint_path=str(tmp_path / "family.ckpt"),
        )
        with pytest.raises(ValueError, match="does not accept .*checkpoint"):
            Experiment(config).solve(decomposition=(1, 2, 3))
        assert not (tmp_path / "family.ckpt").exists()
        unchecked = Experiment(config.replace(checkpoint_path=None)).solve(decomposition=(1, 2, 3))
        assert len(unchecked.data["statuses"]) == 8
    finally:
        BACKENDS.unregister("no-checkpoint")


if __name__ == "__main__":
    # One compact line per pinned case, so a regenerated file diffs by case.
    sections = []
    for section, cases in snapshot().items():
        lines = ",\n".join(
            f"  {json.dumps(name)}: {json.dumps(case, sort_keys=True, separators=(',', ':'))}"
            for name, case in cases.items()
        )
        sections.append(f"{json.dumps(section)}: {{\n{lines}\n}}")
    sys.stdout.write("{\n" + ",\n".join(sections) + "\n}\n")
