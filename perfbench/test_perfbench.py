"""Tests of the benchmark itself: span arithmetic, percentiles, failure
accounting, host-speed probes, and a tiny-size run of every workload.

Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import spans
from tally import Tally, median, percentile, tail_percentile

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def span(id, name, start, end, parent=None):
    return spans.Span(id=id, name=name, parent=parent, start=start, end=end)


# ------------------------------------------------------------------ self times
def test_self_time_subtracts_nested_children():
    root = span(1, "job", 0.0, 10.0)
    children = [span(2, "a", 1.0, 3.0, 1), span(3, "b", 5.0, 6.0, 1)]
    assert spans.self_time(root, children) == pytest.approx(7.0)


def test_self_time_counts_overlapping_children_once():
    root = span(1, "round", 0.0, 10.0)
    children = [span(2, "x", 1.0, 4.0, 1), span(3, "x", 2.0, 6.0, 1), span(4, "x", 5.0, 7.0, 1)]
    assert spans.self_time(root, children) == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent_interval():
    root = span(1, "job", 2.0, 6.0)
    children = [span(2, "x", 0.0, 3.0, 1), span(3, "x", 5.0, 9.0, 1)]
    assert spans.self_time(root, children) == pytest.approx(2.0)


def test_summarize_busy_counts_only_outermost_spans_of_a_layer():
    trace = [
        span(1, "job", 0.0, 10.0),
        span(2, "cdcl", 1.0, 5.0, 1),
        span(3, "cdcl", 2.0, 3.0, 2),  # nested in the same layer
        span(4, "batch", 6.0, 9.0, 1),
        span(5, "cdcl", 7.0, 8.0, 4),  # outermost cdcl below another layer
    ]
    totals = spans.summarize(trace)
    assert totals["cdcl"].calls == 2
    assert totals["cdcl"].busy_s == pytest.approx(5.0)
    assert totals["cdcl"].self_s == pytest.approx(3.0 + 1.0 + 1.0)
    assert totals["batch"].self_s == pytest.approx(2.0)
    assert totals["job"].self_s == pytest.approx(3.0)


def test_recorder_parents_spans_per_thread_and_round_trips():
    recorder = spans.Recorder()
    with recorder.span("job") as root:
        with recorder.span("cdcl") as inner:
            pass
    assert inner.parent == root.id and root.parent is None
    assert spans.spans_from_list(recorder.to_list()) == recorder.spans


def test_install_wraps_and_uninstall_restores():
    from repro.sat.cdcl.solver import CDCLSolver
    from repro.sat.formula import CNF

    original = CDCLSolver.__dict__["solve"]
    recorder = spans.Recorder()
    uninstall = spans.install(recorder)
    try:
        CDCLSolver().solve(CNF([(1, 2), (-1,)]))
    finally:
        uninstall()
    assert CDCLSolver.__dict__["solve"] is original
    (solve,) = [s for s in recorder.spans if "propagations" in s.counts]
    assert solve.name == "cdcl" and solve.counts["propagations"] >= 1


# ----------------------------------------------------------------- percentiles
def test_tail_percentile_picks_the_highest_with_ten_samples_beyond():
    assert tail_percentile(list(range(100))) == (90.0, pytest.approx(89.1))
    assert tail_percentile(list(range(1000)))[0] == 99.0
    assert tail_percentile(list(range(40)))[0] == 75.0
    assert tail_percentile(list(range(19))) is None


def test_percentile_interpolates_and_counts_failures_as_infinite():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)
    assert median([3.0, 1.0, 2.0]) == 2.0
    latencies = [1.0] * 8 + [math.inf] * 2
    assert median(latencies) == 1.0
    assert percentile(latencies, 90.0) == math.inf


# ----------------------------------------------------------- failure accounting
def test_tally_counts_each_failed_operation_once_with_its_reasons():
    tally = Tally()
    assert tally.record("jobs", [])
    assert not tally.record("jobs", ["state failed", "no result"])
    tally.add("subproblems", 64, 3)
    assert tally.attempted == {"jobs": 2, "subproblems": 64}
    assert tally.failed == {"jobs": 1, "subproblems": 3}
    assert (tally.total_attempted, tally.total_failed) == (66, 4)
    assert tally.reasons == ["jobs: state failed; no result"]


# ----------------------------------------------------------- host-speed probes
def test_probes_split_a_call_at_dispatch_and_correct_each_phase():
    from repro.api import ProgressEvent
    from workloads import JobProbes

    probes = JobProbes()
    for _ in range(3):
        probes(ProgressEvent(phase="estimate"))
    probes(ProgressEvent(phase="solve", total=64))  # the family is dispatched
    for completed in range(1, 65):
        probes(ProgressEvent(phase="solve", completed=completed, total=64))
    assert len(probes.probes["call"]) == 4
    assert len(probes.probes["pool"]) == 64 // JobProbes.POOL_EVERY
    assert probes.dispatched_at is not None and probes.paused_s > 0
    probes.probes["pool"] = [hostspeed.PROBE_S / 2] * 2
    assert probes.scale("pool", "call") == pytest.approx(2.0)
    assert probes.scale("hits", "call") == probes.scale("call")
    assert JobProbes(enabled=False).scale("call") == 1.0


# ------------------------------------------------------------------ smoke runs
#: Layer metrics that must be non-zero on a workload: a wrapped entry point
#: that stops being the path the program takes would read 0 here.
RUNS_ON = {
    "estimate": ["problems.busy_s", "cdcl.calls", "cdcl.propagations",
                 "predictive.evaluations", "tabu.self_s", "experiment.self_s"],
    "run": ["problems.busy_s", "simplify.busy_s", "batch.calls", "batch.rows",
            "predictive.evaluations", "tabu.self_s", "runner.dispatches",
            "runner.worker_solve_s", "experiment.self_s"],
    "service": ["service.exec_s", "service.journal_bytes", "service.checkpoint_bytes",
                "service.hit_ratio", "cdcl.calls", "runner.dispatches"],
}
#: Layers that must not run on a workload.
IDLE_ON = {
    "estimate": ["batch.calls", "simplify.busy_s", "runner.dispatches", "runner.busy_s",
                 "service.exec_s"],
    "run": ["service.exec_s", "service.journal_bytes"],
}


def test_without_the_program_it_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "estimate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def run_bench(workload, trace):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    if trace:
        assert values["trace_overhead"] > 0
        for name in RUNS_ON[workload]:
            assert values[name] > 0, (name, values)
        for name in IDLE_ON.get(workload, ()):
            assert values[name] == 0, (name, values)
    else:
        assert all(value > 0 for value in values.values()), values

