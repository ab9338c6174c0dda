"""Tests for the observability subsystem: binary traces and their toolkit.

Four layers are covered, mirroring the package structure:

* the **codec** (:mod:`repro.trace.format`) — randomized roundtrips, every
  error path (magic, version, truncation, dangling string refs) and the
  million-event size budget (≤ 8 bytes/event);
* the **instrumentation** — for the CDCL solver, the preprocessor and the
  scheduler, the event stream must agree *exactly* with the subsystem's own
  statistics counters (traces are evidence, so they must not drift from the
  numbers the rest of the system reports);
* **determinism and diffing** — identically-seeded runs produce byte-identical
  trace files and a zero-divergence diff, while a config-knob change is
  pinpointed at its first divergent event;
* the **zero-overhead contract** — the arena hot loop carries exactly three
  strippable ``# trace-hook`` lines and a hook-stripped build propagates
  bit-identical closures; the companion wall-clock budget (disabled tracing
  costs ≤ 5 %) is timing-sensitive and therefore lives in the perf-smoke
  lane (``benchmarks/bench_tracing_overhead.py``), not in tier-1.
"""

from __future__ import annotations

import inspect
import io
import json
import random
import textwrap

import pytest

from repro.sat.cdcl import CDCLSolver
from repro.sat.cdcl.config import CDCLConfig
from repro.sat.formula import CNF
from repro.sat.random_cnf import random_ksat
from repro.sat.simplify import Preprocessor
from repro.sat.solver import SolverBudget, SolverStats
from repro.trace import (
    diff_traces,
    read_trace,
    record_estimate,
    record_simplify,
    record_solve,
    summarize_trace,
)
from repro.trace.analysis import format_summary
from repro.trace.diff import format_diff
from repro.trace.export import export_trace, export_trace_string
from repro.trace.format import (
    EVENT_TASK_DISPATCH,
    FORMAT_VERSION,
    MAGIC,
    PRE_RULES,
    TraceFormatError,
    TraceReader,
    TraceTruncatedError,
    TraceVersionError,
    TraceWriter,
    cnf_fingerprint,
)


def _reread(buffer: io.BytesIO):
    """Decode a trace written into a BytesIO (writer flushed, not closed)."""
    return read_trace(io.BytesIO(buffer.getvalue()))


def _event_counts(events) -> dict[str, int]:
    counts: dict[str, int] = {}
    for event in events:
        counts[event.name] = counts.get(event.name, 0) + 1
    return counts


# ---------------------------------------------------------------------- codec
class TestCodecRoundtrip:
    def test_header_roundtrip(self):
        buffer = io.BytesIO()
        config = {"solver": "cdcl", "options": {"restart_base": 50}}
        meta = {"num_vars": 12, "num_clauses": 40}
        with TraceWriter(
            buffer, kind="solve", fingerprint="deadbeef01234567",
            config=config, meta=meta,
        ):
            pass
        header, events = _reread(buffer)
        assert events == []
        assert header.version == FORMAT_VERSION
        assert header.kind == "solve"
        assert header.fingerprint == "deadbeef01234567"
        assert header.config == config
        assert header.meta == meta

    def test_randomized_event_stream_roundtrips_exactly(self):
        rng = random.Random(1234)
        buffer = io.BytesIO()
        writer = TraceWriter(buffer, kind="fuzz")
        expected: list[tuple[str, tuple]] = []
        conflicts = 0
        last_time_us = 0
        tasks = [f"task-{i}" for i in range(7)]
        outcomes = ["success", "error", "timeout"]
        for _ in range(4000):
            choice = rng.randrange(12)
            if choice == 0:
                lit = rng.randint(-(10**7), 10**7)
                writer.decide(lit)
                expected.append(("DECIDE", (lit,)))
            elif choice == 1:
                lits = [rng.randint(-4000, 4000) for _ in range(rng.randint(0, 6))]
                writer.enqueue_all(lits)
                expected.extend(("ENQUEUE", (lit,)) for lit in lits)
            elif choice == 2:
                lit = rng.randint(-99, 99)
                writer.enqueue(lit)
                expected.append(("ENQUEUE", (lit,)))
            elif choice == 3:
                level = rng.randint(0, 500)
                writer.conflict(level)
                expected.append(("CONFLICT", (level,)))
            elif choice == 4:
                lbd, size = rng.randint(1, 30), rng.randint(1, 60)
                writer.learn(lbd, size)
                expected.append(("LEARN", (lbd, size)))
            elif choice == 5:
                to_level = rng.randint(0, 100)
                from_level = to_level + rng.randint(0, 50)
                writer.backtrack(from_level, to_level)
                expected.append(("BACKTRACK", (from_level, to_level)))
            elif choice == 6:
                conflicts += rng.randint(0, 300)
                writer.restart(conflicts)
                expected.append(("RESTART", (conflicts,)))
            elif choice == 7:
                deleted, remaining = rng.randint(0, 99), rng.randint(0, 99)
                writer.reduce(deleted, remaining)
                expected.append(("REDUCE", (deleted, remaining)))
                before = rng.randint(0, 10**6)
                after = rng.randint(0, before)
                writer.arena_gc(before, after)
                expected.append(("ARENA_GC", (before, after)))
            elif choice == 8:
                round_index = rng.randint(1, 9)
                num_vars = rng.randint(0, 500)
                num_clauses = rng.randint(0, 2000)
                writer.pre_round(round_index, num_vars, num_clauses)
                expected.append(("PRE_ROUND", (round_index, num_vars, num_clauses)))
            elif choice == 9:
                rule = rng.choice(PRE_RULES)
                count = rng.randint(1, 40)
                writer.pre_rule(rule, count)
                expected.append(("PRE_RULE", (rule, count)))
            elif choice == 10:
                task = rng.choice(tasks)
                seq = rng.randint(1, 10**4)
                writer.task_dispatch(task, seq)
                expected.append(("TASK_DISPATCH", (task, seq)))
                if rng.random() < 0.3:
                    attempt = rng.randint(1, 5)
                    writer.task_retry(task, attempt)
                    expected.append(("TASK_RETRY", (task, attempt)))
            else:
                task = rng.choice(tasks)
                outcome = rng.choice(outcomes)
                time_s = rng.random() * 100.0
                duration_s = rng.random()
                writer.task_complete(task, outcome, time_s, duration_s)
                # Replicate the writer's microsecond quantisation: the reader
                # reconstructs the stored (rounded) absolute value exactly.
                time_us = int(round(time_s * 1e6))
                duration_us = max(0, int(round(duration_s * 1e6)))
                expected.append(("TASK_COMPLETE", (task, outcome, time_us, duration_us)))
                last_time_us = time_us
        writer.close()
        header, events = _reread(buffer)
        assert header.kind == "fuzz"
        assert [(event.name, event.args) for event in events] == expected

    def test_enqueue_all_equals_individual_enqueues(self):
        lits = [3, -7, 120, -1, 0, 99999, -99999]
        one = io.BytesIO()
        with TraceWriter(one) as writer:
            writer.enqueue_all(lits)
        other = io.BytesIO()
        with TraceWriter(other) as writer:
            for lit in lits:
                writer.enqueue(lit)
        assert one.getvalue() == other.getvalue()
        _, events = _reread(one)
        assert [event.args[0] for event in events] == lits


class TestCodecErrors:
    @staticmethod
    def _header_bytes(**kwargs) -> bytes:
        buffer = io.BytesIO()
        with TraceWriter(buffer, **kwargs):
            pass
        return buffer.getvalue()

    def test_bad_magic_raises_format_error(self):
        with pytest.raises(TraceFormatError, match="bad magic"):
            TraceReader(io.BytesIO(b"NOPE" + b"\x00" * 16))

    def test_empty_file_raises_format_error(self):
        with pytest.raises(TraceFormatError):
            TraceReader(io.BytesIO(b""))

    def test_future_version_raises_version_error(self):
        blob = b"{}"
        data = MAGIC + bytes([FORMAT_VERSION + 1]) + bytes([len(blob)]) + blob
        with pytest.raises(TraceVersionError, match="not supported"):
            TraceReader(io.BytesIO(data))

    def test_header_cut_short_raises_truncated_error(self):
        data = self._header_bytes()
        with pytest.raises(TraceTruncatedError):
            TraceReader(io.BytesIO(data[: len(data) // 2]))

    def test_corrupt_header_json_raises_format_error(self):
        blob = b"{not json"
        data = MAGIC + bytes([FORMAT_VERSION]) + bytes([len(blob)]) + blob
        with pytest.raises(TraceFormatError, match="corrupt trace header"):
            TraceReader(io.BytesIO(data))

    def test_event_cut_inside_varint_raises_truncated_error(self):
        buffer = io.BytesIO()
        with TraceWriter(buffer) as writer:
            writer.decide(123456789)  # multi-byte varint payload
        data = buffer.getvalue()
        reader = TraceReader(io.BytesIO(data[:-1]))
        with pytest.raises(TraceTruncatedError):
            list(reader.events())

    def test_string_record_cut_short_raises_truncated_error(self):
        buffer = io.BytesIO()
        with TraceWriter(buffer) as writer:
            writer.task_dispatch("a-rather-long-task-identifier", 1)
        data = buffer.getvalue()
        header_len = len(self._header_bytes())
        # Cut inside the STRDEF payload (well before the dispatch record).
        reader = TraceReader(io.BytesIO(data[: header_len + 6]))
        with pytest.raises(TraceTruncatedError):
            list(reader.events())

    def test_unknown_event_code_raises_format_error(self):
        data = self._header_bytes() + bytes([200])
        reader = TraceReader(io.BytesIO(data))
        with pytest.raises(TraceFormatError, match="unknown event code"):
            list(reader.events())

    def test_undefined_string_reference_raises_format_error(self):
        # A TASK_DISPATCH referencing string-table slot 5 with no STRDEF.
        data = self._header_bytes() + bytes([EVENT_TASK_DISPATCH, 5, 1])
        reader = TraceReader(io.BytesIO(data))
        with pytest.raises(TraceFormatError, match="string-table reference"):
            list(reader.events())

    def test_every_truncation_point_raises_cleanly(self):
        # Chopping the stream at *any* byte inside the event section must
        # either decode a clean prefix or raise TraceTruncatedError — never
        # yield garbage or an unrelated exception.
        buffer = io.BytesIO()
        with TraceWriter(buffer) as writer:
            writer.task_dispatch("tail-task", 7)
            writer.decide(-1234)
            writer.restart(500)
            writer.task_complete("tail-task", "success", 1.5, 0.25)
        data = buffer.getvalue()
        header_len = len(self._header_bytes())
        full = [(e.name, e.args) for e in TraceReader(io.BytesIO(data)).events()]
        for cut in range(header_len, len(data)):
            reader = TraceReader(io.BytesIO(data[:cut]))
            try:
                prefix = [(e.name, e.args) for e in reader.events()]
            except TraceTruncatedError:
                continue
            assert prefix == full[: len(prefix)]


class TestMillionEventBudget:
    def test_million_events_fit_in_eight_bytes_each(self):
        rng = random.Random(7)
        buffer = io.BytesIO()
        writer = TraceWriter(buffer, kind="smoke")
        header_size = len(buffer.getvalue()) + len(writer._buf)
        target = 1_000_000
        batch = [rng.randint(-3000, 3000) for _ in range(1000)]
        while writer.event_count < target:
            writer.enqueue_all(batch)
            writer.decide(rng.randint(-3000, 3000))
            writer.conflict(rng.randint(0, 64))
            writer.learn(rng.randint(1, 20), rng.randint(1, 40))
        writer.close()
        total = len(buffer.getvalue())
        per_event = (total - header_size) / writer.event_count
        assert writer.event_count >= target
        assert per_event <= 8.0, f"{per_event:.2f} bytes/event exceeds the budget"
        # The stream must also decode end to end.
        decoded = sum(1 for _ in TraceReader(io.BytesIO(buffer.getvalue())).events())
        assert decoded == writer.event_count


# ------------------------------------------------------------- instrumentation
def _traced_solve(solver, cnf, **kwargs):
    buffer = io.BytesIO()
    writer = TraceWriter(buffer)
    result = solver.solve(cnf, trace=writer, **kwargs)
    writer.close()
    _, events = _reread(buffer)
    return result, events


class TestSolverInstrumentation:
    #: Past the phase transition (UNSAT) with a small restart budget, so
    #: conflicts, learning, backtracking *and* restarts all occur.
    CNF_ARGS = (60, 276)

    @pytest.mark.parametrize("engine", [CDCLSolver])
    def test_event_counts_equal_stats_counters(self, engine):
        cnf = random_ksat(*self.CNF_ARGS, k=3, seed=11)
        solver = engine(CDCLConfig(restart_base=16))
        result, events = _traced_solve(solver, cnf)
        counts = _event_counts(events)
        stats = result.stats
        assert counts.get("DECIDE", 0) == stats.decisions
        assert counts.get("ENQUEUE", 0) == stats.propagations
        assert counts.get("CONFLICT", 0) == stats.conflicts
        assert counts.get("RESTART", 0) == stats.restarts
        learned = sum(1 for e in events if e.name == "LEARN" and e.args[1] > 1)
        assert learned == stats.learned_clauses
        assert counts.get("SOLVE", 0) == 1
        assert stats.conflicts > 0 and stats.restarts > 0  # workload is real

    @pytest.mark.parametrize("engine", [CDCLSolver])
    def test_restart_conflict_counters_are_monotone(self, engine):
        cnf = random_ksat(*self.CNF_ARGS, k=3, seed=11)
        _, events = _traced_solve(engine(CDCLConfig(restart_base=16)), cnf)
        at_restart = [e.args[0] for e in events if e.name == "RESTART"]
        assert at_restart == sorted(at_restart)
        assert all(b > a for a, b in zip(at_restart, at_restart[1:]))

    def test_persistent_trace_spans_incremental_solve_calls(self):
        cnf = random_ksat(20, 80, k=3, seed=4)
        buffer = io.BytesIO()
        writer = TraceWriter(buffer)
        solver = CDCLSolver().load(cnf)
        solver.trace = writer
        for assumptions in ([], [1], [-1, 2]):
            solver.solve(assumptions=assumptions)
        writer.close()
        _, events = _reread(buffer)
        solves = [e for e in events if e.name == "SOLVE"]
        assert len(solves) == 3
        seqs = [e.args[0] for e in solves]
        assert seqs == sorted(seqs) and len(set(seqs)) == 3
        assert [e.args[1] for e in solves] == [0, 1, 2]

    def test_backtrack_events_never_increase_the_level(self):
        cnf = random_ksat(*self.CNF_ARGS, k=3, seed=11)
        _, events = _traced_solve(CDCLSolver(), cnf)
        jumps = [e.args for e in events if e.name == "BACKTRACK"]
        assert jumps and all(frm >= to for frm, to in jumps)


class TestPreprocessorInstrumentation:
    @staticmethod
    def _record(cnf, **options):
        buffer = io.BytesIO()
        writer = TraceWriter(buffer, kind="simplify")
        result = Preprocessor(**options).preprocess(cnf, trace=writer)
        writer.close()
        _, events = _reread(buffer)
        return result, events

    def test_round_events_match_stats_rounds(self):
        cnf = random_ksat(30, 100, k=3, seed=3)
        cnf = CNF(list(cnf.clauses) + [(5,), (-5, 9)], cnf.num_vars)
        result, events = self._record(cnf)
        rounds = [e for e in events if e.name == "PRE_ROUND"]
        assert len(rounds) == result.stats.rounds
        assert len(rounds) >= 1
        # Clause counts at round entry never grow between rounds.
        clause_counts = [e.args[2] for e in rounds]
        assert clause_counts == sorted(clause_counts, reverse=True)

    def test_rule_event_totals_equal_stats_counters(self):
        cnf = random_ksat(30, 100, k=3, seed=3)
        cnf = CNF(list(cnf.clauses) + [(5,), (-5, 9)], cnf.num_vars)
        result, events = self._record(cnf)
        totals = {rule: 0 for rule in PRE_RULES}
        for event in events:
            if event.name == "PRE_RULE":
                totals[event.args[0]] += event.args[1]
        for rule, counter in zip(PRE_RULES, Preprocessor._TRACE_RULE_COUNTERS):
            assert totals[rule] == getattr(result.stats, counter), rule
        assert sum(totals.values()) > 0  # the workload actually simplified

    def test_refuted_instance_still_produces_a_readable_trace(self):
        result, events = self._record(CNF([(1,), (-1, 2), (-2,)]))
        assert result.unsat
        assert any(e.name == "PRE_ROUND" for e in events)


class TestSchedulerInstrumentation:
    @staticmethod
    def _traced_family(cnf, variables, **cluster_options):
        """Solve the family of ``variables`` on the simulated cluster, traced."""
        from repro.api.backends import SimulatedClusterBackend
        from repro.core.decomposition import DecompositionSet

        vectors = [a.to_literals() for a in DecompositionSet.of(variables).all_assignments()]
        buffer = io.BytesIO()
        writer = TraceWriter(buffer, kind="solve")
        run = SimulatedClusterBackend(**cluster_options).run(cnf, vectors, trace=writer)
        writer.close()
        return run, _reread(buffer)[1]

    def test_dispatch_and_complete_counts_match_run_metadata(self):
        run, events = self._traced_family(random_ksat(20, 60, k=3, seed=2), [1, 2, 3], cores=3)
        counts = _event_counts(events)
        stats = run.metadata
        assert counts.get("TASK_DISPATCH", 0) == stats["dispatches"] > 0
        assert counts.get("TASK_COMPLETE", 0) == stats["dispatches"]
        assert counts.get("TASK_RETRY", 0) == stats["retries"] == 0
        seqs = [e.args[1] for e in events if e.name == "TASK_DISPATCH"]
        assert seqs == list(range(1, len(seqs) + 1))

    def test_retry_events_match_metadata_under_fault_injection(self):
        run, events = self._traced_family(
            random_ksat(20, 60, k=3, seed=2), [1, 2, 3, 4], cores=4,
            crash_rate=0.3, failures_seed=5, max_attempts=None,
        )
        counts = _event_counts(events)
        stats = run.metadata
        assert stats["crashes"] > 0
        assert counts.get("TASK_RETRY", 0) == stats["retries"]
        assert counts.get("TASK_DISPATCH", 0) == stats["dispatches"]
        assert len(run.outcomes) == 16

    def test_virtual_completion_times_are_monotone(self):
        _, events = self._traced_family(random_ksat(18, 54, k=3, seed=6), [1, 2], cores=2)
        times = [e.args[2] for e in events if e.name == "TASK_COMPLETE"]
        assert times and times == sorted(times)


# -------------------------------------------------------- determinism and diff
class TestDeterminismAndDiff:
    CNF = staticmethod(lambda: random_ksat(40, 176, k=3, seed=21))

    def test_identically_seeded_solves_are_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.trc", tmp_path / "b.trc"]
        for path in paths:
            record_solve(self.CNF(), path, budget=SolverBudget(max_conflicts=500))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        diff = diff_traces(paths[0], paths[1])
        assert diff.identical
        assert diff.divergence_index is None
        assert diff.count_deltas == {} and diff.stat_deltas == {}
        assert "identical" in format_diff(diff)

    def test_knob_change_is_pinpointed_at_the_first_divergent_event(self, tmp_path):
        base, tweaked = tmp_path / "base.trc", tmp_path / "tweaked.trc"
        budget = SolverBudget(max_conflicts=500)
        record_solve(self.CNF(), base, budget=budget,
                     solver_options={"restart_base": 100})
        record_solve(self.CNF(), tweaked, budget=budget,
                     solver_options={"restart_base": 8})
        diff = diff_traces(base, tweaked)
        assert not diff.identical
        assert isinstance(diff.divergence_index, int)
        assert diff.event_a is not None or diff.event_b is not None
        assert diff.header_deltas  # the config snapshot records the knob
        assert diff.count_deltas or diff.stat_deltas
        text = format_diff(diff, label_a="base", label_b="tweaked")
        assert f"diverge at event {diff.divergence_index}" in text

    def test_identically_seeded_estimations_are_byte_identical(self, tmp_path):
        cnf = random_ksat(20, 60, k=3, seed=2)
        paths = [tmp_path / "e1.trc", tmp_path / "e2.trc"]
        for path in paths:
            record_estimate(cnf, [1, 2, 3], path, sample_size=8, seed=1, cores=3)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert diff_traces(paths[0], paths[1]).identical

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_recorded_estimate_is_the_evaluators(self, tmp_path, seed):
        # record_estimate solves the evaluator's own sample, one row per
        # simulated-cluster task, and folds it into the evaluator's F.
        from repro.api.specs import InstanceSpec
        from repro.core.predictive import PredictiveFunction

        instance = InstanceSpec(cipher="geffe-tiny", seed=1).build()
        variables = instance.start_set[:6]
        path = tmp_path / "estimate.trc"
        recorded = record_estimate(instance.cnf, variables, path, sample_size=16, seed=seed)
        evaluated = PredictiveFunction(instance.cnf, sample_size=16, seed=seed).evaluate(variables)
        assert recorded.value == evaluated.value
        assert recorded.estimate.half_width == evaluated.estimate.half_width
        assert _event_counts(read_trace(path)[1])["TASK_DISPATCH"] == 16

    def test_identically_configured_family_solves_are_byte_identical(self, tmp_path):
        # The perf-smoke lane's solving-mode pair: the 64-row geffe-tiny
        # family of variables 1-6 on the simulated cluster, whose virtual
        # clock stamps every TASK event (the serial and pool backends stamp
        # wall-clock times).
        from repro.api import BackendSpec, Experiment, ExperimentConfig, InstanceSpec

        paths = [tmp_path / "e.trc", tmp_path / "f.trc"]
        for path in paths:
            config = ExperimentConfig(
                instance=InstanceSpec(cipher="geffe-tiny", seed=1),
                decomposition=tuple(range(1, 7)),
                backend=BackendSpec(name="simulated-cluster", options={"cores": 4}),
                trace=str(path),
            )
            Experiment.from_config(config).run()
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert diff_traces(paths[0], paths[1]).identical
        counts = _event_counts(read_trace(paths[0])[1])
        assert counts["TASK_DISPATCH"] == counts["TASK_COMPLETE"] == 64

    def test_different_instances_show_a_fingerprint_delta(self, tmp_path):
        one, other = tmp_path / "one.trc", tmp_path / "two.trc"
        record_solve(random_ksat(10, 30, k=3, seed=1), one)
        record_solve(random_ksat(10, 30, k=3, seed=2), other)
        diff = diff_traces(one, other)
        assert "fingerprint" in diff.header_deltas


# ------------------------------------------------------------ analysis, export
class TestAnalysis:
    def test_solve_summary_sections_and_counts(self, tmp_path):
        path = tmp_path / "solve.trc"
        cnf = random_ksat(40, 176, k=3, seed=21)
        result = record_solve(cnf, path, budget=SolverBudget(max_conflicts=500))
        summary = summarize_trace(path)
        assert summary["header"]["version"] == FORMAT_VERSION
        assert summary["header"]["fingerprint"] == cnf_fingerprint(cnf)
        assert summary["event_count"] == sum(summary["events"].values())
        solver = summary["solver"]
        assert solver["decisions"] == result.stats.decisions
        assert solver["propagations"] == result.stats.propagations
        assert solver["conflicts"] == result.stats.conflicts
        assert solver["restarts"] == result.stats.restarts
        assert solver["lbd"]["count"] == solver["learned"] + solver["unit_learnts"]
        assert "scheduler" not in summary and "preprocessor" not in summary
        text = format_summary(summary)
        assert "solver:" in text and "events:" in text

    def test_simplify_summary_has_timeline_and_rules(self, tmp_path):
        path = tmp_path / "simplify.trc"
        cnf = random_ksat(30, 100, k=3, seed=3)
        cnf = CNF(list(cnf.clauses) + [(5,), (-5, 9)], cnf.num_vars)
        result = record_simplify(cnf, path)
        summary = summarize_trace(path)
        pre = summary["preprocessor"]
        assert pre["rounds"] == result.stats.rounds
        assert len(pre["timeline"]) == pre["rounds"]
        assert set(pre["rules"]) <= set(PRE_RULES)
        assert "preprocessor: rounds=" in format_summary(summary)

    def test_estimate_summary_has_scheduler_latency(self, tmp_path):
        path = tmp_path / "estimate.trc"
        cnf = random_ksat(20, 60, k=3, seed=2)
        estimation = record_estimate(cnf, [1, 2, 3], path, sample_size=8, seed=1)
        summary = summarize_trace(path)
        sched = summary["scheduler"]
        assert sched["dispatches"] == len(estimation.observations) == 8
        assert sched["task_latency_us"]["count"] == sched["dispatches"]
        assert sched["makespan_us"] > 0
        assert sum(sched["outcomes"].values()) == sched["dispatches"]


class TestExport:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        path = tmp_path / "export.trc"
        record_solve(random_ksat(16, 56, k=3, seed=9), path)
        return path

    def test_jsonl_rows_match_events(self, trace_path, tmp_path):
        out = tmp_path / "trace.jsonl"
        _, events = read_trace(trace_path)
        count = export_trace(trace_path, out, format="jsonl")
        lines = out.read_text().splitlines()
        assert count == len(events) == len(lines)
        first = json.loads(lines[0])
        assert first["index"] == 0 and "event" in first

    def test_csv_has_union_columns(self, trace_path, tmp_path):
        out = tmp_path / "trace.csv"
        count = export_trace(trace_path, out, format="csv")
        lines = out.read_text().splitlines()
        assert len(lines) == count + 1  # header row
        header = lines[0].split(",")
        for column in ("index", "event", "lit", "lbd", "task", "outcome"):
            assert column in header

    def test_unknown_format_raises_value_error(self, trace_path):
        with pytest.raises(ValueError, match="unknown export format"):
            export_trace(trace_path, io.StringIO(), format="xml")

    def test_string_export_matches_file_export(self, trace_path, tmp_path):
        out = tmp_path / "trace.jsonl"
        export_trace(trace_path, out, format="jsonl")
        assert export_trace_string(trace_path, format="jsonl") == out.read_text()


# ---------------------------------------------------------------------- CLI
class TestTraceCli:
    def test_record_stats_diff_export_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "run.trc"
        assert main([
            "trace", "record", "--cipher", "geffe-tiny", "--mode", "solve",
            "--max-conflicts", "300", "--trace-out", str(trace),
        ]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "bytes/event" in out

        assert main(["trace", "stats", str(trace)]) == 0
        assert "events:" in capsys.readouterr().out
        assert main(["trace", "stats", str(trace), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["event_count"] > 0

        csv_out = tmp_path / "run.csv"
        assert main([
            "trace", "export", str(trace), "--format", "csv",
            "--output", str(csv_out),
        ]) == 0
        assert csv_out.exists()
        capsys.readouterr()
        assert main(["trace", "export", str(trace)]) == 0
        first_line = capsys.readouterr().out.splitlines()[0]
        assert json.loads(first_line)["index"] == 0

    def test_diff_exit_codes_gate_determinism(self, tmp_path, capsys):
        from repro.cli import main

        same_a, same_b = tmp_path / "a.trc", tmp_path / "b.trc"
        for path in (same_a, same_b):
            assert main([
                "trace", "record", "--cipher", "geffe-tiny", "--mode", "simplify",
                "--trace-out", str(path),
            ]) == 0
        assert main(["trace", "diff", str(same_a), str(same_b)]) == 0
        assert "identical" in capsys.readouterr().out

        # A different secret seed changes the keystream constants, so the
        # solve trajectory — and therefore the event stream — diverges.
        base, other = tmp_path / "s0.trc", tmp_path / "s5.trc"
        for seed, path in (("0", base), ("5", other)):
            assert main([
                "trace", "record", "--cipher", "geffe-tiny", "--seed", seed,
                "--mode", "solve", "--max-conflicts", "300",
                "--trace-out", str(path),
            ]) == 0
        capsys.readouterr()
        assert main(["trace", "diff", str(base), str(other)]) == 1
        assert "diverge" in capsys.readouterr().out

    def test_record_estimate_mode_from_dimacs_input(self, tmp_path, capsys):
        from repro.cli import main
        from repro.sat.dimacs import write_dimacs_file

        dimacs = tmp_path / "instance.cnf"
        write_dimacs_file(random_ksat(20, 60, k=3, seed=2), dimacs)
        trace = tmp_path / "estimate.trc"
        assert main([
            "trace", "record", "--input", str(dimacs), "--mode", "estimate",
            "--decomposition-size", "3", "--sample-size", "6",
            "--trace-out", str(trace),
        ]) == 0
        out = capsys.readouterr().out
        assert "F =" in out and "wrote" in out
        summary = summarize_trace(trace)
        assert summary["scheduler"]["dispatches"] > 0

    @pytest.mark.parametrize(
        "flag", ["--decomposition-size", "--sample-size", "--cores"]
    )
    def test_record_estimate_refuses_zero_with_one_line_and_no_file(self, tmp_path, flag):
        from repro.cli import main

        trace = tmp_path / "estimate.trc"
        with pytest.raises(SystemExit) as refused:
            main([
                "trace", "record", "--cipher", "geffe-tiny", "--mode", "estimate",
                "--decomposition-size", "3", "--sample-size", "6", flag, "0",
                "--trace-out", str(trace),
            ])
        message = str(refused.value.code)
        assert message and "\n" not in message
        assert not trace.exists()

    def test_stats_on_missing_and_garbage_files_exit_cleanly(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="not found"):
            main(["trace", "stats", str(tmp_path / "absent.trc")])
        garbage = tmp_path / "garbage.trc"
        garbage.write_bytes(b"this is not a trace")
        with pytest.raises(SystemExit, match="unreadable trace"):
            main(["trace", "stats", str(garbage)])
        with pytest.raises(SystemExit, match="unreadable trace"):
            main(["trace", "diff", str(garbage), str(garbage)])

    def test_record_rejects_unknown_solver(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main([
                "trace", "record", "--cipher", "geffe-tiny", "--mode", "solve",
                "--solver", "no-such-solver", "--trace-out", str(tmp_path / "x.trc"),
            ])


# ------------------------------------------------------------ overhead budget
def assumption_vectors(
    variables: list[int], d: int, count: int, seed: int
) -> list[list[int]]:
    """``count`` deterministic random polarity vectors over the first ``d`` variables.

    Shared by the closure check below and by the wall-clock overhead gate in
    ``benchmarks/bench_tracing_overhead.py``.
    """
    chosen = variables[:d]
    rng = random.Random(seed)
    return [[v if rng.random() < 0.5 else -v for v in chosen] for _ in range(count)]


def make_stripped_solver_class():
    """A ``CDCLSolver`` subclass whose ``_propagate`` has the trace hooks
    physically removed (the ``# trace-hook`` tagged lines).

    Shared by the structural tier-1 checks below and by the wall-clock
    overhead gate in ``benchmarks/bench_tracing_overhead.py``.
    """
    from repro.sat.cdcl import solver as solver_module

    source = textwrap.dedent(inspect.getsource(solver_module.CDCLSolver._propagate))
    stripped_lines = [
        line for line in source.splitlines() if "# trace-hook" not in line
    ]
    assert len(stripped_lines) == len(source.splitlines()) - 3, (
        "the arena hot loop must carry exactly 3 tagged trace-hook lines"
    )
    namespace = dict(vars(solver_module))
    exec(compile("\n".join(stripped_lines), "<stripped>", "exec"), namespace)
    stripped_propagate = namespace["_propagate"]

    class StrippedSolver(solver_module.CDCLSolver):
        pass

    StrippedSolver._propagate = stripped_propagate
    return StrippedSolver


class TestDisabledTracingOverhead:
    """Structural half of the zero-overhead contract (deterministic, tier-1).

    The wall-clock budget — disabled tracing must cost ≤5% propagation
    throughput against a hook-stripped build — asserts a timing *ratio* and
    therefore flakes under CI machine load.  That assertion lives in the
    perf-smoke lane (``benchmarks/bench_tracing_overhead.py``, run next to
    the BENCH gates); tier-1 keeps only what is bit-reproducible: the hook
    lines are present, taggable and strippable, and a stripped build
    propagates the exact same closures.
    """

    def test_hot_loop_carries_exactly_three_tagged_hook_lines(self):
        from repro.sat.cdcl import solver as solver_module

        source = textwrap.dedent(
            inspect.getsource(solver_module.CDCLSolver._propagate)
        )
        tagged = [line for line in source.splitlines() if "# trace-hook" in line]
        assert len(tagged) == 3
        # Every tagged line must concern the trace sink only — stripping it
        # may not change the untraced semantics.
        assert all("trace" in line.split("#")[0] for line in tagged)

    def test_stripped_build_propagates_identical_closures(self):
        """Hook-stripped and instrumented builds must agree propagation by
        propagation on identical assumption vectors (counts, not timings)."""
        from repro.api.registry import get_cipher
        from repro.problems import make_inversion_instance
        from repro.sat.cdcl import solver as solver_module
        from repro.sat.cdcl.solver import _ilit

        StrippedSolver = make_stripped_solver_class()
        instance = make_inversion_instance(get_cipher("a51-tiny")(), seed=3)
        vectors = assumption_vectors(list(instance.start_set), 8, 50, seed=42)
        cnf = instance.cnf

        def propagation_counts(solver_cls) -> list[int]:
            solver = solver_cls().load(cnf)
            solver._stats = SolverStats()
            solver._budget = SolverBudget()
            solver._propagate()
            counts = []
            for vector in vectors:
                before = solver._stats.propagations
                solver._trail_lim.append(len(solver._trail))
                for lit in vector:
                    solver._enqueue(_ilit(lit), -1)
                solver._propagate()
                counts.append(solver._stats.propagations - before)
                solver._cancel_until(0)
            return counts

        instrumented = propagation_counts(solver_module.CDCLSolver)
        stripped = propagation_counts(StrippedSolver)
        assert sum(instrumented) > 0
        assert instrumented == stripped
