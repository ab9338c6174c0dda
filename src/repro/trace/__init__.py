"""Binary solver-event traces and the analysis toolkit built on them.

The package turns a solver/preprocessor/scheduler run into a compact varint
event stream (a few bytes per event, designed for millions of events) and
provides the tools that make the stream useful:

* :mod:`repro.trace.format` — the on-disk format: a self-describing header
  (format version, instance fingerprint, config snapshot) followed by
  varint-encoded event records, with the streaming
  :class:`~repro.trace.format.TraceWriter` / :class:`~repro.trace.format.TraceReader`
  pair.
* :mod:`repro.trace.analysis` — per-trace summaries: conflict-depth and
  backtrack-distance histograms, learned-clause LBD/size distributions,
  restart cadence, decisions-per-conflict, preprocessor reduction timelines
  and scheduler task-latency breakdowns.
* :mod:`repro.trace.diff` — run-vs-run comparison: first divergent event plus
  summary-stat deltas.
* :mod:`repro.trace.record` — one-call helpers that wrap ``solve`` /
  ``simplify`` / an evaluation's sample solved on the simulated cluster with
  a trace sink (the engine behind ``repro-sat trace record``).

Instrumentation lives in the instrumented subsystems themselves
(:class:`repro.sat.cdcl.solver.CDCLSolver`, :class:`repro.sat.simplify.Preprocessor`,
:class:`repro.runner.scheduler.Scheduler`) behind a ``trace=None`` argument:
with no sink attached the hot paths perform a single guarded attribute check
and allocate nothing.
"""

from repro.trace.format import (
    FORMAT_VERSION,
    TraceError,
    TraceFormatError,
    TraceHeader,
    TraceReader,
    TraceTruncatedError,
    TraceVersionError,
    TraceWriter,
    cnf_fingerprint,
    read_trace,
)
from repro.trace.analysis import summarize_trace, format_summary
from repro.trace.diff import TraceDiff, diff_traces, format_diff
from repro.trace.export import export_trace
from repro.trace.record import record_estimate, record_simplify, record_solve

__all__ = [
    "FORMAT_VERSION",
    "TraceDiff",
    "TraceError",
    "TraceFormatError",
    "TraceHeader",
    "TraceReader",
    "TraceTruncatedError",
    "TraceVersionError",
    "TraceWriter",
    "cnf_fingerprint",
    "diff_traces",
    "export_trace",
    "format_diff",
    "format_summary",
    "read_trace",
    "record_estimate",
    "record_simplify",
    "record_solve",
    "summarize_trace",
]
