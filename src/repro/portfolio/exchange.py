"""The deterministic clause-exchange bus of the sharing portfolio.

HordeSat-style clause sharing (Balyo et al.) lets every portfolio member
profit from what the others learn: members *export* their best learned
clauses (low LBD, short) and *import* everyone else's at restart boundaries.
Done naively — concurrent queues drained whenever a worker polls — the
result depends on thread timing and is impossible to replay.  This module
makes the exchange a **virtual-round-stamped bus** instead:

* the portfolio advances in synchronous virtual rounds (one solver slice per
  member per round, budgeted in cost-measure units, see
  :mod:`repro.portfolio.sharing`);
* clauses exported during round ``r`` are stamped with ``r`` and become
  visible to the *other* members only in round ``r + 1`` — never earlier, no
  matter how the executor interleaves the slices;
* exports are folded into the bus in member order at the round barrier, and
  each member's import order is fixed by ``(export round, exporting member,
  canonical clause order)`` with a seeded deterministic rotation, so the
  whole exchange schedule is a pure function of ``(members, policy, seed,
  exported clauses)``.

The bus also keeps the audit trail the test battery replays: an exchange
log of ``(round, member, direction, count)`` entries plus per-member
export/import counters, all bit-identical across runs, executors and
``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

Clause = tuple[int, ...]


@dataclass(frozen=True)
class SharingPolicy:
    """The export-quality and volume budgets of the exchange.

    ``max_lbd`` / ``max_size`` are the classical clause-quality filters (a
    clause must pass both to leave its solver); ``per_round`` caps how many
    clauses one member may export per virtual round (the best ones win —
    candidates are ranked by ``(lbd, size, literals)``, the canonical order
    of :meth:`~repro.sat.cdcl.CDCLSolver.exportable_clauses`).
    ``per_round=0`` exports nothing: the members race in isolation under
    the same slicing, the baseline sharing is measured against.
    """

    max_lbd: int = 4
    max_size: int = 8
    per_round: int = 32

    def __post_init__(self) -> None:
        if self.max_lbd < 1:
            raise ValueError("max_lbd must be at least 1")
        if self.max_size < 1:
            raise ValueError("max_size must be at least 1")
        if self.per_round < 0:
            raise ValueError("per_round must be non-negative")


@dataclass
class ExchangeRecord:
    """One exported clause on the bus: who exported it, when, how good."""

    clause: Clause
    lbd: int
    round: int
    exporter: int  # member index


@dataclass
class ExchangeLogEntry:
    """One audit-log line; the determinism tests compare these verbatim."""

    round: int
    member: str
    direction: str  # "export" | "import"
    count: int

    def as_tuple(self) -> tuple[int, str, str, int]:
        return (self.round, self.member, self.direction, self.count)


@dataclass
class ClauseExchange:
    """The seeded, round-stamped in-process clause bus.

    One instance serves one sharing-portfolio run.  The driver calls
    :meth:`export` once per member at each round barrier (in member order)
    and :meth:`imports_for` when preparing the next round's slices; both are
    pure bookkeeping — no locks, because the barrier discipline of
    :class:`~repro.portfolio.sharing.SharingPortfolioSolver` guarantees
    single-threaded access.
    """

    members: list[str]
    policy: SharingPolicy = field(default_factory=SharingPolicy)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a clause exchange needs at least one member")
        if len(set(self.members)) != len(self.members):
            raise ValueError("exchange member names must be unique")
        #: Every clause accepted onto the bus, in acceptance order.
        self.records: list[ExchangeRecord] = []
        #: Canonical clause -> index into :attr:`records` (dedup: the first
        #: exporter wins; re-exports of a known clause are dropped).
        self._seen: dict[Clause, int] = {}
        #: Per-member count of records already delivered (records are
        #: delivered in bus order, so one cursor per member suffices).
        self._cursors: dict[str, int] = {name: 0 for name in self.members}
        #: Per-member counters, audit log, and totals.
        self.exported: dict[str, int] = {name: 0 for name in self.members}
        self.imported: dict[str, int] = {name: 0 for name in self.members}
        self.dropped: dict[str, int] = {name: 0 for name in self.members}
        self.log: list[ExchangeLogEntry] = []

    # ------------------------------------------------------------------ export
    def export(
        self,
        member: str,
        round_index: int,
        candidates: list[tuple[Clause, int]],
    ) -> int:
        """Offer ``candidates`` (``(clause, lbd)`` pairs) to the bus.

        Applies the policy filters, ranks survivors by ``(lbd, size,
        literals)``, truncates to the per-round budget, and accepts only
        clauses the bus has not seen before (first exporter wins).  Returns
        the number of clauses accepted; the rest count as ``dropped``.
        Records are stamped with ``round_index`` — they become importable by
        other members from round ``round_index + 1`` on.
        """
        exporter = self.members.index(member)
        policy = self.policy
        ranked = sorted(
            (
                (clause, lbd)
                for clause, lbd in candidates
                if lbd <= policy.max_lbd and len(clause) <= policy.max_size
            ),
            key=lambda pair: (pair[1], len(pair[0]), pair[0]),
        )
        accepted = 0
        offered = 0
        for clause, lbd in ranked:
            if accepted >= policy.per_round:
                break
            offered += 1
            if clause in self._seen:
                continue
            self._seen[clause] = len(self.records)
            self.records.append(
                ExchangeRecord(clause=clause, lbd=lbd, round=round_index, exporter=exporter)
            )
            accepted += 1
        self.exported[member] += accepted
        self.dropped[member] += len(candidates) - accepted
        self.log.append(ExchangeLogEntry(round_index, member, "export", accepted))
        return accepted

    # ------------------------------------------------------------------ import
    def imports_for(self, member: str, round_index: int) -> list[Clause]:
        """The clauses ``member`` must import before its ``round_index`` slice.

        Delivers every record stamped with an earlier round that the member
        has not received yet, excluding its own exports, ordered by ``(export
        round, exporter, bus order)`` and rotated by a seeded offset — the
        rotation is a pure function of ``(seed, member, round_index)``, so
        the full import schedule is replayable from the run's seed alone.
        Advances the member's cursor; the caller must invoke this exactly
        once per member per round (the sharing driver's barrier does).
        """
        me = self.members.index(member)
        cursor = self._cursors[member]
        deliverable: list[ExchangeRecord] = []
        consumed = cursor
        for index in range(cursor, len(self.records)):
            record = self.records[index]
            if record.round >= round_index:
                break  # later records are stamped no earlier: stop scanning
            consumed = index + 1
            if record.exporter != me:
                deliverable.append(record)
        self._cursors[member] = consumed
        deliverable.sort(key=lambda r: (r.round, r.exporter, r.clause))
        if len(deliverable) > 1:
            # A string seed hashes via SHA-512 inside random.Random — stable
            # across processes and PYTHONHASHSEED values.
            offset = random.Random(f"{self.seed}:{me}:{round_index}").randrange(len(deliverable))
            deliverable = deliverable[offset:] + deliverable[:offset]
        clauses = [record.clause for record in deliverable]
        self.imported[member] += len(clauses)
        self.log.append(ExchangeLogEntry(round_index, member, "import", len(clauses)))
        return clauses

    # ----------------------------------------------------------------- reports
    @property
    def total_exported(self) -> int:
        return sum(self.exported.values())

    @property
    def total_imported(self) -> int:
        return sum(self.imported.values())

    def log_tuples(self) -> list[tuple[int, str, str, int]]:
        """The audit log as plain tuples (what the determinism tests compare)."""
        return [entry.as_tuple() for entry in self.log]

    def schedule_fingerprint(self) -> tuple:
        """A hashable digest of the full exchange schedule.

        Two runs with identical members, policy, seed and solver behaviour
        produce identical fingerprints — the replay tests' one-line check.
        """
        return (
            tuple(self.members),
            (self.policy.max_lbd, self.policy.max_size, self.policy.per_round),
            self.seed,
            tuple(self.log_tuples()),
            tuple((r.clause, r.lbd, r.round, r.exporter) for r in self.records),
        )
