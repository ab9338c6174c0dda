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
* :meth:`ArenaImage.share` copies that buffer into a
  :mod:`multiprocessing.shared_memory` segment, so any number of worker
  processes can map the same physical pages;
* :meth:`ArenaImage.attach` maps an existing segment **read-only** (writes
  through the exposed buffer raise ``TypeError``), giving workers a zero-copy
  view: a worker needs only the segment name, never a pickled CNF;
* :meth:`~repro.sat.cdcl.solver.CDCLSolver.load_image` rebuilds a solver from
  an image without re-normalising a single clause — bit-identical to
  ``load(cnf)`` on the original formula, at a fraction of the cost.

Buffer layout (``int64`` words)::

    ┌─────────┬─────────┬──────────┬────┬───────────┬──────────┬────────────┐
    │ MAGIC   │ VERSION │ num_vars │ ok │ arena_len │ n_crefs  │ n_units    │
    ├─────────┴─────────┴──────────┴────┴───────────┴──────────┴────────────┤
    │ arena words  …  │ problem crefs … │ root-unit trail (internal lits) … │
    └───────────────────────────────────────────────────────────────────────┘

Segment lifecycle: the sharer *owns* the segment and must :meth:`unlink` it
(``close`` only drops this process's mapping).  POSIX semantics apply:
unlink-while-attached leaves existing attachments readable, new attaches fail.
:func:`list_segments` / :func:`sweep_segments` enumerate and reap orphaned
``repro-arena-*`` segments — the leak check run by tests and CI after the
concurrency suites.
"""

from __future__ import annotations

import os
import tempfile
import uuid
from array import array
from pathlib import Path

from repro.sat.formula import CNF

_MAGIC = 0x41524E41  # "ARNA"
_VERSION = 1
_HEADER_WORDS = 7

#: Prefix of every shared-memory segment created by :meth:`ArenaImage.share`;
#: the leak sweepers enumerate segments by it.
SEGMENT_PREFIX = "repro-arena-"

#: Where POSIX shared memory appears as files on Linux (the platforms CI runs
#: on).  Elsewhere the directory does not exist and :func:`list_segments`
#: falls back to the registry file below.
_SHM_DIR = "/dev/shm"


def _registry_path() -> Path:
    """The per-user sidecar file recording every segment :meth:`ArenaImage.share`
    created.

    On platforms where POSIX shared memory is not visible as files (macOS,
    BSDs — ``/dev/shm`` is Linux-specific), segments cannot be *enumerated*,
    only opened by name.  :meth:`ArenaImage.share` therefore appends each new
    segment name here, and :func:`list_segments` probes the recorded names
    via ``shared_memory.SharedMemory(name=...)`` when ``/dev/shm`` is
    unlistable, so the leak sweepers work everywhere instead of silently
    reporting an empty system.
    """
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return Path(tempfile.gettempdir()) / f"{SEGMENT_PREFIX}registry-{uid}"


def _registry_add(name: str) -> None:
    """Record ``name`` in the registry (O_APPEND: atomic for short lines)."""
    try:
        fd = os.open(
            _registry_path(), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o600
        )
    except OSError:
        return  # registry is best-effort; /dev/shm still covers Linux
    try:
        os.write(fd, (name + "\n").encode())
    finally:
        os.close(fd)


def _registry_discard(names: set[str]) -> None:
    """Drop ``names`` from the registry (best-effort rewrite; races are fine —
    stale survivors are pruned by the next probe in :func:`_registry_names`)."""
    path = _registry_path()
    try:
        recorded = path.read_text().split()
    except OSError:
        return
    kept = [name for name in recorded if name not in names]
    if len(kept) == len(recorded):
        return
    try:
        scratch = path.with_name(f"{path.name}.{os.getpid():x}.tmp")
        scratch.write_text("".join(f"{name}\n" for name in kept))
        scratch.replace(path)
    except OSError:
        pass


def _segment_alive(name: str) -> bool:
    """Probe whether a shared-memory segment with ``name`` currently exists."""
    from multiprocessing import shared_memory

    try:
        with _suppress_tracking():
            segment = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError, ValueError):
        return False
    segment.close()
    return True


def _registry_names(prefix: str) -> list[str]:
    """Live registered segments starting with ``prefix`` (prunes dead entries)."""
    try:
        recorded = _registry_path().read_text().split()
    except OSError:
        return []
    seen: set[str] = set()
    alive: list[str] = []
    dead: set[str] = set()
    for name in recorded:
        if name in seen:
            continue
        seen.add(name)
        if _segment_alive(name):
            if name.startswith(prefix):
                alive.append(name)
        else:
            dead.add(name)
    if dead:
        _registry_discard(dead)
    return alive


def _new_segment_name() -> str:
    return f"{SEGMENT_PREFIX}{os.getpid():x}-{uuid.uuid4().hex[:12]}"


class _suppress_tracking:
    """Keep the resource tracker out of an *attachment* (Python < 3.13).

    ``SharedMemory(name=...)`` registers even a plain attachment with the
    ``multiprocessing`` resource tracker, whose cleanup then unlinks the
    segment out from under the leader when any attached worker exits.  Worse,
    workers share the leader's tracker process (fork inheritance), so
    *unregistering* after the fact would erase the leader's own registration
    and make its rightful ``unlink`` scream.  The only clean fix on 3.11/3.12
    is to swallow the registration as it happens; 3.13+ exposes
    ``track=False`` for exactly this.
    """

    def __enter__(self):
        from multiprocessing import resource_tracker

        self._module = resource_tracker
        self._original = resource_tracker.register

        def register(name, rtype):
            if rtype != "shared_memory":
                self._original(name, rtype)

        resource_tracker.register = register
        return self

    def __exit__(self, *exc):
        self._module.register = self._original


def list_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Names of live shared-memory segments starting with ``prefix`` (sorted).

    On Linux this lists ``/dev/shm`` directly (authoritative: it also sees
    segments created by processes that never touched the registry).  Where
    ``/dev/shm`` is unlistable — POSIX shared memory has no portable
    enumeration API — it falls back to probing the names recorded in the
    per-user registry file, so leak sweeping is not a silent no-op off Linux.
    """
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:
        return sorted(_registry_names(prefix))
    return sorted(name for name in names if name.startswith(prefix))


def sweep_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Unlink every live segment starting with ``prefix``; returns the names.

    The safety net of the shared-image protocol: a leader that dies between
    :meth:`ArenaImage.share` and :meth:`ArenaImage.unlink` leaks a segment
    (POSIX shared memory outlives its creator), and this reaps it.  Test
    fixtures call it in finalizers; CI fails the build when it finds anything
    to reap after the concurrency suites.
    """
    from multiprocessing import shared_memory

    reaped = []
    for name in list_segments(prefix):
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:  # raced with the rightful owner's unlink
            continue
        segment.close()
        segment.unlink()
        reaped.append(name)
    if reaped:
        _registry_discard(set(reaped))
    return reaped


class ArenaImage:
    """A frozen post-``_init`` solver state behind a flat read-only buffer."""

    def __init__(self, words, shm=None, owns_segment: bool = False):
        self._words = words
        self._shm = shm
        self._owns_segment = owns_segment
        self._closed = False
        self._validate()

    # ------------------------------------------------------------------ freeze
    @classmethod
    def freeze(cls, cnf: CNF, config=None) -> "ArenaImage":
        """Build the formula's clause database once and freeze it.

        ``config`` must not enable ``simplify``: a preprocessing solver's
        database depends on the per-call frozen set, which has no meaning in a
        shared one-formula image (pre-simplify the CNF instead and freeze the
        result).
        """
        from repro.sat.cdcl.config import CDCLConfig
        from repro.sat.cdcl.solver import CDCLSolver

        config = config or CDCLConfig()
        if config.simplify:
            raise ValueError(
                "ArenaImage.freeze requires config.simplify=False; "
                "preprocess the CNF first and freeze the simplified formula"
            )
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

    # ------------------------------------------------------------------- share
    def share(self, name: str | None = None) -> "ArenaImage":
        """Copy this image into a shared-memory segment; returns the owner image.

        The returned image *owns* the segment: call :meth:`unlink` on it when
        every worker is done (``close`` alone leaks the segment).  ``name``
        defaults to a fresh ``repro-arena-*`` name.
        """
        from multiprocessing import shared_memory

        self._require_open()
        payload = self._words.tobytes()
        segment = shared_memory.SharedMemory(
            name=name or _new_segment_name(), create=True, size=len(payload)
        )
        # Record the name so the sweepers can enumerate it on platforms
        # without a listable /dev/shm (see _registry_path).
        _registry_add(segment.name)
        segment.buf[: len(payload)] = payload
        words = memoryview(segment.buf).cast("q").toreadonly()
        return ArenaImage(words, shm=segment, owns_segment=True)

    # ------------------------------------------------------------------ attach
    @classmethod
    def attach(cls, name: str) -> "ArenaImage":
        """Map an existing segment read-only (raises ``FileNotFoundError`` if gone)."""
        from multiprocessing import shared_memory

        with _suppress_tracking():
            segment = shared_memory.SharedMemory(name=name)
        words = memoryview(segment.buf).cast("q").toreadonly()
        return cls(words, shm=segment, owns_segment=False)

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Drop this process's mapping (idempotent; the segment survives)."""
        if self._closed:
            return
        self._closed = True
        if self._shm is not None:
            # Release the cast view before the SharedMemory mapping, or the
            # mapping refuses to close while exports are alive.
            self._words.release()
            self._words = None
            self._shm.close()
        else:
            self._words = None

    def unlink(self) -> None:
        """Destroy the segment (owner's duty); implies :meth:`close`.

        Existing attachments keep reading their mapping (POSIX semantics);
        new :meth:`attach` calls fail with ``FileNotFoundError``.  Unlinking a
        segment someone else already unlinked is a no-op.
        """
        shm = self._shm
        self.close()
        if shm is not None:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
            _registry_discard({shm.name})

    def __enter__(self) -> "ArenaImage":
        return self

    def __exit__(self, *exc) -> None:
        if self._owns_segment:
            self.unlink()
        else:
            self.close()

    # --------------------------------------------------------------- accessors
    @property
    def name(self) -> str | None:
        """Segment name (``None`` for a private, unshared image)."""
        return None if self._shm is None else self._shm.name

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def buffer(self):
        """The raw ``int64`` words, read-only for attached/shared images."""
        self._require_open()
        return self._words

    @property
    def num_vars(self) -> int:
        self._require_open()
        return int(self._words[2])

    @property
    def ok(self) -> bool:
        """False when the formula was refuted while building the database."""
        self._require_open()
        return bool(self._words[3])

    def arena(self) -> list[int]:
        """A fresh mutable copy of the frozen clause arena."""
        self._require_open()
        base = _HEADER_WORDS
        return list(self._words[base : base + int(self._words[4])])

    def crefs(self) -> list[int]:
        """A fresh copy of the problem-clause cref table (age order)."""
        self._require_open()
        base = _HEADER_WORDS + int(self._words[4])
        return list(self._words[base : base + int(self._words[5])])

    def root_units(self) -> list[int]:
        """The root-level unit trail (internal literal indices, enqueue order)."""
        self._require_open()
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
        self._require_open()
        from repro.sat.cdcl.solver import _elit

        clauses: list[tuple[int, ...]] = [(_elit(lit),) for lit in self.root_units()]
        arena = self.arena()
        for cref in self.crefs():
            size = arena[cref]
            clauses.append(tuple(_elit(lit) for lit in arena[cref + 1 : cref + 1 + size]))
        return CNF(clauses=clauses, num_vars=self.num_vars)

    # ---------------------------------------------------------------- internals
    def _require_open(self) -> None:
        if self._closed:
            raise ValueError("operation on a closed ArenaImage")

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


__all__ = [
    "ArenaImage",
    "SEGMENT_PREFIX",
    "list_segments",
    "sweep_segments",
]
