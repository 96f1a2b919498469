"""Versioned speculative memory (paper Sec. 4.1).

:class:`SpecMemory` is the single shared memory of a simulated chip. Every
speculative load/store flows through it:

- **Eager version management** — stores update memory in place and log the
  pre-image in the owner's undo log.
- **Eager conflict detection, earlier-VT-wins** — an access by task T
  immediately aborts every live later-VT task whose read/write set
  conflicts with it (the simulator supplies the ``abort_cascade`` callback
  that also kills descendants and data-dependent tasks).
- **Speculative forwarding with dependence tracking** — a load returns the
  latest (possibly still-speculative) value; the reader records a
  dependence on the speculative writer so that the writer's abort cascades
  to it (paper: "Swarm always forwards still-speculative data read by a
  later task. On a conflict, Swarm aborts only descendants and
  data-dependent tasks").

Conflict *detection* happens at cache-line granularity (real false
sharing); versioning and dependences are word-granular.

Probing
-------

Per-access semantics are load-bearing: a conflicting later task must be
aborted *before* the accessor reads a value, so detection cannot be
deferred to end-of-task. Every load therefore walks its line's writer
chain, and every store walks the line's readers and writer chain, for
later-VT victims. A line whose chain holds an earlier writer that is
still in flight makes the access premature; those writers sit in a
per-line in-flight index, so finding one does not walk the chain.

The false-positive sampler and fault hook are invoked once per access:
they consume seeded RNG draws, so their call sequence is part of what
makes a Bloom-mode run reproducible.

Owners are task attempts; the protocol they must satisfy is documented on
:class:`OwnerProtocol`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..errors import MemoryError_, SimulationError
from ..telemetry.events import ConflictEvent
from .address import AddressSpace
from .conflicts import ConflictPolicy, PreciseConflictModel
from .undo_log import UndoLog

#: one shared empty set: an attempt's ``read_lines`` / ``write_lines`` /
#: ``deps`` / ``dependents`` start as it and become a set of their own at
#: their first insert, and an ended attempt's ``deps`` / ``dependents``
#: return to it, so attempts that touch little allocate little
NO_EDGES: frozenset = frozenset()


class OwnerProtocol:
    """What :class:`SpecMemory` requires of a speculative owner.

    Attributes (installed by :meth:`SpecMemory.attach_owner`):

    - ``undo`` (:class:`UndoLog`), ``reads`` / ``writes`` (addr→value, for
      the serializability audit), ``read_lines`` / ``write_lines`` (sets),
      ``deps`` / ``dependents`` (owner sets), ``sig_read`` / ``sig_write``.

    The four sets start as the shared empty :data:`NO_EDGES`; the first
    insert into each gives it a set of its own. ``undo`` starts as None
    and gets its log at the attempt's first store; the conflict model
    builds ``sig_read`` / ``sig_write`` at its first access. Most
    attempts die at their first store, before any of these. Readers
    treat :data:`NO_EDGES` as any empty set and a None ``undo`` as an
    empty log; only :class:`SpecMemory` inserts.

    They live exactly as long as the attempt. When it ends, at commit or
    at rollback, ``undo``, ``read_lines``, ``write_lines``, ``sig_read``
    and ``sig_write`` become None and ``deps`` / ``dependents`` become
    the shared empty :data:`NO_EDGES`. ``reads`` / ``writes`` survive,
    since the audit replays them after the run. They are dicts only while
    :attr:`SpecMemory.record_values` is set; otherwise they are None and
    no access records a value (a simulator that does not audit clears
    the flag).

    What the owner class must provide:

    - ``order_key`` — attribute holding the current fractal-VT sort key;
      totally orders all live owners. Global VT rewrites (zoom,
      tiebreaker compaction) replace it but preserve the relative order
      of live owners.

    The attempt's lifecycle, as the simulator reports it:

    - :meth:`SpecMemory.attach_owner` starts an attempt *in flight*: its
      stores are conceptually still landing, so a later task touching a
      line it wrote is premature and aborts.
    - :meth:`SpecMemory.finish` marks the moment its finish event fires.
      From then on its stores are ordinary speculative data that later
      tasks read by forwarding. An attempt never returns to flight
      without a fresh attach.
    - :meth:`SpecMemory.commit` / :meth:`SpecMemory.rollback` end it.
    """


class SpecMemory:
    """The chip's shared memory with speculative versioning."""

    def __init__(self, space: AddressSpace,
                 conflict_model: Optional[ConflictPolicy] = None,
                 default_value: Any = 0):
        self.space = space
        self.conflicts = conflict_model or PreciseConflictModel()
        self.default = default_value
        self._values: Dict[int, Any] = {}
        # line → live speculative readers (insertion-ordered dict-as-set:
        # victim enumeration must not depend on object addresses) /
        # VT-ordered writer chains
        self._line_readers: Dict[int, Dict] = {}
        self._line_writers: Dict[int, List] = {}
        # word → VT-ordered live speculative writer chain
        self._word_writers: Dict[int, List] = {}
        # owners attached and not yet finished (their stores in flight),
        # and line → those of them that wrote the line, in the order of
        # its writer chain: the writers a premature access can hit
        self._in_flight: Dict[Any, None] = {}
        self._line_in_flight: Dict[int, List] = {}
        # skip the per-access false-positive sampler when the model never
        # samples (precise mode): it consumes no RNG there, so eliding the
        # call cannot desynchronize anything
        self._sample_fp = self.conflicts.samples_false_positives
        # bound once: called on every access when the model samples
        self._false_conflict = self.conflicts.false_conflict
        lw = space.line_words
        self._line_shift = lw.bit_length() - 1 if lw & (lw - 1) == 0 else None
        #: abort callback installed by the simulator: abort_cascade(victims,
        #: reason) must roll every victim (and its cascade) back before
        #: returning. Standalone/serial use may leave it unset as long as
        #: no conflicts arise.
        self.abort_cascade: Optional[Callable[[List, str], None]] = None
        #: notified on every poke; the simulator folds mid-run
        #: initialization pokes (fresh SpecDict slots) into the audit's
        #: initial snapshot.
        self.on_poke: Optional[Callable[[int, Any], None]] = None
        #: record each owner's first-read / last-written value per
        #: address in ``reads`` / ``writes``. Only the serializability
        #: audit reads them, so the simulator clears this when it does
        #: not audit.
        self.record_values = True
        #: telemetry (installed by the simulator): a falsy bus disables
        #: conflict events; ``clock`` supplies the current cycle.
        self.bus = None
        self.clock: Callable[[], int] = lambda: 0
        #: fault injection (installed by the simulator when a plan forces
        #: conflicts): ``fault_hook(owner, line, is_write) -> bool``; True
        #: aborts the accessor as if its access had conflicted. None when
        #: injection is off — one None check per access, like ``bus``.
        self.fault_hook: Optional[Callable] = None
        # counters (folded into RunStats)
        self.n_loads = 0
        self.n_stores = 0
        self.n_true_conflicts = 0
        self.n_injected_conflicts = 0
        #: candidate owners examined by per-line conflict checks
        #: (profiling only: out of the metrics registry unless
        #: `repro profile` asks)
        self.probe_steps = 0

    # ------------------------------------------------------------------
    # owner lifecycle
    # ------------------------------------------------------------------
    def attach_owner(self, owner) -> None:
        """Initialize per-attempt speculative state on ``owner``."""
        owner.undo = None
        if self.record_values:
            owner.reads = {}
            owner.writes = {}
        else:
            owner.reads = owner.writes = None
        owner.read_lines = owner.write_lines = NO_EDGES
        owner.deps = owner.dependents = NO_EDGES
        self._in_flight[owner] = None
        self.conflicts.register(owner)

    def finish(self, owner) -> None:
        """``owner``'s stores have landed: later tasks may now touch its
        lines without aborting (they read its values by forwarding)."""
        if owner not in self._in_flight:
            return
        del self._in_flight[owner]
        # every line it wrote while in flight lists it
        index = self._line_in_flight
        for line in owner.write_lines:
            writers = index[line]
            writers.remove(owner)
            if not writers:
                del index[line]

    # ------------------------------------------------------------------
    # non-speculative access (initialization / result inspection)
    # ------------------------------------------------------------------
    def poke(self, addr: int, value: Any) -> None:
        """Non-speculative store; only valid while no task speculates on
        the address's *line* (initialization and between-phase setup).

        Conflict detection is line-granular, so a poke under a live line
        reader or writer would mutate state those tasks have speculated
        on without aborting them — reject all of it, not just live word
        writers. Mid-run slot birth uses :meth:`poke_fresh` instead.
        """
        line = self.space.line_of(addr)
        if self._word_writers.get(addr):
            raise MemoryError_(f"poke({addr}) while speculative writers exist")
        if self._line_readers.get(line):
            raise MemoryError_(
                f"poke({addr}) while line {line} has live speculative readers")
        if self._line_writers.get(line):
            raise MemoryError_(
                f"poke({addr}) while line {line} has live speculative "
                f"writers on other words")
        self._values[addr] = value
        if self.on_poke is not None:
            self.on_poke(addr, value)

    def poke_fresh(self, addr: int, value: Any) -> None:
        """Non-speculative initialization of a never-touched word.

        The one legal mid-run poke: giving a *newly allocated* word its
        initial value (SpecDict slot birth). The word must hold no value
        and no speculative writer; the rest of its line may be under live
        speculation — allocation is not a mutation of any word a task
        could have accessed, so line-sharing tasks are unaffected.
        """
        if addr in self._values or self._word_writers.get(addr):
            raise MemoryError_(
                f"poke_fresh({addr}) on a word that already holds a value")
        self._values[addr] = value
        if self.on_poke is not None:
            self.on_poke(addr, value)

    def peek(self, addr: int) -> Any:
        """Non-speculative load of the current (possibly speculative) value."""
        return self._values.get(addr, self.default)

    # ------------------------------------------------------------------
    # speculative access
    # ------------------------------------------------------------------
    def load(self, owner, addr: int) -> Any:
        """Speculative load by ``owner``; may abort later conflicting tasks."""
        self.n_loads += 1
        shift = self._line_shift
        line = addr >> shift if shift is not None else self.space.line_of(addr)

        chain = self._line_writers.get(line)
        if chain:
            key = owner.order_key
            self.probe_steps += len(chain)
            victims = [w for w in chain
                       if w is not owner and w.order_key > key]
            if victims:
                self.n_true_conflicts += len(victims)
                if self.bus:
                    self._emit_conflict("read-write", owner, victims, line)
                self._abort(victims, "read-write conflict")
            self._abort_if_earlier_writer_running(owner, line, key)
            if owner.aborted:
                return self.default

        if self._sample_fp:
            other = self._false_conflict(owner, line, False)
            if other is not None:
                self._resolve_false_positive(owner, other, line)
                if owner.aborted:
                    # A sampled false positive against an earlier task
                    # killed the accessor; the caller unwinds via
                    # TaskAborted.
                    return self.default

        if self.fault_hook is not None:
            self._sample_injected_conflict(owner, line, is_write=False)
            if owner.aborted:
                return self.default

        value = self._values.get(addr, self.default)

        wchain = self._word_writers.get(addr)
        if wchain:
            writer = wchain[-1]
            # deps/dependents are always updated as a pair, so membership
            # in one implies the other — skip both set adds on re-reads
            deps = owner.deps
            if writer is not owner and writer not in deps:
                if deps is NO_EDGES:
                    owner.deps = {writer}
                else:
                    deps.add(writer)
                dependents = writer.dependents
                if dependents is NO_EDGES:
                    writer.dependents = {owner}
                else:
                    dependents.add(owner)

        reads = owner.reads
        if (reads is not None and addr not in reads
                and addr not in owner.writes):
            reads[addr] = value
        read_lines = owner.read_lines
        if line not in read_lines:
            if read_lines is NO_EDGES:
                owner.read_lines = {line}
            else:
                read_lines.add(line)
            readers = self._line_readers.get(line)
            if readers is None:
                self._line_readers[line] = {owner: None}
            else:
                readers[owner] = None
            self.conflicts.note_access(owner, line, is_write=False)
        return value

    def store(self, owner, addr: int, value: Any) -> None:
        """Speculative store by ``owner``; aborts later readers/writers."""
        self.n_stores += 1
        shift = self._line_shift
        line = addr >> shift if shift is not None else self.space.line_of(addr)

        key = owner.order_key
        victims = []
        readers = self._line_readers.get(line)
        if readers:
            self.probe_steps += len(readers)
            victims.extend(r for r in readers
                           if r is not owner and r.order_key > key)
        chain = self._line_writers.get(line)
        if chain:
            self.probe_steps += len(chain)
            victims.extend(w for w in chain
                           if w is not owner and w.order_key > key
                           and w not in victims)
        if victims:
            self.n_true_conflicts += len(victims)
            if self.bus:
                self._emit_conflict("write", owner, victims, line)
            self._abort(victims, "write conflict")
        if chain:
            self._abort_if_earlier_writer_running(owner, line, key)
            if owner.aborted:
                return

        if self._sample_fp:
            other = self._false_conflict(owner, line, True)
            if other is not None:
                self._resolve_false_positive(owner, other, line)
                if owner.aborted:
                    return

        if self.fault_hook is not None:
            self._sample_injected_conflict(owner, line, is_write=True)
            if owner.aborted:
                return

        wchain = self._word_writers.get(addr)
        if wchain is None:
            wchain = self._word_writers[addr] = []
        if wchain and wchain[-1] is not owner:
            # write-after-speculative-write: conservative WAW dependence so
            # the earlier writer's abort cascades here and undo chains stay
            # suffix-restorable.
            prev_writer = wchain[-1]
            deps = owner.deps
            if deps is NO_EDGES:
                owner.deps = {prev_writer}
            else:
                deps.add(prev_writer)
            dependents = prev_writer.dependents
            if dependents is NO_EDGES:
                prev_writer.dependents = {owner}
            else:
                dependents.add(owner)
        undo = owner.undo
        if undo is None:
            undo = owner.undo = UndoLog()
        undo.record(addr, self._values.get(addr, self.default))
        if not wchain or wchain[-1] is not owner:
            wchain.append(owner)

        self._values[addr] = value
        writes = owner.writes
        if writes is not None:
            writes[addr] = value
        write_lines = owner.write_lines
        if line not in write_lines:
            # first line touch as a writer: join the chain (an owner in
            # the chain is always its tail here — eager aborts cleared any
            # later writers before this store proceeded)
            if write_lines is NO_EDGES:
                owner.write_lines = {line}
            else:
                write_lines.add(line)
            lchain = self._line_writers.get(line)
            if lchain is None:
                self._line_writers[line] = [owner]
            else:
                lchain.append(owner)
            if owner in self._in_flight:
                running = self._line_in_flight.get(line)
                if running is None:
                    self._line_in_flight[line] = [owner]
                else:
                    running.append(owner)
            self.conflicts.note_access(owner, line, is_write=True)

    # ------------------------------------------------------------------
    def _abort_if_earlier_writer_running(self, owner, line: int,
                                         key) -> None:
        """Kill the accessor when an earlier-VT task that wrote this line
        is still mid-execution.

        The simulator runs each task body atomically at dispatch, so an
        earlier task's stores are already in memory even though, on real
        hardware, they would land throughout its execution and abort any
        later task that touched the line meanwhile. Treating the pending
        store window as "access now = premature" restores the hardware's
        contention behaviour: later tasks retry until the earlier writer
        finishes, after which ordinary speculative forwarding applies
        (Swarm forwards data of *finished*, still-uncommitted tasks).

        The line's in-flight writers are indexed in writer-chain order, so
        the blocker is the first earlier one — O(in-flight writers), not a
        walk of the whole chain.
        """
        running = self._line_in_flight.get(line)
        if not running:
            return
        for w in running:
            if w is not owner and w.order_key < key:
                # Tell the scheduler when the blocking store lands, so the
                # retry happens once instead of spinning (one abort per
                # in-flight writer, as on real hardware).
                finish = getattr(w, "dispatch_time", 0) + getattr(w, "duration", 0)
                owner.retry_after = max(getattr(owner, "retry_after", 0), finish)
                self.n_true_conflicts += 1
                if self.bus:
                    self._emit_conflict("premature-access", w, [owner], line)
                self._abort([owner], "access during earlier writer")
                return

    def _emit_conflict(self, cause: str, aggressor, victims: List,
                       line: int) -> None:
        """Publish a :class:`ConflictEvent` (callers guard on ``self.bus``)."""
        self.bus.emit(ConflictEvent(
            self.clock(), line, cause,
            getattr(aggressor, "tid", -1), repr(getattr(aggressor, "vt", None)),
            getattr(getattr(aggressor, "core", None), "cid", None),
            [getattr(v, "tid", -1) for v in victims],
            [repr(getattr(v, "vt", None)) for v in victims],
            [getattr(getattr(v, "core", None), "cid", None) for v in victims]))

    def _abort(self, victims: List, reason: str) -> None:
        if self.abort_cascade is None:
            raise SimulationError(
                f"conflict ({reason}) with no abort_cascade installed")
        self.abort_cascade(victims, reason)

    def _sample_injected_conflict(self, owner, line: int,
                                  is_write: bool) -> None:
        """Fault-injection site: treat this access as a forced conflict.

        The accessor aborts (and retries) exactly as it would on a real
        false positive against an earlier task; callers guard on
        ``self.fault_hook``.
        """
        if not self.fault_hook(owner, line, is_write):
            return
        self.n_injected_conflicts += 1
        if self.bus:
            self._emit_conflict("injected", owner, [owner], line)
        self._abort([owner], "injected conflict")

    def _resolve_false_positive(self, owner, other, line: int) -> None:
        if getattr(other, "aborted", False):
            return
        # Hardware aborts the later of the two; "both signatures matched"
        # carries no direction, so VT decides.
        victim = owner if owner.order_key > other.order_key else other
        if self.bus:
            aggressor = other if victim is owner else owner
            self._emit_conflict("false-positive", aggressor, [victim], line)
        self._abort([victim], "false positive")

    # ------------------------------------------------------------------
    # rollback / commit
    # ------------------------------------------------------------------
    def rollback(self, owner) -> None:
        """Undo ``owner``'s writes and drop its speculative footprint.

        The caller (abort cascade) must invoke this latest-first across the
        cascade so each owner is the most recent writer of its words.
        """
        if owner.undo is not None:
            for addr, prev in owner.undo.reversed_entries():
                chain = self._word_writers.get(addr)
                if not chain or chain[-1] is not owner:
                    raise SimulationError(
                        f"rollback of non-tail writer at addr {addr}")
                chain.pop()
                if not chain:
                    del self._word_writers[addr]
                self._values[addr] = prev
        self._scrub(owner)

    def commit(self, owner) -> None:
        """Make ``owner``'s writes permanent and drop its footprint."""
        if owner.undo is not None:
            for addr in owner.undo._entries:
                chain = self._word_writers.get(addr)
                if not chain or chain[0] is not owner:
                    raise SimulationError(
                        f"commit of non-head writer at addr {addr}")
                chain.pop(0)
                if not chain:
                    del self._word_writers[addr]
        self._scrub(owner)

    def _scrub(self, owner) -> None:
        """Remove ``owner`` from the line indices and release its
        per-attempt state (commit and abort paths).

        Strict: an owner whose footprint sets name a line it is not
        actually indexed under means the bookkeeping is corrupted —
        raising here, with the owner and line at hand, beats the distant
        `assert_quiescent` failure the old swallow-and-continue produced.
        """
        self.finish(owner)  # a rolled-back attempt is no longer in flight
        for line in owner.read_lines:
            readers = self._line_readers.get(line)
            if readers is None or owner not in readers:
                raise SimulationError(
                    f"scrub: {owner!r} missing from the reader index of "
                    f"line {line} (memory bookkeeping corrupted)")
            del readers[owner]
            if not readers:
                del self._line_readers[line]
        for line in owner.write_lines:
            chain = self._line_writers.get(line)
            try:
                chain.remove(owner)
            except (AttributeError, ValueError):
                raise SimulationError(
                    f"scrub: {owner!r} missing from the writer chain of "
                    f"line {line} (memory bookkeeping corrupted)") from None
            if not chain:
                del self._line_writers[line]
        for dep in owner.deps:
            dep.dependents.discard(owner)
        for dependent in owner.dependents:
            dependent.deps.discard(owner)
        # the attempt is over: release its state (see OwnerProtocol)
        owner.deps = owner.dependents = NO_EDGES
        owner.undo = owner.read_lines = owner.write_lines = None
        self.conflicts.unregister(owner)

    # ------------------------------------------------------------------
    def assert_quiescent(self) -> None:
        """Check that no speculative state remains (end-of-run invariant)."""
        if self._word_writers or self._line_readers or self._line_writers:
            raise SimulationError(
                f"memory not quiescent: {len(self._word_writers)} spec words, "
                f"{len(self._line_readers)} read lines, "
                f"{len(self._line_writers)} written lines")
