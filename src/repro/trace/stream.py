"""Per-thread trace streams and the multi-thread trace container.

A thread's events are captured directly in the canonical row layout of
:mod:`repro.trace.columnar`: every ``load`` / ``store`` / ``atomic`` /
``barrier`` call appends one packed native-order ``(kind, addr, size,
gap, op, ret)`` int64 row to a per-thread byte buffer.  The digest, the
``.npz`` writer, the shared-memory publish, the barrier check and the
columnar memo all read those bytes; none of them builds an event tuple.
The tuple form (:attr:`ThreadTrace.events`) is a derived view for the
per-event reference interpreter, the oracle analyzers and tests.
"""

from __future__ import annotations

import struct
from typing import Optional, Sequence

import numpy as np

from repro.common.errors import TraceError
from repro.trace.events import (
    EV_ATOMIC,
    EV_BARRIER,
    EV_LOAD,
    EV_STORE,
    AtomicOp,
)

#: One canonical row; native byte order, the order ``trace_digest``
#: hashes in.
_ROW = struct.Struct("6q")
_pack = _ROW.pack
_ROW_BYTES = _ROW.size

#: Atomic ops indexed by value, for the tuple view's decode.
_OPS = tuple(AtomicOp)


def _refuse_append(_row: bytes) -> None:
    raise TraceError(
        "trace thread is sealed: events cannot be appended once its "
        "Trace is built"
    )


def _rows_view(buffer) -> np.ndarray:
    """Read-only (N, 6) int64 view of a row buffer."""
    rows = np.frombuffer(buffer, dtype=np.int64).reshape(-1, 6)
    rows.flags.writeable = False
    return rows


def _decode(rows: np.ndarray) -> "list[tuple]":
    """Rows back to event tuples (the layouts in :mod:`~repro.trace.events`).

    Every row starts as a load/store 4-tuple built at C speed; only the
    atomic and barrier rows are then rewritten one by one.  Atomic ops
    outside :class:`AtomicOp` stay raw ints, so the trace linter can
    report them with their event index.
    """
    kind, addr, size, gap, op, ret = rows.T.tolist()
    events: "list[tuple]" = list(zip(kind, addr, size, gap))
    num_ops = len(_OPS)
    for i in np.flatnonzero(rows[:, 0] >= EV_ATOMIC).tolist():
        if kind[i] == EV_BARRIER:
            events[i] = (EV_BARRIER, size[i], gap[i])
        else:
            code = op[i]
            events[i] = (
                EV_ATOMIC, addr[i], size[i], gap[i],
                _OPS[code] if 0 <= code < num_ops else code, ret[i] != 0,
            )
    return events


class ThreadTrace:
    """The recorded instruction stream of one virtual thread.

    The framework calls :meth:`load` / :meth:`store` / :meth:`atomic`
    for memory accesses and :meth:`work` for intervening non-memory
    instructions; the pending work count is folded into the next event's
    ``gap`` field.  Each call packs one canonical row (see
    :mod:`repro.trace.columnar`); fields that are not int64-representable
    raise ``struct.error`` at capture.

    A thread is sealed when a :class:`Trace` is built over it: its rows
    become a read-only array that holds an export of the capture buffer,
    and a later append raises :class:`TraceError` instead of silently
    diverging from the digest and the columnar memo.  Threads rebuilt
    from stored rows (:meth:`from_rows`) or from hand-built tuples
    (:meth:`from_events`) are sealed from the start.
    """

    __slots__ = (
        "thread_id", "_pending_work", "_buf", "_extend", "_rows", "_tuples",
    )

    def __init__(self, thread_id: int):
        self.thread_id = thread_id
        self._pending_work = 0
        self._buf: Optional[bytearray] = bytearray()
        self._extend = self._buf.extend
        #: Sealed (N, 6) rows; None while capturing or for tuple threads.
        self._rows: Optional[np.ndarray] = None
        #: Hand-built event tuples (:meth:`from_events` threads only).
        self._tuples: Optional[list] = None

    @classmethod
    def from_rows(cls, thread_id: int, rows) -> "ThreadTrace":
        """A sealed thread over existing canonical rows (no copy when
        ``rows`` is already a contiguous int64 array).

        Raises :class:`TraceError` on an event kind the row layout does
        not define.
        """
        from repro.trace.columnar import check_kinds

        matrix = np.ascontiguousarray(rows, dtype=np.int64).reshape(-1, 6)
        check_kinds(matrix[:, 0])
        if matrix.flags.writeable:
            matrix = matrix.view()
            matrix.flags.writeable = False
        thread = cls(thread_id)
        thread._buf = None
        thread._extend = _refuse_append
        thread._rows = matrix
        return thread

    @classmethod
    def from_events(
        cls, thread_id: int, events: Sequence[tuple]
    ) -> "ThreadTrace":
        """A sealed thread over hand-built event tuples.

        The tuples are kept as given, malformed ones included: they are
        encoded by :func:`~repro.trace.columnar.encode_events` whenever
        the rows are read, so an unencodable event raises
        :class:`TraceError` at digest, save or columnar time, and the
        analysis passes fall back to the per-event oracles for it.
        """
        thread = cls(thread_id)
        thread._buf = None
        thread._extend = _refuse_append
        thread._tuples = list(events)
        return thread

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------

    def work(self, instructions: int = 1) -> None:
        """Record ``instructions`` non-memory instructions."""
        if instructions < 0:
            raise TraceError("work count must be non-negative")
        self._pending_work += instructions

    def load(self, addr: int, size: int = 8) -> None:
        """Record a regular load."""
        gap = self._pending_work
        self._pending_work = 0
        self._extend(_pack(EV_LOAD, addr, size, gap, -1, 0))

    def store(self, addr: int, size: int = 8) -> None:
        """Record a regular store."""
        gap = self._pending_work
        self._pending_work = 0
        self._extend(_pack(EV_STORE, addr, size, gap, -1, 0))

    def atomic(
        self,
        op: AtomicOp,
        addr: int,
        size: int = 8,
        with_return: bool = True,
    ) -> None:
        """Record a host atomic instruction (lock-prefixed RMW)."""
        gap = self._pending_work
        self._pending_work = 0
        self._extend(_pack(EV_ATOMIC, addr, size, gap, op, with_return))

    def barrier(self, barrier_id: int) -> None:
        """Record participation in a global barrier.

        Pending work is charged before the barrier is entered: the
        replay loop charges a barrier's gap cycles before it syncs.
        """
        gap = self._pending_work
        self._pending_work = 0
        self._extend(_pack(EV_BARRIER, 0, barrier_id, gap, -1, 0))

    def seal(self) -> None:
        """Freeze the captured rows; later appends raise."""
        if self._rows is None and self._buf is not None:
            # The view exports the buffer, so it can no longer resize.
            self._rows = _rows_view(self._buf)
            self._extend = _refuse_append

    # ------------------------------------------------------------------
    # Readers
    # ------------------------------------------------------------------

    def rows(self) -> np.ndarray:
        """This thread's events as the canonical read-only (N, 6) int64
        matrix.

        Free for a sealed thread (a view of its buffer).  A thread still
        capturing gets a copy, so reading never blocks further appends.
        Raises :class:`TraceError` when hand-built tuples are not
        encodable.
        """
        if self._rows is not None:
            return self._rows
        if self._tuples is not None:
            from repro.trace.columnar import encode_events

            return encode_events(self._tuples, self.thread_id)
        return _rows_view(bytes(self._buf))  # type: ignore[arg-type]

    @property
    def events(self) -> "list[tuple]":
        """The events as tuples: a derived, decoded list.

        For the per-event reference interpreter, the oracle analyzers
        and tests; changing the list does not change the trace.
        """
        if self._tuples is not None:
            return list(self._tuples)
        return _decode(self.rows())

    def barrier_ids(self) -> "list[int]":
        """Barrier ids in stream order."""
        if self._tuples is not None:
            return [e[1] for e in self._tuples if e[0] == EV_BARRIER]
        rows = self.rows()
        return rows[rows[:, 0] == EV_BARRIER, 2].tolist()

    @property
    def num_events(self) -> int:
        """Number of recorded events."""
        if self._tuples is not None:
            return len(self._tuples)
        if self._rows is not None:
            return self._rows.shape[0]
        return len(self._buf) // _ROW_BYTES  # type: ignore[arg-type]

    def __getstate__(self) -> dict:
        # Ship the rows once as bytes; the sealed view is rebuilt.
        rows = None if self._tuples is not None else self.rows().tobytes()
        return {
            "thread_id": self.thread_id,
            "pending_work": self._pending_work,
            "rows": rows,
            "tuples": self._tuples,
            "sealed": self._extend is _refuse_append,
        }

    def __setstate__(self, state: dict) -> None:
        self.thread_id = state["thread_id"]
        self._pending_work = state["pending_work"]
        self._tuples = state["tuples"]
        self._rows = None
        self._buf = None
        self._extend = _refuse_append
        if self._tuples is None:
            self._buf = bytearray(state["rows"])
            self._extend = self._buf.extend
            if state["sealed"]:
                self.seal()

    def __repr__(self) -> str:
        return f"ThreadTrace(thread={self.thread_id}, events={self.num_events})"


class Trace:
    """A complete multi-thread trace plus the allocation layout it used.

    Building a trace seals its threads (:meth:`ThreadTrace.seal`).
    """

    def __init__(self, threads: Sequence[ThreadTrace], name: str = ""):
        if not threads:
            raise TraceError("a trace needs at least one thread")
        ids = [t.thread_id for t in threads]
        if len(set(ids)) != len(ids):
            raise TraceError(f"duplicate thread ids: {ids}")
        self.threads = list(threads)
        self.name = name
        for thread in self.threads:
            thread.seal()

    @property
    def num_threads(self) -> int:
        """Number of thread streams."""
        return len(self.threads)

    @property
    def num_events(self) -> int:
        """Total events across all threads."""
        return sum(t.num_events for t in self.threads)

    def barrier_sequences(self) -> list[list[int]]:
        """Per-thread barrier id sequences, in thread order.

        Shared by :meth:`validate_barriers` and the trace linter's
        barrier-balance rule.
        """
        return [thread.barrier_ids() for thread in self.threads]

    def validate_barriers(self) -> None:
        """Check that every thread hits the same barrier sequence.

        The paper's workloads are bulk-synchronous; mismatched barrier
        sequences would deadlock the replay, so we fail fast here.
        """
        sequences = self.barrier_sequences()
        first = sequences[0]
        for thread, seq in zip(self.threads[1:], sequences[1:]):
            if seq != first:
                raise TraceError(
                    f"barrier sequence mismatch between thread "
                    f"{self.threads[0].thread_id} and {thread.thread_id}"
                )

    def columnar(self):
        """Memoized columnar (SoA) form of this trace.

        One concatenation of the threads' sealed rows, shared by every
        consumer that needs whole-trace columns: the C simulation kernel
        (all modes) and the analysis
        :class:`~repro.analysis.passes.PassManager` (strict pre-flight).
        The digest, ``save_trace`` and ``publish_trace`` read the
        per-thread rows directly, so a trace that is only digested (a
        warm-cache hit) carries no columnar copy.  The memo's arrays are
        read-only, and the rows it was built from cannot change because
        the threads are sealed.

        Raises :class:`~repro.common.errors.TraceError` (uncached) when
        hand-built tuples are not columnar-encodable.
        """
        cached = self.__dict__.get("_columnar")
        if cached is None:
            from repro.trace.columnar import ColumnarTrace

            cached = ColumnarTrace.from_thread_matrices(
                self.name,
                [thread.thread_id for thread in self.threads],
                [thread.rows() for thread in self.threads],
            )
            self.__dict__["_columnar"] = cached
        return cached

    def __getstate__(self) -> dict:
        # Keep pickle IPC (pool workers) lean: the columnar memo is
        # derived data, cheaper to rebuild than to ship twice.
        state = self.__dict__.copy()
        state.pop("_columnar", None)
        return state

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, threads={self.num_threads}, "
            f"events={self.num_events})"
        )
