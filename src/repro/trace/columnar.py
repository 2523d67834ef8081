"""Columnar (structure-of-arrays) trace representation.

:class:`ColumnarTrace` stores a multi-thread event stream as six flat
``int64`` numpy columns — ``kind``, ``addr``, ``size``, ``gap``, ``op``,
``ret`` — laid out thread-major (all of thread 0's events, then all of
thread 1's, ...), with a ``starts`` offset array delimiting the
per-thread segments.  Each event is one row of the canonical (N, 6)
encoding, the layout :class:`~repro.trace.stream.ThreadTrace` captures
in and that the ``.npz`` trace format (:mod:`repro.trace.io`), the
shared-memory transport (:mod:`repro.runner.shm`) and
:func:`~repro.trace.io.trace_digest` all use::

    load/store : (kind, addr,       size, gap, -1, 0)
    atomic     : (kind, addr,       size, gap, op, with_return)
    barrier    : (kind, 0,    barrier_id,  gap, -1, 0)

A captured trace already holds these rows, so its columnar form is one
concatenation: the memoized :meth:`Trace.columnar()
<repro.trace.stream.Trace.columnar>` (reached through
:func:`as_columnar`) that the C simulation kernel and the vectorized
analysis passes read.  Its arrays are read-only: the memo is shared,
and a consumer that tries to write into it raises instead of
corrupting every later reader.

:func:`encode_events` is the one function that turns event tuples into
rows; it serves only threads built from hand-written tuples
(:meth:`ThreadTrace.from_events
<repro.trace.stream.ThreadTrace.from_events>`).  Converting between the
tuple view and the rows is lossless, so the content digest — and with
it every ``.repro_cache/`` result key and service spec_key — is the
same for every form.

Encodability: an event tuple is columnar-encodable when it has a known
kind, the exact arity for that kind, and integer fields (anything
:func:`operator.index` accepts) that fit in int64.  Traces carrying
malformed tuples raise :class:`~repro.common.errors.TraceError` naming
the first bad event; analysis callers fall back to the per-event
implementations for those, which report the corruption as findings
instead of dying.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterator, NoReturn, Sequence

import numpy as np

from repro.common.errors import TraceError
from repro.trace.events import (
    EV_ATOMIC,
    EV_BARRIER,
    EV_LOAD,
    EV_STORE,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.stream import Trace

#: Tuple field names per event kind (the encodable subset); the kind
#: itself is field 0, so a kind's arity is ``len(fields) + 1``.
_EVENT_FIELDS = {
    EV_LOAD: ("addr", "size", "gap"),
    EV_STORE: ("addr", "size", "gap"),
    EV_ATOMIC: ("addr", "size", "gap", "atomic op", "with_return"),
    EV_BARRIER: ("barrier id", "gap"),
}

_COLUMNS = ("kind", "addr", "size", "gap", "op", "ret")

#: Tuple arity indexed by kind code (kinds are 0..3).
_ARITY = np.array(
    [len(_EVENT_FIELDS[k]) + 1 for k in range(len(_EVENT_FIELDS))],
    dtype=np.int64,
)

#: Where each output column comes from, indexed by kind code: a
#: non-negative entry is the tuple position, -1 the constant -1 and -2
#: the constant 0.
_ROW_TEMPLATE = np.array(
    [
        [0, 1, 2, 3, -1, -2],  # load
        [0, 1, 2, 3, -1, -2],  # store
        [0, 1, 2, 3, 4, 5],  # atomic
        [0, -2, 1, 2, -1, -2],  # barrier
    ],
    dtype=np.int64,
)

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def encode_events(
    events: Sequence[tuple], thread_id: int = 0
) -> np.ndarray:
    """Encode one thread's event tuples as the canonical (N, 6) matrix.

    All fields go through one C-level int64 conversion (which rejects
    non-integers and out-of-range values without a Python loop); arity
    is then checked against kind and the rows are laid out with one
    numpy gather.  Raises :class:`TraceError` naming the first event
    the columnar form cannot represent losslessly.
    """
    count = len(events)
    if count == 0:
        return np.empty((0, 6), dtype=np.int64)
    try:
        flat = array("q", chain.from_iterable(events))
        lengths = np.fromiter(map(len, events), dtype=np.int64, count=count)
    except (TypeError, OverflowError):
        _raise_first_bad(events, thread_id)
    total = len(flat)
    # Two constant slots past the fields: the -1 and 0 fillers.
    flat.extend((-1, 0))
    values = np.frombuffer(flat, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    # An empty tuple's start is the next event's (or past the end), so
    # kinds are only read once every event is known to be non-empty.
    if not lengths.all():
        _raise_first_bad(events, thread_id)
    kinds = values[starts]
    if (
        int(kinds.min()) < 0
        or int(kinds.max()) >= _ARITY.size
        or not np.array_equal(_ARITY[kinds], lengths)
    ):
        _raise_first_bad(events, thread_id)
    template = _ROW_TEMPLATE[kinds]
    index = starts[:, None] + template
    filler = template < 0
    index[filler] = total - 1 - template[filler]
    return values[index]


def _raise_first_bad(events: Sequence[tuple], thread_id: int) -> NoReturn:
    """Raise :class:`TraceError` for the first unencodable event.

    Only reached once the fast path in :func:`encode_events` has failed,
    so the per-event Python loop costs nothing on valid traces.
    """
    for i, event in enumerate(events):
        where = f"thread {thread_id} event {i}"
        try:
            kind = operator.index(event[0])
        except (TypeError, IndexError):
            kind = None
        fields = _EVENT_FIELDS.get(kind)  # type: ignore[arg-type]
        if fields is None:
            raise TraceError(
                f"{where}: unknown event kind in {event!r} "
                "(not columnar-encodable)"
            )
        if len(event) != len(fields) + 1:
            raise TraceError(
                f"{where}: kind {kind} has arity {len(event)}, expected "
                f"{len(fields) + 1} (not columnar-encodable)"
            )
        for what, value in zip(fields, event[1:]):
            try:
                number = operator.index(value)
            except TypeError:
                raise TraceError(
                    f"{where}: {what} {value!r} is not an integer "
                    "(not columnar-encodable)"
                ) from None
            if not _INT64_MIN <= number <= _INT64_MAX:
                raise TraceError(
                    f"{where}: {what} exceeds int64 range "
                    "(not columnar-encodable)"
                )
    raise TraceError(f"thread {thread_id}: not columnar-encodable")


def check_kinds(kinds: np.ndarray) -> None:
    """Raise :class:`TraceError` on an event kind outside the layout."""
    unknown = (kinds < 0) | (kinds >= _ARITY.size)
    if unknown.any():
        bad = kinds[unknown][0]
        raise TraceError(f"unknown event kind {int(bad)} in trace file")


@dataclass
class ColumnarTrace:
    """Structure-of-arrays form of a multi-thread trace.

    All six columns are flat ``int64`` arrays of length ``num_events``;
    ``starts`` has ``num_threads + 1`` entries and thread ``t``'s events
    occupy ``[starts[t], starts[t + 1])``.  Every array is read-only
    once the trace is built.
    """

    name: str
    thread_ids: np.ndarray
    starts: np.ndarray
    kind: np.ndarray
    addr: np.ndarray
    size: np.ndarray
    gap: np.ndarray
    op: np.ndarray
    ret: np.ndarray

    def __post_init__(self) -> None:
        self.thread_ids = np.asarray(self.thread_ids, dtype=np.int64)
        self.starts = np.asarray(self.starts, dtype=np.int64)
        for column in _COLUMNS:
            setattr(
                self,
                column,
                np.asarray(getattr(self, column), dtype=np.int64),
            )
        if self.thread_ids.size == 0:
            raise TraceError("a trace needs at least one thread")
        if len(set(self.thread_ids.tolist())) != self.thread_ids.size:
            raise TraceError(
                f"duplicate thread ids: {self.thread_ids.tolist()}"
            )
        if self.starts.size != self.thread_ids.size + 1:
            raise TraceError(
                "starts must have num_threads + 1 entries "
                f"(got {self.starts.size} for {self.thread_ids.size} "
                f"threads)"
            )
        total = int(self.starts[-1])
        if int(self.starts[0]) != 0 or np.any(np.diff(self.starts) < 0):
            raise TraceError("starts must be non-decreasing from 0")
        for column in _COLUMNS:
            if getattr(self, column).size != total:
                raise TraceError(
                    f"column {column!r} has {getattr(self, column).size} "
                    f"entries, expected {total}"
                )
        # The tuple trace's memo is shared by every consumer; freezing
        # makes "no mutation after capture" a checked invariant.
        for array_ in (self.thread_ids, self.starts) + tuple(
            getattr(self, column) for column in _COLUMNS
        ):
            array_.flags.writeable = False

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def num_threads(self) -> int:
        """Number of thread streams."""
        return int(self.thread_ids.size)

    @property
    def num_events(self) -> int:
        """Total events across all threads."""
        return int(self.starts[-1])

    def thread_slice(self, pos: int) -> slice:
        """Row slice of the thread at position ``pos`` (not thread id)."""
        return slice(int(self.starts[pos]), int(self.starts[pos + 1]))

    def iter_threads(self) -> Iterator[tuple[int, slice]]:
        """Yield ``(thread_id, row_slice)`` in thread order."""
        for pos in range(self.num_threads):
            yield int(self.thread_ids[pos]), self.thread_slice(pos)

    # ------------------------------------------------------------------
    # Derived per-event arrays (used by the vectorized passes)
    # ------------------------------------------------------------------

    def event_thread_pos(self) -> np.ndarray:
        """Thread *position* (0..T-1) of every event, thread-major."""
        counts = np.diff(self.starts)
        return np.repeat(
            np.arange(self.num_threads, dtype=np.int64), counts
        )

    def event_index_in_thread(self) -> np.ndarray:
        """Index of every event within its own thread's stream."""
        pos = self.event_thread_pos()
        return (
            np.arange(self.num_events, dtype=np.int64) - self.starts[pos]
        )

    def epoch_ids(self) -> np.ndarray:
        """Barrier-epoch index of every event within its thread.

        Epoch ``k`` spans the events after a thread's ``k``-th barrier
        (and before its ``k+1``-th); barrier events themselves carry the
        index of the epoch they close, mirroring the legacy race
        detector's ``_split_epochs`` segmentation.
        """
        out = np.empty(self.num_events, dtype=np.int64)
        for _tid, rows in self.iter_threads():
            is_barrier = self.kind[rows] == EV_BARRIER
            closed = np.cumsum(is_barrier)
            out[rows] = closed - is_barrier
        return out

    def lines(self) -> np.ndarray:
        """64-byte cache-line index of every event's address."""
        return self.addr >> 6

    def vault_ids(self, num_vaults: int) -> np.ndarray:
        """HMC vault of every event (low line bits, the device mapping)."""
        return (self.addr >> 6) % num_vaults

    def bank_ids(self, banks_per_vault: int) -> np.ndarray:
        """DRAM bank within the vault of every event."""
        return (self.addr >> 11) % banks_per_vault

    def region_ids(self, region_shift: int) -> np.ndarray:
        """Memory-layout region index (:mod:`repro.memlayout.regions`)."""
        return self.addr >> region_shift

    def barrier_sequences(self) -> list[np.ndarray]:
        """Per-thread barrier id arrays, in thread order."""
        sequences = []
        for _tid, rows in self.iter_threads():
            mask = self.kind[rows] == EV_BARRIER
            sequences.append(self.size[rows][mask])
        return sequences

    def validate_barriers(self) -> None:
        """Fail fast on mismatched per-thread barrier sequences."""
        sequences = self.barrier_sequences()
        first = sequences[0]
        for pos in range(1, self.num_threads):
            seq = sequences[pos]
            if seq.size != first.size or not np.array_equal(seq, first):
                raise TraceError(
                    f"barrier sequence mismatch between thread "
                    f"{int(self.thread_ids[0])} and "
                    f"{int(self.thread_ids[pos])}"
                )

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    @classmethod
    def from_events(cls, trace: "Trace") -> "ColumnarTrace":
        """A fresh (unmemoized) columnar copy of a :class:`Trace`.

        Concatenates the threads' rows; only hand-built tuple threads
        go through :func:`encode_events`, which raises
        :class:`TraceError` when an event is not columnar-encodable.
        Production readers use the memoized :meth:`Trace.columnar`.
        """
        return cls.from_thread_matrices(
            trace.name,
            [thread.thread_id for thread in trace.threads],
            [thread.rows() for thread in trace.threads],
        )

    def thread_matrix(self, pos: int) -> np.ndarray:
        """One thread's events as the canonical (N, 6) int64 matrix.

        Byte-identical to the rows the thread was captured in, which
        :func:`repro.trace.io.save_trace` writes and
        :func:`repro.trace.io.trace_digest` hashes: that is what keeps
        digests representation-independent.
        """
        rows = self.thread_slice(pos)
        return np.ascontiguousarray(
            np.column_stack(
                [getattr(self, column)[rows] for column in _COLUMNS]
            )
        )

    def to_events(self) -> "Trace":
        """A :class:`Trace` over this trace's rows (no tuples are built
        until a reader asks for :attr:`ThreadTrace.events`)."""
        from repro.trace.stream import ThreadTrace, Trace

        threads = [
            ThreadTrace.from_rows(tid, self.thread_matrix(pos))
            for pos, tid in enumerate(self.thread_ids.tolist())
        ]
        return Trace(threads, name=self.name)

    @classmethod
    def from_thread_matrices(
        cls,
        name: str,
        thread_ids: Sequence[int],
        matrices: Sequence[np.ndarray],
    ) -> "ColumnarTrace":
        """Assemble from per-thread (N, 6) matrices (the npz layout)."""
        mats = [
            np.asarray(m, dtype=np.int64).reshape(-1, 6) for m in matrices
        ]
        counts = [m.shape[0] for m in mats]
        starts = np.zeros(len(mats) + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        # One copy, straight into column-major order: every column is a
        # contiguous row of ``table``.
        table = np.empty((6, int(starts[-1])), dtype=np.int64)
        if mats:
            np.concatenate([m.T for m in mats], axis=1, out=table)
        check_kinds(table[0])
        columns = {column: table[i] for i, column in enumerate(_COLUMNS)}
        return cls(
            name=name,
            thread_ids=np.asarray(thread_ids, dtype=np.int64),
            starts=starts,
            **columns,
        )

    def __repr__(self) -> str:
        return (
            f"ColumnarTrace(name={self.name!r}, "
            f"threads={self.num_threads}, events={self.num_events})"
        )


def as_columnar(trace) -> ColumnarTrace:
    """Coerce a :class:`Trace` or :class:`ColumnarTrace` to columnar.

    A :class:`Trace` goes through its :meth:`Trace.columnar` memo, so
    the concatenation is paid once per trace object no matter how many
    passes and simulations consume it.
    """
    if isinstance(trace, ColumnarTrace):
        return trace
    return trace.columnar()
