"""Per-thread trace streams and the multi-thread trace container."""

from __future__ import annotations

from typing import Sequence

from repro.common.errors import TraceError
from repro.trace.events import (
    EV_ATOMIC,
    EV_BARRIER,
    EV_LOAD,
    EV_STORE,
    AtomicOp,
)


class ThreadTrace:
    """The recorded instruction stream of one virtual thread.

    The framework calls :meth:`load` / :meth:`store` / :meth:`atomic`
    for memory accesses and :meth:`work` for intervening non-memory
    instructions; the pending work count is folded into the next event's
    ``gap`` field.
    """

    __slots__ = ("thread_id", "events", "_pending_work")

    def __init__(self, thread_id: int):
        self.thread_id = thread_id
        self.events: list[tuple] = []
        self._pending_work = 0

    def work(self, instructions: int = 1) -> None:
        """Record ``instructions`` non-memory instructions."""
        if instructions < 0:
            raise TraceError("work count must be non-negative")
        self._pending_work += instructions

    def load(self, addr: int, size: int = 8) -> None:
        """Record a regular load."""
        self.events.append((EV_LOAD, addr, size, self._take_gap()))

    def store(self, addr: int, size: int = 8) -> None:
        """Record a regular store."""
        self.events.append((EV_STORE, addr, size, self._take_gap()))

    def atomic(
        self,
        op: AtomicOp,
        addr: int,
        size: int = 8,
        with_return: bool = True,
    ) -> None:
        """Record a host atomic instruction (lock-prefixed RMW)."""
        self.events.append(
            (EV_ATOMIC, addr, size, self._take_gap(), op, with_return)
        )

    def barrier(self, barrier_id: int) -> None:
        """Record participation in a global barrier."""
        # Pending work is charged before the barrier is entered.
        if self._pending_work:
            # Attach the work to the barrier via a zero-byte gap carrier:
            # the replay loop charges gap cycles before sync.
            self.events.append((EV_BARRIER, barrier_id, self._take_gap()))
        else:
            self.events.append((EV_BARRIER, barrier_id, 0))

    def _take_gap(self) -> int:
        gap = self._pending_work
        self._pending_work = 0
        return gap

    @property
    def num_events(self) -> int:
        """Number of recorded events."""
        return len(self.events)

    def __repr__(self) -> str:
        return (
            f"ThreadTrace(thread={self.thread_id}, events={len(self.events)})"
        )


class Trace:
    """A complete multi-thread trace plus the allocation layout it used."""

    def __init__(self, threads: Sequence[ThreadTrace], name: str = ""):
        if not threads:
            raise TraceError("a trace needs at least one thread")
        ids = [t.thread_id for t in threads]
        if len(set(ids)) != len(ids):
            raise TraceError(f"duplicate thread ids: {ids}")
        self.threads = list(threads)
        self.name = name

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
        return [
            [e[1] for e in thread.events if e[0] == EV_BARRIER]
            for thread in self.threads
        ]

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

        Built once by :func:`~repro.trace.columnar.encode_events`, the
        one tuple-to-row encoder, and then shared by every consumer of
        the trace: the C simulation kernel (all modes), the analysis
        :class:`~repro.analysis.passes.PassManager` (strict pre-flight),
        :func:`~repro.trace.io.save_trace` (the pool's npz spill) and
        :func:`~repro.runner.shm.publish_trace`.
        :func:`~repro.trace.io.trace_digest` deliberately does not build
        it, so a trace that is only digested (a warm-cache hit) carries
        no columnar copy.

        The memo's arrays are read-only, so a consumer cannot mutate the
        shared copy.  Appending events to the tuple form after the memo
        is built is not detected; traces are complete once capture ends.

        Raises :class:`~repro.common.errors.TraceError` (uncached) when
        the trace is not columnar-encodable.
        """
        cached = self.__dict__.get("_columnar")
        if cached is None:
            from repro.trace.columnar import ColumnarTrace

            cached = ColumnarTrace.from_events(self)
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
