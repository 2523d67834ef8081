"""Trace serialization and content digest.

Phase-1 trace generation (functional workload execution) is the
expensive half of the pipeline for large graphs; saving traces lets a
user trace once and replay under many system configurations, across
processes.  Traces are stored as compressed ``.npz`` bundles with one
column-oriented array set per thread.

Event columns: ``kind``, ``addr``, ``size`` (barrier id for barrier
events), ``gap``, ``op`` (-1 when not an atomic), ``ret`` (0/1).

Every per-thread matrix written or hashed here comes from the one
encoder, :func:`~repro.trace.columnar.encode_events`.  :func:`save_trace`
reads a tuple trace's memoized :meth:`Trace.columnar()
<repro.trace.stream.Trace.columnar>` form, the same conversion the
simulation kernel, the analysis passes and the shared-memory publish
use.  :func:`trace_digest` encodes thread by thread and keeps nothing,
so digesting a trace never pins a columnar copy on it.  One file loads
as either representation, and both hash to the same digest — so cache
keys and spec_keys never depend on which representation produced the
trace.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
import zlib
from typing import Iterable, Union

import numpy as np

from repro.common.errors import TraceError
from repro.trace.columnar import ColumnarTrace, as_columnar, encode_events
from repro.trace.events import (
    EV_ATOMIC,
    EV_BARRIER,
    EV_LOAD,
    EV_STORE,
    AtomicOp,
)
from repro.trace.stream import ThreadTrace, Trace

_FORMAT_VERSION = 1

AnyTrace = Union[Trace, ColumnarTrace]


def decode_thread_matrix(thread_id: int, rows: np.ndarray) -> ThreadTrace:
    """Unpack an (N, 6) matrix back into event tuples."""
    thread = ThreadTrace(thread_id)
    events = thread.events
    for kind, addr, size, gap, op, ret in rows.tolist():
        if kind == EV_BARRIER:
            events.append((EV_BARRIER, size, gap))
        elif kind == EV_ATOMIC:
            try:
                decoded_op: AtomicOp | int = AtomicOp(op)
            except ValueError:
                # Preserve the raw value: the trace linter reports
                # unknown ops (TRC003/PIM001) with their event index.
                decoded_op = op
            events.append(
                (EV_ATOMIC, addr, size, gap, decoded_op, bool(ret))
            )
        elif kind in (EV_LOAD, EV_STORE):
            events.append((kind, addr, size, gap))
        else:
            raise TraceError(f"unknown event kind {kind} in trace file")
    return thread


def _thread_matrices(trace: AnyTrace) -> "list[tuple[int, np.ndarray]]":
    """Canonical per-thread (id, (N, 6) matrix) pairs for either form.

    A tuple trace is read through its :meth:`Trace.columnar` memo, so
    raises :class:`TraceError` when it is not encodable.
    """
    col = as_columnar(trace)
    return [
        (int(tid), col.thread_matrix(pos))
        for pos, tid in enumerate(col.thread_ids.tolist())
    ]


def trace_digest(trace: AnyTrace) -> str:
    """Stable content hash of a trace (sha256 hex digest).

    Hashes the same column-oriented encoding the ``.npz`` format uses,
    so the digest identifies the trace *content* independently of how
    it was produced (fresh execution, loaded from disk, tuple form, or
    columnar form).  The experiment runner keys its on-disk result
    cache on this, and the strict pre-flight uses it to skip re-linting
    an already-clean trace.

    A tuple trace is encoded one thread at a time and nothing is kept:
    the digest deliberately bypasses the :meth:`Trace.columnar` memo.
    Raises :class:`TraceError` when a tuple trace is not encodable, so
    two different traces can never share a key.
    """
    if isinstance(trace, ColumnarTrace):
        pairs: "Iterable[tuple[int, np.ndarray]]" = _thread_matrices(trace)
    else:
        # Going through the memo would pin a columnar copy on every
        # digested trace, and a warm-cache grid digests every trace it
        # returns without ever simulating one: doing so raised the
        # serial warm Figure-7 grid's peak RSS (tiny scale, 2-CPU
        # host) from 125.0 to 157.4 MB.
        pairs = (
            (thread.thread_id, encode_events(thread.events, thread.thread_id))
            for thread in trace.threads
        )
    digest = hashlib.sha256()
    digest.update(str(trace.num_threads).encode())
    for thread_id, matrix in pairs:
        digest.update(str(thread_id).encode())
        digest.update(matrix.tobytes())
    return digest.hexdigest()


def save_trace(trace: AnyTrace, path: str | os.PathLike) -> None:
    """Write a trace (tuple or columnar form) to a ``.npz`` bundle.

    Raises :class:`TraceError` when a tuple trace is not encodable.
    """
    payload = {
        "version": np.asarray([_FORMAT_VERSION]),
        "name": np.asarray([trace.name]),
    }
    pairs = _thread_matrices(trace)
    payload["thread_ids"] = np.asarray(
        [tid for tid, _ in pairs], dtype=np.int64
    )
    for thread_id, matrix in pairs:
        payload[f"thread_{thread_id}"] = matrix
    np.savez_compressed(path, **payload)


def _read_bundle(path: str | os.PathLike) -> "tuple[str, list, list]":
    """Load and version-check an ``.npz`` bundle's raw arrays.

    Returns ``(name, thread_ids, matrices)``; normalizes the grab-bag
    of load-time failures (truncated zip, missing member, corrupt
    deflate stream, non-npz bytes) to :class:`TraceError` so callers
    have one failure mode — and the CLI one exit code (2).
    """
    try:
        with np.load(path, allow_pickle=False) as bundle:
            version = int(bundle["version"][0])
            if version != _FORMAT_VERSION:
                raise TraceError(
                    f"unsupported trace format version {version} "
                    f"(expected {_FORMAT_VERSION})"
                )
            name = str(bundle["name"][0])
            thread_ids = bundle["thread_ids"].tolist()
            matrices = [bundle[f"thread_{tid}"] for tid in thread_ids]
    except FileNotFoundError:
        raise
    except TraceError as error:
        raise TraceError(f"{os.fspath(path)}: {error}") from None
    except (
        OSError,
        ValueError,
        KeyError,
        EOFError,
        zipfile.BadZipFile,
        zlib.error,
    ) as error:
        # np.load raises a grab-bag depending on *how* the file is bad
        # (truncated zip, missing member, non-npz bytes, a member whose
        # deflate stream is corrupt); normalize to TraceError so
        # callers have one failure mode, and keep the path — np's own
        # messages often omit it.
        raise TraceError(
            f"{os.fspath(path)}: not a readable trace bundle ({error})"
        ) from error
    return name, thread_ids, matrices


def load_trace(path: str | os.PathLike, validate: bool = True) -> Trace:
    """Read a trace previously written by :func:`save_trace`.

    ``validate=False`` skips the fail-fast barrier check so analysis
    tools (``repro lint``) can load a malformed trace and report *what*
    is wrong instead of dying on the first inconsistency.
    """
    name, thread_ids, matrices = _read_bundle(path)
    try:
        threads = [
            decode_thread_matrix(tid, rows)
            for tid, rows in zip(thread_ids, matrices)
        ]
    except TraceError as error:
        raise TraceError(f"{os.fspath(path)}: {error}") from None
    trace = Trace(threads, name=name)
    if validate:
        trace.validate_barriers()
    return trace


def load_columnar(
    path: str | os.PathLike, validate: bool = True
) -> ColumnarTrace:
    """Read a trace bundle directly into the columnar form.

    This is the fast path — pure array concatenation, no per-event
    tuple materialization — and the representation the vectorized
    analysis passes and the batch kernel consume.  ``validate=False``
    skips the barrier-balance fail-fast exactly like :func:`load_trace`
    (unknown event kinds still raise: they are unrepresentable in
    either form).
    """
    name, thread_ids, matrices = _read_bundle(path)
    try:
        columnar = ColumnarTrace.from_thread_matrices(
            name, thread_ids, matrices
        )
    except TraceError as error:
        raise TraceError(f"{os.fspath(path)}: {error}") from None
    if validate:
        columnar.validate_barriers()
    return columnar
