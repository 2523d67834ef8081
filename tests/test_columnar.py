"""Columnar trace IR: lossless conversion and digest preservation."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import clear_preflight_cache
from repro.common.errors import TraceError
from repro.core.presets import workload_graph, workload_params
from repro.memlayout.regions import REGION_SHIFT, Region
from repro.runner.engine import execute_spec
from repro.runner.fingerprint import config_fingerprint, result_key
from repro.runner.spec import ExperimentSpec, RunnerConfig
from repro.sim.config import SystemConfig
from repro.trace.columnar import ColumnarTrace, as_columnar, encode_events
from repro.trace.events import EV_ATOMIC, EV_BARRIER, AtomicOp
from repro.trace.io import (
    load_columnar,
    load_trace,
    save_trace,
    trace_digest,
)
from repro.trace.stream import ThreadTrace, Trace
from repro.workloads.registry import FIGURE7_CODES, get_workload

PMR = int(Region.PROPERTY) << REGION_SHIFT
META = int(Region.META) << REGION_SHIFT


# ---------------------------------------------------------------------------
# Hypothesis: random builder-generated traces round-trip losslessly
# ---------------------------------------------------------------------------

_ops = st.sampled_from(list(AtomicOp))
_addr = st.integers(0, 1 << 44)
_size = st.integers(1, 64)


@st.composite
def _thread_events(draw):
    """A list of (method, args) actions for one ThreadTrace builder."""
    actions = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("load"), _addr, _size),
                st.tuples(st.just("store"), _addr, _size),
                st.tuples(
                    st.just("atomic"), _ops, _addr, _size, st.booleans()
                ),
                st.tuples(st.just("work"), st.integers(0, 50)),
                st.tuples(st.just("barrier"), st.integers(0, 5)),
            ),
            max_size=30,
        )
    )
    return actions


def _build_trace(per_thread_actions, name="hyp"):
    threads = []
    for tid, actions in enumerate(per_thread_actions):
        thread = ThreadTrace(tid)
        for action in actions:
            method, args = action[0], action[1:]
            if method == "load":
                thread.load(*args)
            elif method == "store":
                thread.store(*args)
            elif method == "atomic":
                op, addr, size, ret = args
                thread.atomic(op, addr, size, with_return=ret)
            elif method == "work":
                thread.work(*args)
            else:
                thread.barrier(*args)
        threads.append(thread)
    return Trace(threads, name=name)


@given(st.lists(_thread_events(), min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_roundtrip_is_identity(per_thread):
    trace = _build_trace(per_thread)
    back = ColumnarTrace.from_events(trace).to_events()
    assert back.name == trace.name
    assert [t.thread_id for t in back.threads] == [
        t.thread_id for t in trace.threads
    ]
    for original, restored in zip(trace.threads, back.threads):
        assert restored.events == original.events


@given(st.lists(_thread_events(), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_digest_is_representation_independent(per_thread):
    trace = _build_trace(per_thread)
    assert trace_digest(ColumnarTrace.from_events(trace)) == trace_digest(
        trace
    )


def test_roundtrip_empty_threads():
    trace = Trace([ThreadTrace(0), ThreadTrace(3)], name="empty")
    col = ColumnarTrace.from_events(trace)
    assert col.num_events == 0
    assert col.num_threads == 2
    back = col.to_events()
    assert [t.thread_id for t in back.threads] == [0, 3]
    assert all(not t.events for t in back.threads)
    assert trace_digest(col) == trace_digest(trace)


def test_roundtrip_barrier_only():
    threads = []
    for tid in range(2):
        t = ThreadTrace(tid)
        t.barrier(0)
        t.work(7)
        t.barrier(1)
        threads.append(t)
    trace = Trace(threads, name="barriers")
    back = ColumnarTrace.from_events(trace).to_events()
    for original, restored in zip(trace.threads, back.threads):
        assert restored.events == original.events


# ---------------------------------------------------------------------------
# Encodability boundary
# ---------------------------------------------------------------------------

def _trace_with_events(events):
    thread = ThreadTrace(0)
    thread.events.extend(events)
    return Trace([thread], name="bad")


@pytest.mark.parametrize(
    "event",
    [
        (99, 8, 8, 0),                     # unknown kind
        (0, 8, 8),                         # wrong arity for a load
        (2, 8, 8, 0, AtomicOp.ADD),        # wrong arity for an atomic
        (0, 8.5, 8, 0),                    # non-integer field
        (0, 1 << 80, 8, 0),                # exceeds int64
        (),                                # empty tuple
        (2.0, 8, 8, 0, AtomicOp.ADD, True),  # non-integer kind
        None,                              # not a tuple at all
    ],
)
def test_from_events_rejects_unencodable(event, tmp_path):
    # Alone, and last after a valid event: an empty tuple there is what
    # an offsets-based kind lookup would read past the end for.
    for index, events in enumerate(([event], [(0, 8, 8, 0), event])):
        trace = _trace_with_events(events)
        where = rf"thread 0 event {index}\b"
        with pytest.raises(TraceError, match=where):
            ColumnarTrace.from_events(trace)
        # Digest and spill share the encoder, so an unencodable trace
        # can neither alias another trace's cache key nor be written.
        with pytest.raises(TraceError, match=where):
            trace_digest(trace)
        with pytest.raises(TraceError, match=where):
            save_trace(trace, tmp_path / "bad.npz")


def test_encode_events_accepts_enum_and_bool():
    rows = encode_events([(EV_ATOMIC, PMR, 8, 3, AtomicOp.CAS, True)])
    assert rows.dtype == np.int64
    assert rows.tolist() == [[EV_ATOMIC, PMR, 8, 3, int(AtomicOp.CAS), 1]]


def test_as_columnar_passthrough():
    trace = _build_trace([[("load", META, 8)]])
    col = as_columnar(trace)
    assert as_columnar(col) is col


def test_columnar_memo_is_read_only():
    trace = _sample_trace()
    col = trace.columnar()
    assert trace.columnar() is col
    with pytest.raises(ValueError, match="read-only"):
        col.addr[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        col.starts[-1] = 0


def test_structural_validation():
    with pytest.raises(TraceError):
        ColumnarTrace(
            name="x",
            thread_ids=np.array([], dtype=np.int64),
            starts=np.array([0], dtype=np.int64),
            kind=np.array([], dtype=np.int64),
            addr=np.array([], dtype=np.int64),
            size=np.array([], dtype=np.int64),
            gap=np.array([], dtype=np.int64),
            op=np.array([], dtype=np.int64),
            ret=np.array([], dtype=np.int64),
        )
    with pytest.raises(TraceError, match="duplicate"):
        ColumnarTrace.from_thread_matrices(
            "x", [1, 1], [np.empty((0, 6)), np.empty((0, 6))]
        )


# ---------------------------------------------------------------------------
# Derived arrays
# ---------------------------------------------------------------------------

def test_epoch_ids_match_barrier_structure():
    t0 = ThreadTrace(0)
    t0.load(META, 8)
    t0.barrier(0)
    t0.store(META + 8, 8)
    t0.barrier(1)
    t1 = ThreadTrace(1)
    t1.barrier(0)
    t1.barrier(1)
    col = ColumnarTrace.from_events(Trace([t0, t1], name="e"))
    # Barrier rows carry the epoch they close.
    assert col.epoch_ids().tolist() == [0, 0, 1, 1, 0, 1]
    assert col.event_thread_pos().tolist() == [0, 0, 0, 0, 1, 1]
    assert col.event_index_in_thread().tolist() == [0, 1, 2, 3, 0, 1]
    col.validate_barriers()


def test_validate_barriers_mismatch():
    t0 = ThreadTrace(0)
    t0.barrier(0)
    t1 = ThreadTrace(1)
    t1.barrier(1)
    col = ColumnarTrace.from_events(Trace([t0, t1], name="m"))
    with pytest.raises(TraceError, match="barrier sequence mismatch"):
        col.validate_barriers()


# ---------------------------------------------------------------------------
# npz interop and cache-key stability
# ---------------------------------------------------------------------------

def _sample_trace():
    threads = []
    for tid in range(3):
        t = ThreadTrace(tid)
        t.load(META + 64 * tid, 8)
        t.atomic(AtomicOp.ADD, PMR + 64 * tid, 8, with_return=False)
        t.barrier(0)
        t.store(META + 4096 + 64 * tid, 4)
        threads.append(t)
    return Trace(threads, name="sample")


def test_save_load_interop(tmp_path):
    trace = _sample_trace()
    col = ColumnarTrace.from_events(trace)

    tuple_path = tmp_path / "tuple.npz"
    col_path = tmp_path / "columnar.npz"
    save_trace(trace, tuple_path)
    save_trace(col, col_path)
    # Both forms serialize to byte-identical content.
    assert tuple_path.read_bytes() == col_path.read_bytes()

    loaded_tuple = load_trace(col_path)
    loaded_col = load_columnar(tuple_path)
    assert trace_digest(loaded_tuple) == trace_digest(trace)
    assert trace_digest(loaded_col) == trace_digest(trace)
    for original, restored in zip(trace.threads, loaded_tuple.threads):
        assert restored.events == original.events


def test_result_cache_key_survives_representation_change(tmp_path):
    """The digest feeding result_key is identical for both forms, so
    cache entries written before the columnar IR stay hot after it."""
    trace = _sample_trace()
    col = ColumnarTrace.from_events(trace)
    config = SystemConfig.graphpim()
    fingerprint = config_fingerprint(config)
    key_tuple = result_key(trace_digest(trace), fingerprint, "salt")
    key_col = result_key(trace_digest(col), fingerprint, "salt")
    assert key_tuple == key_col

    # And through a save/load cycle of the columnar form.
    path = tmp_path / "t.npz"
    save_trace(col, path)
    assert (
        result_key(trace_digest(load_columnar(path)), fingerprint, "salt")
        == key_tuple
    )


# ---------------------------------------------------------------------------
# One encoder: golden digests and conversions per job
# ---------------------------------------------------------------------------

#: trace_digest of the tiny Figure-7 traces (workload_graph seed 7, 16
#: threads).  Cache keys and spec_keys are built on these, so any change
#: to the encoding must leave them byte-identical.
_GOLDEN_TINY_DIGESTS = {
    "BFS": "e05b0a2d9608a46ace3c71966a2e5080c7efa861bd95f98e8ac80b8c7049596b",
    "CComp": "eb71b538dce01ad369ff7ea35aed63eab46e517e0475bc0d6c1f5a756f12f340",
    "DC": "1d1656f455928a56fdd98e164cf790a883099c6f8eca92891497b241be69ec7b",
    "kCore": "63088ce39c0220029358dd63e4c8f1b3200b98d7078d8767d4ef5137183a801b",
    "SSSP": "e19e6fab8365e735485ea3b1527845e2478dd97b43e600eaf1aaf1f4147caf2a",
    "TC": "285854d5005bc91246199dd1eaa10d5965a8d05a54999935f77be0070453972b",
    "BC": "003d5aeb263b4b51f4eec5ea35347c36a2f510018dc611145ab0b8640fae0be2",
    "PRank": "177a25291fb6e01000d851971d75af7f540ee1340a5f0a23e2a2988ff84d41b2",
}


def test_golden_tiny_figure7_digests():
    assert sorted(_GOLDEN_TINY_DIGESTS) == sorted(FIGURE7_CODES)
    for code, expected in _GOLDEN_TINY_DIGESTS.items():
        run = get_workload(code).run(
            workload_graph(code, "tiny"),
            num_threads=16,
            **workload_params(code),
        )
        assert trace_digest(run.trace) == expected, code
        assert trace_digest(run.trace.columnar()) == expected, code


def test_strict_job_encodes_each_thread_twice(monkeypatch):
    """Digest once, memo once; pre-flight, kernel and spill share it."""
    import repro.trace.columnar as columnar_mod
    import repro.trace.io as io_mod

    calls: Counter = Counter()
    encode = columnar_mod.encode_events

    def counting_encode(events, thread_id=0):
        calls[thread_id] += 1
        return encode(events, thread_id)

    for module in (columnar_mod, io_mod):
        monkeypatch.setattr(module, "encode_events", counting_encode)
    clear_preflight_cache()
    spec = ExperimentSpec.for_workload(
        "BFS",
        "tiny",
        modes=SystemConfig().evaluation_trio(),
        params=workload_params("BFS"),
    )
    payload = execute_spec(
        spec, RunnerConfig(strict=True, parallel=False, cache_dir=None)
    )
    threads = payload["run"].trace.num_threads
    assert not any(mode["cached"] for mode in payload["modes"].values())
    assert calls == Counter({tid: 2 for tid in range(threads)})
