"""Capture contract: threads record canonical rows, tuples are a view.

Every production reader (digest, columnar memo, barrier check, save,
shm publish/attach, statistics) works on the captured rows; the tuple
form is decoded only for the reference interpreter, the oracle
analyzers and tests.
"""

import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import TraceError
from repro.core.presets import workload_graph, workload_params
from repro.memlayout.regions import REGION_SHIFT, Region, region_of
from repro.runner.engine import ExperimentRunner, evaluation_grid_specs
from repro.runner.shm import attach_trace, publish_trace, unlink_segment
from repro.runner.spec import RunnerConfig
from repro.trace import stream as stream_mod
from repro.trace.columnar import ColumnarTrace, encode_events
from repro.trace.events import EV_ATOMIC, EV_BARRIER, EV_LOAD, EV_STORE, AtomicOp
from repro.trace.io import load_trace, save_trace, trace_digest
from repro.trace.stats import TraceStats, summarize_trace
from repro.trace.stream import ThreadTrace, Trace
from repro.workloads.registry import FIGURE7_CODES, get_workload

PMR = int(Region.PROPERTY) << REGION_SHIFT
META = int(Region.META) << REGION_SHIFT

_action = st.one_of(
    st.tuples(st.just("load"), st.integers(0, 1 << 44), st.integers(1, 64)),
    st.tuples(st.just("store"), st.integers(0, 1 << 44), st.integers(1, 64)),
    st.tuples(
        st.just("atomic"),
        st.one_of(st.sampled_from(list(AtomicOp)), st.integers(11, 99)),
        st.integers(0, 1 << 44),
        st.integers(1, 64),
        st.booleans(),
    ),
    st.tuples(st.just("work"), st.integers(0, 1000)),
    st.tuples(st.just("barrier"), st.integers(0, 1 << 40)),
)


def _record(thread_id, actions):
    thread = ThreadTrace(thread_id)
    for method, *args in actions:
        if method == "atomic":
            op, addr, size, ret = args
            thread.atomic(op, addr, size, with_return=ret)
        else:
            getattr(thread, method)(*args)
    return thread


@given(st.lists(st.lists(_action, max_size=40), min_size=1, max_size=3))
@settings(max_examples=80, deadline=None)
def test_captured_rows_equal_encoded_view(per_thread):
    threads = [_record(tid, actions) for tid, actions in enumerate(per_thread)]
    for thread in threads:
        # Before and after sealing, the rows are what the one encoder
        # makes of the decoded view.
        assert thread.rows().tobytes() == encode_events(
            thread.events, thread.thread_id
        ).tobytes()
    trace = Trace(threads, name="hyp")
    rebuilt = Trace(
        [ThreadTrace.from_events(t.thread_id, t.events) for t in threads],
        name="hyp",
    )
    for thread in threads:
        assert thread.rows().tobytes() == encode_events(
            thread.events, thread.thread_id
        ).tobytes()
    assert trace_digest(rebuilt) == trace_digest(trace)
    assert trace_digest(trace.columnar()) == trace_digest(trace)


def _sample_trace():
    threads = []
    for tid in range(3):
        thread = ThreadTrace(tid)
        thread.work(tid)
        thread.load(META + 64 * tid, 8)
        thread.atomic(AtomicOp.FP_ADD, PMR + 64 * tid, 8, with_return=False)
        thread.atomic(99, PMR, 8)  # raw op outside AtomicOp
        thread.barrier(0)
        thread.store(META + 4096, 4)
        threads.append(thread)
    return Trace(threads, name="sample")


def _events(trace):
    return [(t.thread_id, t.events) for t in trace.threads]


def test_tuple_view_layouts():
    trace = _sample_trace()
    assert trace.threads[2].events == [
        (EV_LOAD, META + 128, 8, 2),
        (EV_ATOMIC, PMR + 128, 8, 0, AtomicOp.FP_ADD, False),
        (EV_ATOMIC, PMR, 8, 0, 99, True),
        (EV_BARRIER, 0, 0),
        (EV_STORE, META + 4096, 4, 0),
    ]
    view = trace.threads[0].events
    view.clear()
    assert trace.threads[0].num_events == 5


@pytest.mark.parametrize(
    "append",
    [
        lambda t: t.load(META),
        lambda t: t.store(META),
        lambda t: t.atomic(AtomicOp.ADD, PMR),
        lambda t: t.barrier(1),
    ],
)
def test_append_after_seal_raises(append, tmp_path):
    trace = _sample_trace()
    digest = trace_digest(trace)
    with pytest.raises(TraceError, match="sealed"):
        append(trace.threads[1])
    assert trace_digest(trace) == digest
    path = tmp_path / "t.npz"
    save_trace(trace, path)
    for thread in (
        load_trace(path).threads[0],
        ThreadTrace.from_events(0, []),
        pickle.loads(pickle.dumps(trace)).threads[0],
    ):
        with pytest.raises(TraceError, match="sealed"):
            append(thread)


def test_unsealed_thread_pickles_and_keeps_capturing():
    thread = ThreadTrace(4)
    thread.load(META)
    thread.work(3)
    copy = pickle.loads(pickle.dumps(thread))
    copy.store(META + 8)
    assert copy.events == [(EV_LOAD, META, 8, 0), (EV_STORE, META + 8, 8, 3)]


def test_pickle_round_trip():
    trace = _sample_trace()
    trace.columnar()  # the memo is not shipped
    back = pickle.loads(pickle.dumps(trace))
    assert "_columnar" not in back.__dict__
    assert back.name == trace.name
    assert _events(back) == _events(trace)
    assert trace_digest(back) == trace_digest(trace)
    hand_built = Trace([ThreadTrace.from_events(0, [(99, 1, 2, 3)])])
    assert pickle.loads(pickle.dumps(hand_built)).threads[0].events == [
        (99, 1, 2, 3)
    ]


def test_loaded_and_attached_events_equal_captured(tmp_path):
    trace = _sample_trace()
    path = tmp_path / "t.npz"
    save_trace(trace, path)
    ref = publish_trace(trace)
    try:
        attached = attach_trace(ref)
    finally:
        unlink_segment(ref.name)
    for other in (load_trace(path), attached, trace.columnar().to_events()):
        assert _events(other) == _events(trace)
        assert trace_digest(other) == trace_digest(trace)


def test_stored_rows_with_unknown_kind_are_rejected(tmp_path):
    rows = np.array([[0, META, 8, 0, -1, 0], [7, META, 8, 0, -1, 0]])
    with pytest.raises(TraceError, match="unknown event kind 7"):
        ThreadTrace.from_rows(0, rows)
    path = tmp_path / "bad.npz"
    np.savez_compressed(
        path, version=np.asarray([1]), name=np.asarray(["bad"]),
        thread_ids=np.asarray([0]), thread_0=rows,
    )
    with pytest.raises(TraceError, match="unknown event kind 7"):
        load_trace(path, validate=False)


def test_from_events_encodes_lazily():
    thread = ThreadTrace.from_events(0, [(EV_LOAD, META, 8, 0), (0, 8, 8)])
    trace = Trace([thread], name="bad")  # building it does not encode
    assert thread.num_events == 2
    with pytest.raises(TraceError, match=r"thread 0 event 1\b"):
        trace.columnar()
    with pytest.raises(TraceError, match=r"thread 0 event 1\b"):
        trace_digest(trace)


# ---------------------------------------------------------------------------
# summarize_trace: numpy over rows vs the tuple walk it replaced
# ---------------------------------------------------------------------------


def _summarize_tuples(trace):
    """The per-event tuple walk ``summarize_trace`` used to be (oracle)."""
    stats = TraceStats(region_accesses={region: 0 for region in Region})
    for thread in trace.threads:
        for event in thread.events:
            kind = event[0]
            if kind == EV_BARRIER:
                stats.barriers += 1
                stats.total_instructions += event[2]
                continue
            addr, gap = event[1], event[3]
            region = region_of(addr)
            stats.region_accesses[region] += 1
            stats.total_instructions += gap + 1
            if kind == EV_LOAD:
                stats.loads += 1
            elif kind == EV_STORE:
                stats.stores += 1
            elif kind == EV_ATOMIC:
                stats.atomics += 1
                stats.atomic_ops[event[4]] += 1
                if region is Region.PROPERTY:
                    stats.property_atomics += 1
    return stats


def _assert_stats_equal(fast, oracle):
    assert fast == oracle
    assert all(type(v) is int for v in fast.region_accesses.values())
    assert {type(op) for op in fast.atomic_ops} == {
        type(op) for op in oracle.atomic_ops
    }


def test_summarize_matches_tuple_walk_on_figure7():
    for code in FIGURE7_CODES:
        run = get_workload(code).run(
            workload_graph(code, "tiny"), num_threads=16,
            **workload_params(code),
        )
        oracle = _summarize_tuples(run.trace)
        _assert_stats_equal(summarize_trace(run.trace), oracle)


def test_summarize_matches_tuple_walk_on_edge_cases():
    trace = _sample_trace()
    _assert_stats_equal(summarize_trace(trace), _summarize_tuples(trace))
    assert summarize_trace(trace).atomic_ops == Counter(
        {AtomicOp.FP_ADD: 3, 99: 3}
    )
    empty = Trace([ThreadTrace(0)])
    _assert_stats_equal(summarize_trace(empty), _summarize_tuples(empty))
    stray = ThreadTrace(0)
    stray.load(7 << REGION_SHIFT)
    with pytest.raises(ValueError):
        summarize_trace(Trace([stray]))


# ---------------------------------------------------------------------------
# No production path decodes tuples
# ---------------------------------------------------------------------------


def test_grid_runs_without_decoding_tuples(monkeypatch, tmp_path):
    """Strict cold grid, then warm, with the tuple decode disabled."""

    def refuse(_rows):
        raise AssertionError("a production path decoded event tuples")

    monkeypatch.setattr(stream_mod, "_decode", refuse)
    with pytest.raises(AssertionError):
        _sample_trace().threads[0].events
    config = RunnerConfig(
        scale="tiny", strict=True, parallel=False,
        cache_dir=str(tmp_path / "cache"),
    )
    specs = evaluation_grid_specs("tiny")
    for expect_cached in (False, True):
        outcomes, report = ExperimentRunner(config).run(specs)
        assert report.failures == []
        assert len(outcomes) == len(FIGURE7_CODES)
        assert report.all_cached is expect_cached
        for outcome in outcomes:
            assert outcome.run.stats.memory_accesses > 0


def test_columnar_from_events_is_fresh_and_row_backed():
    trace = _sample_trace()
    col = ColumnarTrace.from_events(trace)
    assert col is not trace.columnar()
    assert trace_digest(col) == trace_digest(trace)
