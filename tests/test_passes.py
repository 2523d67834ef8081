"""Vectorized analysis passes: equivalence with the legacy oracles.

The vectorized lint and race implementations must be
finding-for-finding identical to the PR 1 per-event analyzers — same
rules, same messages, same ordering, same caps.  These tests enforce
that over the full standard workload grid, over hypothesis-generated
traces, and over hand-built adversarial cases (locks, chaotic reads,
cap overflow), plus the engine-selection and fallback machinery.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.engine import ENGINE_ENV
from repro.common.errors import ConfigError
from repro.core.presets import workload_params
from repro.memlayout.allocator import AddressSpace
from repro.memlayout.regions import REGION_SHIFT, Region
from repro.sim.config import SystemConfig
from repro.trace.columnar import ColumnarTrace
from repro.trace.events import AtomicOp
from repro.trace.stream import ThreadTrace, Trace
from repro.workloads.registry import all_workloads, get_workload
from repro.analysis import analyze_run
from repro.analysis.race import MAX_RACE_FINDINGS, detect_races
from repro.analysis.trace_lint import MAX_FINDINGS_PER_RULE, lint_trace
from repro.analysis.passes import (
    AnalysisPass,
    PassManager,
    all_passes,
    default_engine,
    detect_races_columnar,
    get_pass,
    lint_columnar,
    offload_summary_columnar,
    profile_columnar,
    register_pass,
    screen_configs,
)

PMR = int(Region.PROPERTY) << REGION_SHIFT
META = int(Region.META) << REGION_SHIFT

LOCK = META + 0x1000
DATA = META + 0x2000


def _as_tuples(report):
    return [
        (f.rule_id, f.severity, f.message, f.thread_id, f.event_index,
         f.fix_hint)
        for f in report.findings
    ]


def assert_reports_equal(legacy, vectorized):
    assert _as_tuples(legacy) == _as_tuples(vectorized)
    assert legacy.subject == vectorized.subject


def _synth(builders, name="synth"):
    threads = []
    for tid, build in enumerate(builders):
        thread = ThreadTrace(tid)
        build(thread)
        threads.append(thread)
    return Trace(threads, name=name)


# ---------------------------------------------------------------------------
# Grid equivalence: every standard workload, both atomics modes
# ---------------------------------------------------------------------------

_CONFIGS = [
    SystemConfig.graphpim(),
    SystemConfig.graphpim(pmr_bypass=False),
    SystemConfig.graphpim(fp_extension=False),
    SystemConfig.baseline(),
]


@pytest.mark.parametrize(
    "code", [w.code for w in all_workloads()]
)
def test_grid_equivalence(code, small_graph, small_weighted_graph):
    graph = small_weighted_graph if code == "SSSP" else small_graph
    for plain_atomics in (False, True):
        run = get_workload(code).run(
            graph,
            num_threads=8,
            plain_atomics=plain_atomics,
            **workload_params(code),
        )
        col = ColumnarTrace.from_events(run.trace)
        for config in _CONFIGS:
            assert_reports_equal(
                lint_trace(
                    run.trace, config, address_space=run.address_space
                ),
                lint_columnar(col, config, run.address_space),
            )
        vectorized = detect_races_columnar(col)
        assert vectorized is not None, "race guard tripped on real trace"
        assert_reports_equal(detect_races(run.trace), vectorized)


# ---------------------------------------------------------------------------
# Hypothesis equivalence on adversarial small traces
# ---------------------------------------------------------------------------

# Addresses concentrated on few cache lines across regions (plus an
# out-of-range region) so PIM/TRC rules and bucket collisions all fire.
_addr = st.one_of(
    st.integers(META, META + 160),
    st.integers(PMR, PMR + 160),
    st.integers(7 << REGION_SHIFT, (7 << REGION_SHIFT) + 64),
)
_ops = st.sampled_from(list(AtomicOp))


@st.composite
def _thread(draw):
    actions = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("load"), _addr, st.integers(1, 16)),
                st.tuples(st.just("store"), _addr, st.integers(1, 16)),
                st.tuples(
                    st.just("atomic"),
                    _ops,
                    _addr,
                    st.integers(1, 16),
                    st.booleans(),
                ),
                st.tuples(st.just("barrier"), st.integers(0, 2)),
            ),
            max_size=25,
        )
    )
    return actions


@given(st.lists(_thread(), min_size=1, max_size=3))
@settings(max_examples=120, deadline=None)
def test_hypothesis_equivalence(per_thread):
    threads = []
    for tid, actions in enumerate(per_thread):
        thread = ThreadTrace(tid)
        for action in actions:
            method, args = action[0], action[1:]
            if method == "atomic":
                op, addr, size, ret = args
                thread.atomic(op, addr, size, with_return=ret)
            else:
                getattr(thread, method)(*args)
        threads.append(thread)
    trace = Trace(threads, name="hyp")
    col = ColumnarTrace.from_events(trace)
    for config in (
        SystemConfig.graphpim(),
        SystemConfig.graphpim(pmr_bypass=False),
    ):
        assert_reports_equal(
            lint_trace(trace, config), lint_columnar(col, config, None)
        )
    vectorized = detect_races_columnar(col)
    assert vectorized is not None
    assert_reports_equal(detect_races(trace), vectorized)


# ---------------------------------------------------------------------------
# Hand-built semantics: locks, chaotic reads, caps
# ---------------------------------------------------------------------------

def _locked(thread):
    thread.atomic(AtomicOp.CAS, LOCK, 8)
    thread.store(DATA, 8)
    thread.store(LOCK, 8)  # release: plain store to the CAS word


def _unlocked(thread):
    thread.store(DATA, 8)


def test_lock_word_suppresses_race():
    trace = _synth([_locked, _locked])
    report = detect_races_columnar(ColumnarTrace.from_events(trace))
    assert_reports_equal(detect_races(trace), report)
    assert len(report) == 0


def test_unlocked_writer_still_races():
    trace = _synth([_locked, _unlocked])
    report = detect_races_columnar(ColumnarTrace.from_events(trace))
    assert_reports_equal(detect_races(trace), report)
    assert report.count("RACE001") == 1


def test_single_writer_chaotic_read_is_warning():
    trace = _synth(
        [lambda t: t.store(DATA, 8), lambda t: t.load(DATA, 8)]
    )
    report = detect_races_columnar(ColumnarTrace.from_events(trace))
    assert_reports_equal(detect_races(trace), report)
    (finding,) = report.findings
    assert "single-writer/chaotic-read" in finding.message
    assert not report.has_errors


def test_race_cap_and_suppression_note():
    def writer(thread):
        for i in range(MAX_RACE_FINDINGS + 30):
            thread.store(DATA + 0x100 + i * 64, 8)

    def reader(thread):
        for i in range(MAX_RACE_FINDINGS + 30):
            thread.store(DATA + 0x100 + i * 64, 8)

    trace = _synth([writer, reader])
    report = detect_races_columnar(ColumnarTrace.from_events(trace))
    assert_reports_equal(detect_races(trace), report)
    assert report.count("RACE001") == MAX_RACE_FINDINGS + 1  # + INFO note
    assert "further race findings suppressed" in report.findings[-1].message


def test_lint_cap_and_suppression_note():
    def thread_body(thread):
        thread.atomic(AtomicOp.ADD, PMR, 8, with_return=False)
        for _ in range(MAX_FINDINGS_PER_RULE + 20):
            thread.load(PMR + 8, 4)

    trace = _synth([thread_body])
    config = SystemConfig.graphpim(pmr_bypass=False)
    vectorized = lint_columnar(
        ColumnarTrace.from_events(trace), config, None
    )
    assert_reports_equal(lint_trace(trace, config), vectorized)
    assert vectorized.count("PIM002") == MAX_FINDINGS_PER_RULE + 1
    assert "findings suppressed" in vectorized.findings[-1].message


# ---------------------------------------------------------------------------
# Guards and fallback
# ---------------------------------------------------------------------------

def test_key_width_guard_falls_back_to_legacy():
    def huge(thread):
        thread.store(1 << 62, 8)
        thread.store((1 << 62) + 8, 8)

    trace = _synth([huge, huge])
    col = ColumnarTrace.from_events(trace)
    assert detect_races_columnar(col) is None  # guard trips
    # The PassManager transparently falls back to the legacy detector.
    results = PassManager(["race"]).run(trace, SystemConfig.graphpim())
    assert results["race"].engine == "legacy"
    assert_reports_equal(detect_races(trace), results["race"].report)


def test_malformed_tuples_fall_back_whole_pipeline():
    thread = ThreadTrace(0)
    thread.events.append((99, 1, 2, 3))  # unknown kind: not encodable
    trace = Trace([thread], name="bad")
    manager = PassManager(["lint", "race"])
    results = manager.run(trace, SystemConfig.graphpim())
    assert {r.engine for r in results.values()} == {"legacy"}
    merged = manager.merged_report(results, "bad")
    assert merged.count("TRC003") >= 1


# ---------------------------------------------------------------------------
# Engine selection and registry
# ---------------------------------------------------------------------------

def test_engine_selection_and_merged_order(small_graph):
    run = get_workload("DC").run(
        small_graph, num_threads=4, **workload_params("DC")
    )
    manager = PassManager(["lint", "race"])
    fast = manager.run(run.trace, address_space=run.address_space)
    slow = manager.run(
        run.trace, address_space=run.address_space, engine="legacy"
    )
    assert {r.engine for r in fast.values()} == {"vectorized"}
    assert {r.engine for r in slow.values()} == {"legacy"}
    assert_reports_equal(
        manager.merged_report(slow, "DC"),
        manager.merged_report(fast, "DC"),
    )
    with pytest.raises(ConfigError, match="unknown engine"):
        manager.run(run.trace, engine="warp-speed")
    # "auto" is the unified vocabulary's name for the same execution.
    auto = manager.run(
        run.trace, address_space=run.address_space, engine="auto"
    )
    assert {r.engine for r in auto.values()} == {"vectorized"}


def test_env_engine_override(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV, "legacy")
    assert default_engine() == "legacy"
    monkeypatch.setenv(ENGINE_ENV, "nonsense")
    assert default_engine() == "vectorized"
    monkeypatch.delenv(ENGINE_ENV)
    assert default_engine() == "vectorized"


def test_registry():
    names = {p.name for p in all_passes()}
    assert {"lint", "race", "profile", "offload", "screening"} <= names
    assert get_pass("lint").gating
    assert not get_pass("profile").gating
    with pytest.raises(ConfigError, match="unknown analysis pass"):
        get_pass("nope")
    with pytest.raises(ConfigError, match="duplicate"):
        duplicate = type(
            "Dup", (AnalysisPass,), {"name": "lint"}
        )()
        register_pass(duplicate)


def test_analyze_run_engines_agree(small_graph):
    run = get_workload("CComp").run(
        small_graph, num_threads=4, **workload_params("CComp")
    )
    assert_reports_equal(
        analyze_run(run, engine="legacy"), analyze_run(run)
    )


# ---------------------------------------------------------------------------
# Vectorized-only profile passes
# ---------------------------------------------------------------------------

def _pmr_run(small_graph):
    return get_workload("PRank").run(
        small_graph, num_threads=4, **workload_params("PRank")
    )


def test_profile_pass_payload(small_graph):
    run = _pmr_run(small_graph)
    col = ColumnarTrace.from_events(run.trace)
    config = SystemConfig.graphpim()
    profile = profile_columnar(col, config)
    assert profile["num_threads"] == 4
    assert profile["pmr_atomics"] > 0
    assert 0 < profile["vaults_touched"] <= config.hmc.num_vaults
    assert profile["vault_contention_ratio"] >= 1.0
    shares = [v["share"] for v in profile["hot_vaults"]]
    assert shares == sorted(shares, reverse=True)
    for entry in profile["regions"].values():
        assert 0.0 <= entry["hit_rate_upper_bound"] < 1.0
        assert entry["distinct_lines"] <= entry["accesses"]


def test_offload_summary_counts_add_up(small_graph):
    run = _pmr_run(small_graph)
    col = ColumnarTrace.from_events(run.trace)
    summary = offload_summary_columnar(col, SystemConfig.graphpim())
    assert summary["atomics"] == sum(
        entry["count"] for entry in summary["ops"].values()
    )
    assert summary["pmr_atomics"] == sum(
        entry["pmr"] for entry in summary["ops"].values()
    )
    assert (
        summary["offloadable_pmr_atomics"]
        >= summary["offloadable_pmr_atomics_without_fp_ext"]
    )
    # PageRank's updates are FP adds: offloadable only with the FP ext.
    assert summary["ops"]["FP_ADD"]["offloadable"]
    assert not summary["ops"]["FP_ADD"]["offloadable_without_fp_ext"]


def test_screening_pass_modes(small_graph):
    run = _pmr_run(small_graph)
    col = ColumnarTrace.from_events(run.trace)
    screen = screen_configs(
        col,
        [
            SystemConfig.baseline(),
            SystemConfig.graphpim(),
            SystemConfig.graphpim(fp_extension=False),
        ],
    )
    base, gp, gp_nofp = screen["configs"]
    assert base["offloaded_atomics"] == 0
    assert base["host_atomics"] == base["atomics"]
    assert gp["offloaded_atomics"] == screen["pmr_atomics"]
    assert gp["pim001_exposed"] == 0
    # Without the FP extension every FP_ADD stays host-side + exposed.
    assert gp_nofp["offloaded_atomics"] == 0
    assert gp_nofp["pim001_exposed"] == screen["pmr_atomics"]


def test_profile_passes_skipped_under_legacy_engine(small_graph):
    run = _pmr_run(small_graph)
    results = PassManager(["profile", "offload", "screening"]).run(
        run.trace, SystemConfig.graphpim(), engine="legacy"
    )
    assert {r.engine for r in results.values()} == {"skipped"}
    assert all(not r.data for r in results.values())


def test_empty_trace_profiles():
    trace = Trace([ThreadTrace(0)], name="empty")
    col = ColumnarTrace.from_events(trace)
    profile = profile_columnar(col, SystemConfig.graphpim())
    assert profile["pmr_atomics"] == 0
    assert profile["hot_vaults"] == []
    summary = offload_summary_columnar(col, SystemConfig.graphpim())
    assert summary["atomics"] == 0
    screen = screen_configs(col, [SystemConfig.graphpim()])
    assert screen["configs"][0]["offloaded_atomics"] == 0
