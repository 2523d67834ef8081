"""Bit-identity and fallback tests for the batch simulation kernel.

The vectorized engine (:mod:`repro.sim.vectorized`) must reproduce the
per-event reference interpreter's ``SimResult.to_dict()`` byte for
byte; the engine dispatcher must fall back per input when the kernel
declines, and every layer above (facade, runner, service payloads)
must count those fallbacks without letting the engine choice leak into
cache identity.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.engine import (
    EngineInfo,
    EngineSelection,
    resolve_engine,
)
from repro.common.errors import ConfigError
from repro.core.api import GraphPimSystem
from repro.core.presets import workload_params
from repro.faults import FaultPlan
from repro.graph.generators import ldbc_like_graph
from repro.memlayout.regions import REGION_BASE, Region
from repro.runner import (
    ExperimentRunner,
    ExperimentSpec,
    RunnerConfig,
    execute_spec,
)
from repro.sim.config import SystemConfig
from repro.sim.system import simulate, simulate_with_engine
from repro.sim.vectorized import decline_reason, try_simulate_vectorized
from repro.trace.events import AtomicOp
from repro.trace.stream import ThreadTrace, Trace

# ----------------------------------------------------------------------
# Random traces (the test_property_sim idiom, plus multi-barrier phases)
# ----------------------------------------------------------------------

event_strategy = st.tuples(
    st.sampled_from(["load", "store", "atomic", "work"]),
    st.sampled_from(list(Region)),
    st.integers(0, 63),
    st.integers(0, 12),
    st.sampled_from(list(AtomicOp)),
    st.booleans(),
)

# threads x phases x events; every thread sees the same barrier sequence.
phased_trace_strategy = st.lists(
    st.lists(st.lists(event_strategy, max_size=25), min_size=1, max_size=3),
    min_size=1,
    max_size=4,
)

fault_plan_strategy = st.one_of(
    st.none(),
    st.builds(
        FaultPlan,
        request_ber=st.sampled_from([1e-7, 1e-6, 1e-5]),
        seed=st.integers(0, 2**31 - 1),
    ),
)


def build_trace(thread_specs) -> Trace:
    threads = []
    num_phases = max(len(phases) for phases in thread_specs)
    for tid, phases in enumerate(thread_specs):
        thread = ThreadTrace(tid)
        for phase_id in range(num_phases):
            for kind, region, line, gap, op, ret in (
                phases[phase_id] if phase_id < len(phases) else []
            ):
                addr = REGION_BASE[region] + line * 64
                thread.work(gap)
                if kind == "load":
                    thread.load(addr, 8)
                elif kind == "store":
                    thread.store(addr, 8)
                elif kind == "atomic":
                    thread.atomic(op, addr, 8, ret)
            thread.barrier(phase_id)
        threads.append(thread)
    return Trace(threads)


def assert_bit_identical(trace: Trace, config: SystemConfig) -> None:
    """Vectorized and reference runs serialize byte-for-byte equal."""
    legacy, info_l = simulate_with_engine(trace, config, engine="legacy")
    auto, info_a = simulate_with_engine(trace, config, engine="auto")
    assert info_l.engine == "legacy" and not info_l.fallback
    blob_l = json.dumps(legacy.to_dict(), sort_keys=True)
    blob_a = json.dumps(auto.to_dict(), sort_keys=True)
    assert blob_l == blob_a, (
        f"engine mismatch under {config.display_name} "
        f"(ran {info_a.engine}, fallback={info_a.fallback})"
    )


@given(phased_trace_strategy)
@settings(max_examples=25, deadline=None)
def test_random_traces_bit_identical(specs):
    trace = build_trace(specs)
    for config in SystemConfig().evaluation_trio():
        assert_bit_identical(trace, config)


@given(phased_trace_strategy, fault_plan_strategy)
@settings(max_examples=15, deadline=None)
def test_random_traces_with_faults_bit_identical(specs, plan):
    """FaultPlan runs decline the kernel yet still match bit-for-bit."""
    trace = build_trace(specs)
    config = SystemConfig.graphpim(faults=plan)
    result, info = simulate_with_engine(trace, config, engine="auto")
    if plan is not None and plan.enabled:
        assert info.fallback and info.engine == "legacy"
        assert "fault" in (info.reason or "")
    reference = simulate_with_engine(trace, config, engine="legacy")[0]
    assert json.dumps(result.to_dict(), sort_keys=True) == json.dumps(
        reference.to_dict(), sort_keys=True
    )


@given(
    st.lists(st.lists(event_strategy, max_size=30), min_size=1, max_size=4),
    st.integers(1, 8),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=15, deadline=None)
def test_config_variants_bit_identical(specs, mlp, prefetch, fp_ext):
    trace = build_trace([[events] for events in specs])
    config = SystemConfig.graphpim(
        mlp=mlp,
        prefetch_next_line=prefetch,
        fp_extension=fp_ext,
    )
    assert_bit_identical(trace, config)


# ----------------------------------------------------------------------
# Fallback paths and decline reasons
# ----------------------------------------------------------------------


def _tiny_trace(num_threads: int = 2) -> Trace:
    threads = []
    for tid in range(num_threads):
        thread = ThreadTrace(tid)
        thread.load(REGION_BASE[Region.PROPERTY] + tid * 64, 8)
        thread.atomic(AtomicOp.ADD, REGION_BASE[Region.PROPERTY], 8, False)
        thread.barrier(0)
        threads.append(thread)
    return Trace(threads)


def test_fault_plan_declines_and_falls_back():
    trace = _tiny_trace()
    plan = FaultPlan(request_ber=1e-6, seed=7)
    config = SystemConfig.graphpim(faults=plan)
    result, reason = try_simulate_vectorized(trace, config)
    assert result is None and "fault" in reason
    _result, info = simulate_with_engine(trace, config, engine="auto")
    assert info == EngineInfo(
        engine="legacy", fallback=True, reason=reason
    )


def test_legacy_selection_is_not_a_fallback():
    _result, info = simulate_with_engine(
        _tiny_trace(), SystemConfig.baseline(), engine="legacy"
    )
    assert info.engine == "legacy"
    assert not info.fallback and info.reason is None


def test_decline_reasons():
    trace = _tiny_trace()
    config = SystemConfig.baseline()
    assert decline_reason(trace, config) is None

    class _Recorder:
        enabled = True

    assert "recording" in decline_reason(trace, config, _Recorder())
    wide = Trace([ThreadTrace(tid) for tid in range(65)])
    for thread in wide.threads:
        thread.load(64, 8)
    assert "64 threads" in decline_reason(wide, config)


def test_negative_addresses_decline():
    thread = ThreadTrace(0)
    thread.load(-64, 8)
    trace = Trace([thread])
    result, reason = try_simulate_vectorized(trace, SystemConfig.baseline())
    assert result is None and "negative" in reason


def test_kernel_disable_env_declines(monkeypatch):
    from repro.sim import _cbuild

    monkeypatch.setenv(_cbuild.DISABLE_ENV, "1")
    monkeypatch.setattr(_cbuild, "_cached", None)
    trace = _tiny_trace()
    result, info = simulate_with_engine(
        trace, SystemConfig.baseline(), engine="auto"
    )
    assert info.fallback and "unavailable" in info.reason
    reference = simulate(trace, SystemConfig.baseline(), engine="legacy")
    assert result.to_dict() == reference.to_dict()


# ----------------------------------------------------------------------
# Engine selection surface
# ----------------------------------------------------------------------


def test_engine_selection_coerce():
    assert EngineSelection.coerce(None) is None
    assert EngineSelection.coerce("AUTO") is EngineSelection.AUTO
    assert (
        EngineSelection.coerce(EngineSelection.LEGACY)
        is EngineSelection.LEGACY
    )
    with pytest.raises(ConfigError, match="unknown engine"):
        EngineSelection.coerce("warp-speed")


def test_resolve_engine_env_priority(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.delenv("REPRO_ANALYSIS_ENGINE", raising=False)
    assert resolve_engine(None) is EngineSelection.AUTO
    monkeypatch.setenv("REPRO_ENGINE", "legacy")
    assert resolve_engine(None) is EngineSelection.LEGACY
    assert resolve_engine("vectorized") is EngineSelection.VECTORIZED
    monkeypatch.setenv("REPRO_ENGINE", "nonsense")
    assert resolve_engine(None) is EngineSelection.AUTO


def test_facade_exports():
    import repro

    for name in (
        "EngineInfo",
        "EngineSelection",
        "ExperimentSpec",
        "FaultPlan",
        "GraphPimSystem",
        "RunnerConfig",
        "execute_spec",
        "simulate_with_engine",
    ):
        assert name in repro.__all__
        assert getattr(repro, name) is not None


# ----------------------------------------------------------------------
# Fallback accounting through the stack
# ----------------------------------------------------------------------


def test_report_counts_fallbacks():
    graph = ldbc_like_graph(200, seed=7)
    plan = FaultPlan(request_ber=1e-6, seed=7)
    system = GraphPimSystem(
        config=SystemConfig(faults=plan), num_threads=4, engine="auto"
    )
    report = system.evaluate("BFS", graph, **workload_params("BFS"))
    assert report.engine_fallbacks == len(report.results)
    clean = GraphPimSystem(num_threads=4, engine="auto")
    assert (
        clean.evaluate(
            "BFS", graph, **workload_params("BFS")
        ).engine_fallbacks
        == 0
    )


def _fault_spec() -> ExperimentSpec:
    plan = FaultPlan(request_ber=1e-6, seed=7)
    return ExperimentSpec(
        workload="BFS",
        scale="tiny",
        modes=(SystemConfig.baseline(faults=plan),
               SystemConfig.graphpim(faults=plan)),
        num_threads=4,
    )


def test_execute_spec_payload_reports_engines():
    payload = execute_spec(
        _fault_spec(), RunnerConfig(scale="tiny", cache_dir=None)
    )
    for entry in payload["modes"].values():
        assert entry["engine"] == "legacy"
        assert entry["fallback"] is True


def test_runner_counts_fallbacks_and_cache_ignores_engine(tmp_path):
    cache_dir = str(tmp_path / "cache")
    config = RunnerConfig(
        scale="tiny", cache_dir=cache_dir, parallel=False, engine="auto"
    )
    spec = _fault_spec()
    outcomes, report = ExperimentRunner(config).run([spec])
    assert report.engine_fallbacks == 2
    assert "engine fallback(s)" in report.summary_line()
    assert outcomes[0].fallbacks == {"Baseline": True, "GraphPIM": True}
    # A different engine selection hits the same cache entries: the
    # engine is an execution strategy, never part of result identity.
    legacy_config = RunnerConfig(
        scale="tiny", cache_dir=cache_dir, parallel=False, engine="legacy"
    )
    outcomes2, report2 = ExperimentRunner(legacy_config).run([spec])
    assert report2.cache_hits == 2 and report2.simulations == 0
    assert report2.engine_fallbacks == 0
    assert outcomes2[0].engines == {"Baseline": None, "GraphPIM": None}
    for label, result in outcomes[0].results.items():
        assert (
            result.to_dict() == outcomes2[0].results[label].to_dict()
        )
