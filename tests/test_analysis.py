"""Tests for the static-analysis subsystem (repro.analysis).

Covers the acceptance criteria of the analysis tentpole:

- every registered workload's small-graph trace lints clean (zero
  ERROR findings, races included);
- deliberately corrupted traces produce the expected rule ids and a
  non-zero CLI exit code;
- the race detector flags a same-epoch store/atomic conflict and is
  silenced by a barrier between the accesses;
- property-based checks: single-threaded traces are never flagged,
  synthesized same-epoch conflicts always are.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    AnalysisError,
    Severity,
    analyze_run,
    check_strict,
    detect_races,
    lint_config,
    lint_trace,
)
from repro.cli import main
from repro.common.errors import TraceError
from repro.core.api import GraphPimSystem
from repro.core.presets import workload_params
from repro.harness.suite import trace_workload
from repro.hmc.commands import HOST_TO_HMC, offloadable_ops
from repro.memlayout.allocator import AddressSpace
from repro.memlayout.regions import REGION_SHIFT, Region
from repro.sim.cache import CacheConfig
from repro.sim.config import SystemConfig
from repro.trace.events import _FP_OPS, EV_LOAD, AtomicOp
from repro.trace.io import load_trace, save_trace
from repro.trace.stream import ThreadTrace, Trace
from repro.workloads.base import WorkloadRun
from repro.workloads.registry import all_workloads, get_workload

PMR = int(Region.PROPERTY) << REGION_SHIFT
META = int(Region.META) << REGION_SHIFT


def _two_thread_trace(build0, build1, name="synthetic"):
    t0, t1 = ThreadTrace(0), ThreadTrace(1)
    build0(t0)
    build1(t1)
    return Trace([t0, t1], name=name)


# ---------------------------------------------------------------------------
# Acceptance: every registered workload's trace lints clean
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "code", [w.code for w in all_workloads()]
)
def test_workload_traces_lint_clean(code, small_graph, small_weighted_graph):
    graph = small_weighted_graph if code == "SSSP" else small_graph
    run = get_workload(code).run(
        graph, num_threads=16, **workload_params(code)
    )
    report = analyze_run(run)
    assert not report.has_errors, "\n".join(
        f.message for f in report.errors
    )


# ---------------------------------------------------------------------------
# Trace linter rules on corrupted traces
# ---------------------------------------------------------------------------


def test_trc001_address_outside_regions():
    trace = _two_thread_trace(
        lambda t: t.load(7 << REGION_SHIFT, 8),
        lambda t: t.load(META + 64, 8),
    )
    report = lint_trace(trace)
    assert report.count("TRC001") == 1
    assert report.has_errors


def test_trc001_unallocated_address_is_warning_with_address_space():
    space = AddressSpace()
    allocation = space.pmr_malloc("props", 16, 8)
    t0 = ThreadTrace(0)
    t0.load(allocation.addr_of(0), 8)
    t0.load(allocation.end + 4096, 8)  # region-tagged but wild
    report = lint_trace(Trace([t0]), address_space=space)
    findings = [f for f in report.findings if f.rule_id == "TRC001"]
    assert len(findings) == 1
    assert findings[0].severity is Severity.WARNING
    assert not report.has_errors


def test_trc002_unbalanced_barriers():
    trace = _two_thread_trace(
        lambda t: (t.store(META + 8, 8), t.barrier(0)),
        lambda t: t.store(META + 64, 8),
    )
    report = lint_trace(trace)
    assert "TRC002" in report.rule_ids()
    assert report.has_errors


def test_trc002_non_monotone_barrier_ids():
    def build(t):
        t.barrier(1)
        t.barrier(0)

    report = lint_trace(_two_thread_trace(build, build))
    assert report.count("TRC002") == 2  # one per thread
    assert report.has_errors


def test_trc003_malformed_tuples():
    t0 = ThreadTrace(0)
    t0.load(META + 8, 8)
    t0.events.append((99, 1, 2, 3))  # unknown kind
    t0.events.append((EV_LOAD, META + 8))  # wrong arity
    t0.events.append((EV_LOAD, META + 8, -4, 0))  # negative size
    report = lint_trace(Trace([t0]))
    assert report.count("TRC003") == 3
    assert report.has_errors
    # Findings carry the offending event index.
    indices = {
        f.event_index for f in report.findings if f.rule_id == "TRC003"
    }
    assert indices == {1, 2, 3}


def test_pim001_fp_atomic_without_extension():
    t0 = ThreadTrace(0)
    t0.atomic(AtomicOp.FP_ADD, PMR + 16, 8, False)
    trace = Trace([t0])
    with_fp = lint_trace(trace, config=SystemConfig.graphpim())
    without = lint_trace(
        trace, config=SystemConfig.graphpim(fp_extension=False)
    )
    assert "PIM001" not in with_fp.rule_ids()
    assert without.count("PIM001") == 1
    assert without.has_errors


def test_pim001_unknown_op_in_pmr():
    t0 = ThreadTrace(0)
    t0.events.append((2, PMR + 8, 8, 0, 99, False))  # EV_ATOMIC, bad op
    report = lint_trace(Trace([t0]))
    assert "TRC003" in report.rule_ids()  # not an AtomicOp
    assert "PIM001" in report.rule_ids()  # and not offloadable


def test_pim001_ignores_non_pmr_atomics():
    t0 = ThreadTrace(0)
    t0.atomic(AtomicOp.FP_ADD, META + 8, 8, False)  # host-side is fine
    report = lint_trace(
        Trace([t0]), config=SystemConfig.graphpim(fp_extension=False)
    )
    assert "PIM001" not in report.rule_ids()


def test_pim002_uc_violation_only_under_bypass_ablation():
    t0 = ThreadTrace(0)
    t0.atomic(AtomicOp.ADD, PMR + 8, 8, False)
    t0.load(PMR + 8, 8)
    trace = Trace([t0])
    default = lint_trace(trace, config=SystemConfig.graphpim())
    ablated = lint_trace(
        trace, config=SystemConfig.graphpim(pmr_bypass=False)
    )
    assert "PIM002" not in default.rule_ids()
    assert ablated.count("PIM002") == 1
    assert ablated.has_errors


def test_finding_cap_emits_suppression_note():
    t0 = ThreadTrace(0)
    for i in range(10):
        t0.load(7 << REGION_SHIFT | i * 8, 8)
    report = lint_trace(Trace([t0]), max_per_rule=3)
    assert report.count("TRC001") == 4  # 3 findings + 1 INFO note
    note = [f for f in report.findings if f.severity is Severity.INFO]
    assert len(note) == 1 and "suppressed" in note[0].message


# ---------------------------------------------------------------------------
# Acceptance: race detector demo
# ---------------------------------------------------------------------------


def test_race_same_epoch_store_atomic_conflict_flagged():
    trace = _two_thread_trace(
        lambda t: t.store(PMR + 8, 8),
        lambda t: t.atomic(AtomicOp.ADD, PMR + 8, 8, False),
    )
    report = detect_races(trace)
    assert report.count("RACE001") == 1
    assert report.has_errors


def test_race_separated_by_barrier_is_clean():
    # Same two accesses, but a barrier orders them into different
    # epochs: epoch 0 writes, epoch 1 updates.
    trace = _two_thread_trace(
        lambda t: (t.store(PMR + 8, 8), t.barrier(0)),
        lambda t: (t.barrier(0), t.atomic(AtomicOp.ADD, PMR + 8, 8, False)),
    )
    assert len(detect_races(trace)) == 0


def test_race_store_store_conflict_is_error():
    trace = _two_thread_trace(
        lambda t: t.store(PMR + 8, 8),
        lambda t: t.store(PMR + 8, 8),
    )
    report = detect_races(trace)
    assert report.has_errors


def test_race_single_writer_reader_downgraded_to_warning():
    trace = _two_thread_trace(
        lambda t: t.store(PMR + 8, 8),
        lambda t: t.load(PMR + 8, 8),
    )
    report = detect_races(trace)
    assert report.count("RACE001") == 1
    assert not report.has_errors
    assert report.findings[0].severity is Severity.WARNING


def test_race_spinlock_critical_sections_not_flagged():
    lock, shared = META + 0x100, PMR + 8

    def critical(t):
        t.atomic(AtomicOp.CAS, lock, 8, True)  # acquire
        t.store(shared, 8)  # protected write
        t.store(lock, 8)  # release

    assert len(detect_races(_two_thread_trace(critical, critical))) == 0


def test_race_unprotected_store_vs_locked_store_still_flagged():
    lock, shared = META + 0x100, PMR + 8

    def locked(t):
        t.atomic(AtomicOp.CAS, lock, 8, True)
        t.store(shared, 8)
        t.store(lock, 8)

    trace = _two_thread_trace(locked, lambda t: t.store(shared, 8))
    report = detect_races(trace)
    assert report.has_errors


def test_race_different_buckets_no_conflict():
    trace = _two_thread_trace(
        lambda t: t.store(PMR + 0, 8),
        lambda t: t.store(PMR + 64, 8),
    )
    assert len(detect_races(trace)) == 0


# ---------------------------------------------------------------------------
# Property-based: race detector invariants
# ---------------------------------------------------------------------------

_kinds = st.sampled_from(["load", "store", "add", "barrier"])
_events = st.lists(
    st.tuples(_kinds, st.integers(0, 15), st.sampled_from([1, 4, 8])),
    max_size=60,
)


def _emit(thread, kind, bucket, size, base=PMR):
    addr = base + bucket * 8
    if kind == "load":
        thread.load(addr, size)
    elif kind == "store":
        thread.store(addr, size)
    elif kind == "add":
        thread.atomic(AtomicOp.ADD, addr, size, False)
    elif kind == "barrier":
        thread.barrier(len([e for e in thread.events if e[0] == 3]))


@given(_events)
@settings(max_examples=60, deadline=None)
def test_race_detector_never_flags_single_threaded(events):
    thread = ThreadTrace(0)
    for kind, bucket, size in events:
        _emit(thread, kind, bucket, size)
    assert len(detect_races(Trace([thread]))) == 0


@given(
    st.integers(0, 63),
    st.lists(st.tuples(st.integers(0, 15), st.sampled_from([4, 8])),
             max_size=20),
)
@settings(max_examples=60, deadline=None)
def test_race_detector_always_flags_synthesized_conflict(bucket, filler):
    # A same-epoch store/atomic pair on one bucket must always be an
    # ERROR, whatever read-only noise surrounds it.  AtomicOp.ADD (not
    # CAS) so the lockset heuristic can never classify it as a lock.
    t0, t1 = ThreadTrace(0), ThreadTrace(1)
    for fb, size in filler:
        t0.load(META + fb * 8, size)
    t0.store(PMR + bucket * 8, 8)
    for fb, size in filler:
        t1.load(META + fb * 8, size)
    t1.atomic(AtomicOp.ADD, PMR + bucket * 8, 8, False)
    report = detect_races(Trace([t0, t1]))
    assert "RACE001" in report.rule_ids()
    assert report.has_errors


# ---------------------------------------------------------------------------
# Config linting
# ---------------------------------------------------------------------------


def test_preset_configs_lint_clean(trio):
    for config in trio:
        assert not lint_config(config).has_errors


def test_cfg001_non_power_of_two_sets():
    config = SystemConfig(
        l1=CacheConfig(size_bytes=3 * 2 * 64, ways=2, latency=1.0)
    )
    report = lint_config(config)
    findings = [f for f in report.findings if f.rule_id == "CFG001"]
    assert findings and findings[0].severity is Severity.WARNING


def test_cfg002_non_monotone_capacities():
    config = SystemConfig(
        l3=CacheConfig(size_bytes=4 * 1024, ways=16, latency=30.0)
    )
    report = lint_config(config)
    findings = [f for f in report.findings if f.rule_id == "CFG002"]
    assert findings and findings[0].severity is Severity.WARNING


def test_cfg003_hmc_envelope():
    from repro.hmc.config import HmcConfig

    config = SystemConfig().with_hmc(HmcConfig(num_vaults=64))
    report = lint_config(config)
    assert "CFG003" in report.rule_ids()
    assert report.has_errors


def test_cfg004_bypass_ablation_is_warning_not_error():
    report = lint_config(SystemConfig.graphpim(pmr_bypass=False))
    findings = [f for f in report.findings if f.rule_id == "CFG004"]
    assert findings and all(
        f.severity is Severity.WARNING for f in findings
    )
    assert not report.has_errors


def test_cfg005_hybrid_fraction_without_dram():
    report = lint_config(SystemConfig(property_hmc_fraction=0.5))
    assert "CFG005" in report.rule_ids()
    assert report.has_errors


# ---------------------------------------------------------------------------
# Shared AtomicOp -> HMC command table (single source of truth)
# ---------------------------------------------------------------------------


def test_offloadable_ops_tracks_fp_extension():
    assert offloadable_ops(True) == frozenset(HOST_TO_HMC)
    assert offloadable_ops(True) - offloadable_ops(False) == _FP_OPS


def test_offload_decisions_agree_with_shared_table():
    from repro.pim.offload import PimOffloadUnit

    for fp_extension in (True, False):
        pou = PimOffloadUnit(fp_extension=fp_extension)
        supported = offloadable_ops(fp_extension)
        for op in AtomicOp:
            assert pou.decide(op, in_pmr=True).offload == (op in supported)
            assert pou.decide(op, in_pmr=False).offload is False


# ---------------------------------------------------------------------------
# Trace IO tolerance for the linter
# ---------------------------------------------------------------------------


def test_load_trace_validate_flag(tmp_path):
    trace = _two_thread_trace(
        lambda t: (t.store(META + 8, 8), t.barrier(0)),
        lambda t: t.store(META + 64, 8),
    )
    path = tmp_path / "corrupt.npz"
    save_trace(trace, path)
    with pytest.raises(TraceError):
        load_trace(path)
    loaded = load_trace(path, validate=False)
    assert "TRC002" in lint_trace(loaded).rule_ids()


def test_load_trace_preserves_unknown_op(tmp_path):
    t0 = ThreadTrace(0)
    t0.events.append((2, PMR + 8, 8, 0, 99, False))
    path = tmp_path / "badop.npz"
    save_trace(Trace([t0]), path)
    loaded = load_trace(path, validate=False)
    assert loaded.threads[0].events[0][4] == 99
    assert "PIM001" in lint_trace(loaded).rule_ids()


# ---------------------------------------------------------------------------
# CLI: exit codes and output formats
# ---------------------------------------------------------------------------


def _save_clean_trace(tmp_path):
    def build(t):
        t.load(META + 8, 8)
        t.atomic(AtomicOp.ADD, PMR + 8, 8, False)
        t.barrier(0)

    path = tmp_path / "clean.npz"
    save_trace(_two_thread_trace(build, build, name="clean"), path)
    return path


def _save_corrupt_trace(tmp_path):
    trace = _two_thread_trace(
        lambda t: (t.atomic(AtomicOp.FP_ADD, PMR + 8, 8, False),
                   t.barrier(0)),
        lambda t: t.store(META + 8, 8),
        name="corrupt",
    )
    path = tmp_path / "corrupt.npz"
    save_trace(trace, path)
    return path


def test_cli_lint_clean_trace_exits_zero(tmp_path, capsys):
    assert main(["lint", str(_save_clean_trace(tmp_path))]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_cli_lint_corrupt_trace_exits_one(tmp_path, capsys):
    assert main(["lint", str(_save_corrupt_trace(tmp_path))]) == 1
    out = capsys.readouterr().out
    assert "TRC002" in out


def test_cli_lint_no_fp_ext_flags_fp_atomics(tmp_path, capsys):
    path = tmp_path / "fp.npz"
    t0 = ThreadTrace(0)
    t0.atomic(AtomicOp.FP_ADD, PMR + 8, 8, False)
    save_trace(Trace([t0]), path)
    assert main(["lint", str(path)]) == 0
    assert main(["lint", "--no-fp-ext", str(path)]) == 1
    assert "PIM001" in capsys.readouterr().out


def test_cli_lint_json_output(tmp_path, capsys):
    assert main(["lint", "--json", str(_save_corrupt_trace(tmp_path))]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["subject"] == "corrupt"
    assert any(f["rule_id"] == "TRC002" for f in payload["findings"])


def test_cli_lint_config_preset(capsys):
    assert main(["lint", "graphpim"]) == 0
    assert main(["lint", "baseline"]) == 0


def test_cli_lint_rules_listing(capsys):
    assert main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("PIM001", "PIM002", "TRC001", "TRC002", "TRC003",
                    "RACE001", "CFG001", "CFG005"):
        assert rule_id in out


def test_cli_lint_missing_target_exits_two(capsys):
    assert main(["lint"]) == 2
    assert "required" in capsys.readouterr().err


def test_cli_lint_missing_file_exits_two(capsys):
    assert main(["lint", "/nonexistent/trace.npz"]) == 2


# ---------------------------------------------------------------------------
# Strict pre-flight wiring (harness + facade)
# ---------------------------------------------------------------------------


def _corrupt_run():
    trace = _two_thread_trace(
        lambda t: (t.store(META + 8, 8), t.barrier(0)),
        lambda t: t.store(META + 64, 8),
        name="corrupt-run",
    )
    return WorkloadRun(
        workload=get_workload("BFS"),
        trace=trace,
        address_space=AddressSpace(),
    )


def test_check_strict_raises_on_errors():
    with pytest.raises(AnalysisError) as excinfo:
        check_strict(analyze_run(_corrupt_run()))
    assert "TRC002" in str(excinfo.value)


def test_evaluate_trace_strict_preflight_blocks_bad_trace():
    system = GraphPimSystem(num_threads=2)
    with pytest.raises(AnalysisError):
        system.evaluate_trace(_corrupt_run(), strict=True)
    # Constructor-level strict is equivalent.
    with pytest.raises(AnalysisError):
        GraphPimSystem(num_threads=2, strict=True).evaluate_trace(
            _corrupt_run()
        )


def test_evaluate_strict_passes_on_clean_workload(tiny_csr):
    system = GraphPimSystem(num_threads=4, strict=True)
    report = system.evaluate("BFS", tiny_csr)
    assert len(report.results) == 3


def test_trace_workload_strict_preflight():
    run = trace_workload("BFS", "tiny", strict=True)
    assert run.trace.num_events > 0
