"""Tests for the parallel experiment runner and its result cache.

Covers the ISSUE 2 acceptance surface (cache hit/miss behavior under
config and salt changes, parallel-vs-serial bit-identical results,
worker-crash fallback, the suite-API deprecation shims, and the
serialization round-trips the cache and worker IPC rely on) plus the
ISSUE 3 resilience surface: per-job timeouts with exponential backoff,
structured failures under ``allow_partial``, checkpoint/resume, and
cache verification with quarantine.
"""

import dataclasses
import json
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.runner.engine as engine_module
from repro.common.errors import RunnerError, SimulationError
from repro.core.api import EvaluationReport, GraphPimSystem
from repro.runner import (
    CheckpointJournal,
    ExperimentRunner,
    ExperimentSpec,
    ResultCache,
    RunnerConfig,
    config_fingerprint,
    execute_spec,
    result_key,
    run_evaluation_grid,
    spec_key,
    trace_digest,
)
from repro.sim.config import SystemConfig
from repro.sim.system import SimResult, simulate
from repro.workloads import get_workload

TRIO = tuple(SystemConfig().evaluation_trio())


def _spec(code="DC", modes=TRIO, **kwargs):
    return ExperimentSpec.for_workload(code, "tiny", modes=modes, **kwargs)


@pytest.fixture(scope="module")
def dc_payload():
    """One executed spec without any caching (shared baseline truth)."""
    return execute_spec(_spec(), RunnerConfig(parallel=False, cache_dir=None))


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        assert cache.get("k" * 64) is None
        cache.put("k" * 64, {"a": 1})
        assert cache.get("k" * 64) == {"a": 1}
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put("x" * 64, {"a": 1})
        path = cache._path("x" * 64)
        path.write_text("{not json")
        assert cache.get("x" * 64) is None

    def test_clear_and_info(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put("a" * 64, {"v": 1})
        cache.put("b" * 64, {"v": 2})
        info = cache.info()
        assert info["entries"] == 2
        assert info["size_bytes"] > 0
        assert cache.clear() == 2
        assert cache.entry_count() == 0


class TestCachePrune:
    @staticmethod
    def _aged_cache(tmp_path, count=4):
        """Cache with `count` entries whose mtimes ascend with the key."""
        import os

        cache = ResultCache(tmp_path / "c")
        for index in range(count):
            key = format(index, "x") * 64
            cache.put(key, {"payload": "x" * 512, "index": index})
            os.utime(cache._path(key), (1_000 + index, 1_000 + index))
        return cache

    def test_prune_evicts_oldest_first(self, tmp_path):
        cache = self._aged_cache(tmp_path)
        entry_bytes = cache._path("0" * 64).stat().st_size
        outcome = cache.prune(max_bytes=2 * entry_bytes)
        assert outcome["removed"] == 2
        assert outcome["kept"] == 2
        assert outcome["freed_bytes"] == 2 * entry_bytes
        assert outcome["size_bytes"] <= 2 * entry_bytes
        # The two oldest entries are gone, the two newest survive.
        assert cache.get("0" * 64) is None
        assert cache.get("1" * 64) is None
        assert cache.get("2" * 64) is not None
        assert cache.get("3" * 64) is not None

    def test_prune_within_budget_is_a_noop(self, tmp_path):
        cache = self._aged_cache(tmp_path)
        outcome = cache.prune(max_bytes=10 * 1024 * 1024)
        assert outcome["removed"] == 0
        assert outcome["kept"] == 4
        assert cache.entry_count() == 4

    def test_prune_to_zero_clears_everything(self, tmp_path):
        cache = self._aged_cache(tmp_path)
        outcome = cache.prune(max_bytes=0)
        assert outcome["removed"] == 4
        assert cache.entry_count() == 0

    def test_prune_rejects_negative_budget(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        with pytest.raises(ValueError):
            cache.prune(max_bytes=-1)

    def test_get_refreshes_recency(self, tmp_path):
        """A cache hit protects the entry from the next prune (LRU)."""
        cache = self._aged_cache(tmp_path)
        entry_bytes = cache._path("0" * 64).stat().st_size
        assert cache.get("0" * 64) is not None  # touch the oldest
        outcome = cache.prune(max_bytes=2 * entry_bytes)
        assert outcome["removed"] == 2
        assert cache.get("0" * 64) is not None  # survived the prune
        assert cache.get("1" * 64) is None
        assert cache.get("2" * 64) is None

    def test_prune_leaves_journal_and_quarantine_alone(self, tmp_path):
        cache = self._aged_cache(tmp_path)
        journal = tmp_path / "c" / "journal.jsonl"
        journal.write_text('{"spec": "x"}\n')
        quarantine = tmp_path / "c" / "objects" / "quarantine"
        quarantine.mkdir()
        (quarantine / "bad.json").write_text("{}")
        cache.prune(max_bytes=0)
        assert journal.exists()
        assert (quarantine / "bad.json").exists()


class TestCacheKeys:
    def test_config_fingerprint_stable_and_sensitive(self):
        base = SystemConfig()
        assert config_fingerprint(base) == config_fingerprint(SystemConfig())
        tweaked = dataclasses.replace(base, mlp=base.mlp + 1)
        assert config_fingerprint(base) != config_fingerprint(tweaked)

    def test_result_key_depends_on_all_parts(self):
        key = result_key("t1", "c1", "s1")
        assert key != result_key("t2", "c1", "s1")
        assert key != result_key("t1", "c2", "s1")
        assert key != result_key("t1", "c1", "s2")

    def test_trace_digest_matches_content(self):
        from repro.graph.generators import ldbc_like_graph

        graph = ldbc_like_graph(200, seed=7)
        a = get_workload("BFS").run(graph, num_threads=4)
        b = get_workload("BFS").run(graph, num_threads=4)
        assert trace_digest(a.trace) == trace_digest(b.trace)
        c = get_workload("DC").run(graph, num_threads=4)
        assert trace_digest(a.trace) != trace_digest(c.trace)


# ----------------------------------------------------------------------
# execute_spec: caching semantics
# ----------------------------------------------------------------------


class TestExecuteSpecCaching:
    def test_second_execution_is_fully_cached(self, tmp_path):
        config = RunnerConfig(cache_dir=str(tmp_path / "c"))
        first = execute_spec(_spec(), config)
        assert all(not m["cached"] for m in first["modes"].values())
        second = execute_spec(_spec(), config)
        assert all(m["cached"] for m in second["modes"].values())
        for label in first["modes"]:
            assert (
                first["modes"][label]["payload"]
                == second["modes"][label]["payload"]
            )

    def test_config_change_misses(self, tmp_path):
        config = RunnerConfig(cache_dir=str(tmp_path / "c"))
        execute_spec(_spec(), config)
        tweaked = tuple(
            dataclasses.replace(mode, mlp=mode.mlp + 1) for mode in TRIO
        )
        result = execute_spec(_spec(modes=tweaked), config)
        assert all(not m["cached"] for m in result["modes"].values())

    def test_salt_change_invalidates(self, tmp_path):
        cache_dir = str(tmp_path / "c")
        execute_spec(_spec(), RunnerConfig(cache_dir=cache_dir))
        bumped = RunnerConfig(cache_dir=cache_dir, cache_salt="sim-v2")
        result = execute_spec(_spec(), bumped)
        assert all(not m["cached"] for m in result["modes"].values())
        # ... and the new population is itself cacheable.
        again = execute_spec(_spec(), bumped)
        assert all(m["cached"] for m in again["modes"].values())

    def test_cached_payloads_match_fresh_simulation(
        self, tmp_path, dc_payload
    ):
        config = RunnerConfig(cache_dir=str(tmp_path / "c"))
        execute_spec(_spec(), config)
        cached = execute_spec(_spec(), config)
        for label, entry in cached["modes"].items():
            assert entry["payload"] == dc_payload["modes"][label]["payload"]


# ----------------------------------------------------------------------
# Runner: parallel determinism, failures, fallback
# ----------------------------------------------------------------------


class TestRunnerExecution:
    def test_parallel_bit_identical_to_serial(self, tmp_path):
        specs = [_spec("DC"), _spec("kCore"), _spec("BFS")]
        serial_cfg = RunnerConfig(parallel=False, cache_dir=None)
        parallel_cfg = RunnerConfig(jobs=2, parallel=True, cache_dir=None)
        serial, serial_report = ExperimentRunner(serial_cfg).run(specs)
        parallel, parallel_report = ExperimentRunner(parallel_cfg).run(specs)
        assert not serial_report.parallel
        assert parallel_report.parallel
        for s_out, p_out in zip(serial, parallel):
            assert s_out.spec == p_out.spec
            for label in s_out.results:
                assert (
                    s_out.results[label].to_dict()
                    == p_out.results[label].to_dict()
                )

    def test_failed_job_raises_runner_error(self):
        bad = ExperimentSpec.for_workload("NOPE", "tiny", modes=TRIO)
        config = RunnerConfig(parallel=False, cache_dir=None)
        with pytest.raises(RunnerError, match="NOPE"):
            ExperimentRunner(config).run([bad])

    def test_broken_pool_falls_back_inline(self, monkeypatch):
        class _BrokenFuture:
            def result(self):
                raise BrokenProcessPool("worker died")

        class _BrokenPool:
            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                return _BrokenFuture()

        monkeypatch.setattr(
            engine_module, "_make_executor", lambda workers: _BrokenPool()
        )
        specs = [_spec("DC"), _spec("kCore")]
        config = RunnerConfig(
            jobs=2, parallel=True, cache_dir=None, pool="executor"
        )
        outcomes, report = ExperimentRunner(config).run(specs)
        assert report.fell_back
        assert report.pool_restarts == 1
        assert "1 restart(s)" in report.summary_line()
        assert len(outcomes) == len(specs)
        assert all(job.status == "done" for job in report.jobs)
        assert all(job.executor == "fallback" for job in report.jobs)
        # Fallback results are the same bits the workers would have made.
        direct = simulate(outcomes[0].run.trace, TRIO[2])
        assert outcomes[0].results["GraphPIM"].to_dict() == direct.to_dict()

    def test_report_counters(self, tmp_path):
        config = RunnerConfig(
            parallel=False, cache_dir=str(tmp_path / "c")
        )
        _outcomes, cold = ExperimentRunner(config).run([_spec("kCore")])
        assert cold.simulations == len(TRIO)
        assert cold.cache_hits == 0
        assert not cold.all_cached
        _outcomes, warm = ExperimentRunner(config).run([_spec("kCore")])
        assert warm.simulations == 0
        assert warm.cache_hits == len(TRIO)
        assert warm.all_cached
        as_json = json.loads(json.dumps(warm.to_dict()))
        assert as_json["all_cached"] is True
        assert as_json["jobs"][0]["workload"] == "kCore"

    def test_grid_strict_rejects_racy_plain_spec(self):
        racy = _spec(plain_atomics=True, modes=(TRIO[0],))
        config = RunnerConfig(
            parallel=False, cache_dir=None, strict=True
        )
        with pytest.raises(RunnerError, match="RACE001"):
            ExperimentRunner(config).run([racy])
        exempt = _spec(
            plain_atomics=True, modes=(TRIO[0],), strict_exempt=True
        )
        outcomes, _report = ExperimentRunner(config).run([exempt])
        assert outcomes[0].results["Baseline"].cycles > 0


# ----------------------------------------------------------------------
# Resilience: timeouts, backoff, structured failures, resume
# ----------------------------------------------------------------------


class _TimeoutFuture:
    """A pool future whose job never finishes within its deadline."""

    def result(self, timeout=None):
        raise FuturesTimeoutError()

    def cancel(self):
        return False


class _EagerFuture:
    """A pool future that runs the job synchronously at collection."""

    def __init__(self, spec, config):
        self._spec, self._config = spec, config

    def result(self, timeout=None):
        return execute_spec(self._spec, self._config)

    def cancel(self):
        return False


class _FakeExecutor:
    """Times out the first ``flaky_attempts`` submissions of each spec."""

    def __init__(self, flaky_attempts):
        self.flaky_attempts = flaky_attempts
        self.submissions = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, spec, config):
        n = self.submissions[spec.job_id] = (
            self.submissions.get(spec.job_id, 0) + 1
        )
        if n <= self.flaky_attempts:
            return _TimeoutFuture()
        return _EagerFuture(spec, config)


class TestRunnerResilience:
    def _runner(self, monkeypatch, flaky_attempts, **config_kwargs):
        executor = _FakeExecutor(flaky_attempts)
        monkeypatch.setattr(
            engine_module, "_make_executor", lambda workers: executor
        )
        sleeps = []
        config = RunnerConfig(
            jobs=2,
            parallel=True,
            cache_dir=None,
            job_timeout_s=0.01,
            backoff_base_s=0.5,
            backoff_factor=2.0,
            pool="executor",
            **config_kwargs,
        )
        runner = ExperimentRunner(config, sleep=sleeps.append)
        return runner, sleeps

    def test_timeout_exhaustion_records_structured_failure(
        self, monkeypatch
    ):
        runner, sleeps = self._runner(
            monkeypatch, flaky_attempts=99, job_retries=2,
            allow_partial=True,
        )
        specs = [_spec("DC"), _spec("kCore")]
        outcomes, report = runner.run(specs)
        assert outcomes == []
        assert len(report.failures) == 2
        assert all(f.kind == "timeout" for f in report.failures)
        assert all(f.attempts == 3 for f in report.failures)
        assert all(job.status == "failed" for job in report.jobs)
        # Full-jitter exponential backoff between attempts, per job:
        # each delay is uniform in [0, base * factor**(n-1)].
        assert len(sleeps) == 4
        caps = [0.5, 1.0, 0.5, 1.0]
        assert all(0.0 <= s <= c for s, c in zip(sleeps, caps))
        # Jitter is seeded from the spec key, so a rerun of the same
        # grid draws the same delays (reproducible retry schedules).
        rerun, rerun_sleeps = self._runner(
            monkeypatch, flaky_attempts=99, job_retries=2,
            allow_partial=True,
        )
        rerun.run(specs)
        assert rerun_sleeps == sleeps
        as_json = json.loads(json.dumps(report.to_dict()))
        assert as_json["failures"][0]["kind"] == "timeout"
        assert "FAILED" in report.summary()

    def test_timeout_then_retry_succeeds(self, monkeypatch):
        runner, sleeps = self._runner(
            monkeypatch, flaky_attempts=1, job_retries=2
        )
        specs = [_spec("DC"), _spec("kCore")]
        outcomes, report = runner.run(specs)
        assert len(outcomes) == 2
        assert report.failures == []
        assert all(job.status == "done" for job in report.jobs)
        assert all(job.attempts == 2 for job in report.jobs)
        assert len(sleeps) == 2
        assert all(0.0 <= s <= 0.5 for s in sleeps)

    def test_timeout_without_allow_partial_raises(self, monkeypatch):
        runner, _sleeps = self._runner(
            monkeypatch, flaky_attempts=99, job_retries=0
        )
        with pytest.raises(RunnerError, match=r"\[timeout\]"):
            runner.run([_spec("DC"), _spec("kCore")])

    def test_crash_mid_grid_degrades_to_partial_report(self, monkeypatch):
        real = engine_module.execute_spec

        def crashing(spec, config):
            if spec.workload == "kCore":
                raise OSError("worker lost its cache directory")
            return real(spec, config)

        monkeypatch.setattr(engine_module, "execute_spec", crashing)
        config = RunnerConfig(
            parallel=False, cache_dir=None, allow_partial=True
        )
        specs = [_spec("DC"), _spec("kCore"), _spec("BFS")]
        outcomes, report = ExperimentRunner(config).run(specs)
        assert [o.spec.workload for o in outcomes] == ["DC", "BFS"]
        (failure,) = report.failures
        assert failure.kind == "crash"
        assert "cache directory" in failure.message
        # The surviving outcomes are real results, not placeholders.
        assert outcomes[0].results["GraphPIM"].cycles > 0

    def test_resume_runs_exactly_the_remaining_specs(
        self, tmp_path, monkeypatch
    ):
        cache_dir = str(tmp_path / "c")
        config = RunnerConfig(parallel=False, cache_dir=cache_dir)
        first = [_spec("DC"), _spec("kCore")]
        ExperimentRunner(config).run(first)

        executed = []
        real = engine_module.execute_spec

        def counting(spec, config):
            executed.append(spec.workload)
            return real(spec, config)

        monkeypatch.setattr(engine_module, "execute_spec", counting)
        resumed = RunnerConfig(
            parallel=False, cache_dir=cache_dir, resume=True
        )
        specs = [_spec("DC"), _spec("kCore"), _spec("BFS")]
        outcomes, report = ExperimentRunner(resumed).run(specs)
        assert executed == ["BFS"]
        assert [o.spec.workload for o in outcomes] == ["BFS"]
        assert report.jobs_skipped == 2
        assert {
            job.workload: job.status for job in report.jobs
        } == {"DC": "skipped", "kCore": "skipped", "BFS": "done"}
        assert "skipped (resume)" in report.summary()

    def test_resume_without_cache_dir_is_an_error(self):
        config = RunnerConfig(parallel=False, cache_dir=None, resume=True)
        with pytest.raises(RunnerError, match="resume"):
            ExperimentRunner(config).run([_spec("DC")])

    def test_spec_key_covers_faults_and_salt(self):
        from repro.faults import FaultPlan
        from repro.sim.config import SystemConfig as SC

        clean = _spec("DC")
        faulty = _spec(
            "DC",
            modes=tuple(
                SC(faults=FaultPlan(seed=1, request_ber=1e-6))
                .evaluation_trio()
            ),
        )
        assert spec_key(clean) == spec_key(clean)
        assert spec_key(clean) != spec_key(faulty)
        assert spec_key(clean) != spec_key(clean, salt="other")


class TestCheckpointJournal:
    def test_mark_and_completed(self, tmp_path):
        journal = CheckpointJournal(tmp_path)
        assert journal.completed() == set()
        journal.mark("aaa", "DC@tiny")
        journal.mark("bbb")
        assert journal.completed() == {"aaa", "bbb"}
        journal.clear()
        assert journal.completed() == set()

    def test_torn_final_line_is_ignored(self, tmp_path):
        journal = CheckpointJournal(tmp_path)
        journal.mark("aaa")
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"spec": "bbb", "job')  # killed mid-write
        assert journal.completed() == {"aaa"}

    def test_cache_clear_drops_journal(self, tmp_path):
        cache = ResultCache(tmp_path)
        journal = CheckpointJournal(tmp_path)
        journal.mark("aaa")
        cache.clear()
        assert journal.completed() == set()


class TestCacheVerify:
    def test_verify_quarantines_bad_entries(self, tmp_path, dc_payload):
        cache = ResultCache(tmp_path / "c")
        good = dc_payload["modes"]["Baseline"]["payload"]
        cache.put("a" * 64, good)
        cache.put("b" * 64, {"schema": 999})  # wrong payload schema
        cache.put("c" * 64, good)
        cache._path("c" * 64).write_text("{not json")
        outcome = cache.verify()
        assert outcome["checked"] == 3
        assert outcome["ok"] == 1
        assert outcome["quarantined"] == 2
        quarantine = cache._objects / "quarantine"
        assert sorted(p.name for p in quarantine.glob("*.json")) == [
            "b" * 64 + ".json",
            "c" * 64 + ".json",
        ]
        # Healthy entry still served; quarantined ones are misses now.
        assert cache.get("a" * 64) == good
        assert cache.get("b" * 64) is None
        # Quarantined bytes do not count as cache entries.
        assert cache.entry_count() == 1

    def test_verify_empty_cache(self, tmp_path):
        outcome = ResultCache(tmp_path / "none").verify()
        assert outcome == {
            "checked": 0,
            "ok": 0,
            "quarantined": 0,
            "quarantine_dir": str(tmp_path / "none" / "objects" / "quarantine"),
        }


# ----------------------------------------------------------------------
# Serialization round-trips (cache + worker IPC substrate)
# ----------------------------------------------------------------------


class TestSerialization:
    def test_simresult_roundtrip_through_json(self, dc_payload):
        for entry in dc_payload["modes"].values():
            payload = json.loads(json.dumps(entry["payload"]))
            result = SimResult.from_dict(payload)
            assert result.to_dict() == entry["payload"]

    def test_simresult_schema_mismatch_rejected(self, dc_payload):
        payload = dict(dc_payload["modes"]["Baseline"]["payload"])
        payload["schema"] = 999
        with pytest.raises(SimulationError, match="schema"):
            SimResult.from_dict(payload)

    def test_evaluation_report_roundtrip(self, tiny_csr):
        system = GraphPimSystem(num_threads=4)
        report = system.evaluate("BFS", tiny_csr)
        data = json.loads(json.dumps(report.to_dict()))
        rebuilt = EvaluationReport.from_dict(data)
        assert rebuilt.workload_code == "BFS"
        assert rebuilt.run is None
        assert rebuilt.to_dict()["results"] == data["results"]
        assert rebuilt.speedup() == report.speedup()
        # Re-attaching the live run restores the full summary.
        attached = EvaluationReport.from_dict(data, run=report.run)
        assert attached.summary() == report.summary()

    def test_evaluation_report_schema_mismatch_rejected(self):
        with pytest.raises(SimulationError, match="schema"):
            EvaluationReport.from_dict(
                {"schema": -1, "workload_code": "BFS", "results": {}}
            )


# ----------------------------------------------------------------------
# Suite API migration: shims, explicit strictness, lint dedup
# ----------------------------------------------------------------------


class TestSuiteMigration:
    def test_trace_workload_explicit_strict(self):
        from repro.harness.suite import trace_workload

        run = trace_workload("BFS", "tiny", strict=True)
        assert run.trace.num_events > 0

    def test_preflight_dedup_skips_second_lint(self, monkeypatch):
        import repro.analysis as analysis

        analysis.clear_preflight_cache()
        calls = []
        real_analyze = analysis.analyze_run

        def counting_analyze(run, config=None):
            calls.append(run)
            return real_analyze(run, config=config)

        monkeypatch.setattr(analysis, "analyze_run", counting_analyze)
        from repro.harness.suite import trace_workload

        run = trace_workload("BFS", "tiny", strict=True)
        assert len(calls) == 1
        # Same content evaluated strictly again: no second trace walk.
        GraphPimSystem(num_threads=16, strict=True).evaluate_trace(run)
        assert len(calls) == 1
        analysis.clear_preflight_cache()
        GraphPimSystem(num_threads=16, strict=True).evaluate_trace(run)
        assert len(calls) == 2

    def test_resolve_strict_precedence(self):
        system = GraphPimSystem(strict=True)
        assert system._resolve_strict(None) is True
        assert system._resolve_strict(False) is False
        assert GraphPimSystem(strict=False)._resolve_strict(True) is True


# ----------------------------------------------------------------------
# Grid entry point
# ----------------------------------------------------------------------


class TestEvaluationGrid:
    def test_second_grid_run_is_all_cached(self, tmp_path):
        config = RunnerConfig(
            scale="tiny", parallel=False, cache_dir=str(tmp_path / "c")
        )
        reports, cold = run_evaluation_grid(config)
        assert set(reports) == {
            "BFS", "CComp", "DC", "kCore", "SSSP", "TC", "BC", "PRank"
        }
        assert cold.simulations == 24
        reports2, warm = run_evaluation_grid(config)
        assert warm.all_cached
        for code, report in reports.items():
            for label, result in report.results.items():
                assert (
                    result.cycles == reports2[code].results[label].cycles
                ), (code, label)
