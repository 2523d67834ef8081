"""Experiment job descriptions and runner configuration.

:class:`ExperimentSpec` makes the suite's implicit (workload, scale,
mode) grid explicit: one spec is one independently executable job —
trace a workload once, simulate it under each of its modes.  Specs are
frozen, hashable, and picklable, so they can cross process boundaries
to pool workers unchanged.

:class:`RunnerConfig` carries strictness, scale, parallelism, and
cache placement as explicit fields of the value, not ambient state.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.chaos.plan import ChaosPlan
from repro.common.errors import ConfigError
from repro.runner.fingerprint import CODE_VERSION
from repro.sim.config import SystemConfig

#: Default on-disk cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"


@dataclass(frozen=True)
class RunnerConfig:
    """How a job grid is executed.

    Parameters
    ----------
    scale:
        Experiment scale (``tiny`` / ``small`` / ``paper``); None means
        "resolve the ambient default" (``REPRO_SCALE`` env or small).
    strict:
        Run the static-analysis pre-flight on every traced workload and
        abort the grid on ERROR findings.
    lint_baseline:
        Optional path to a finding-baseline file (see
        :mod:`repro.analysis.baseline`).  When set, the strict
        pre-flight subtracts the frozen fingerprints before gating, so
        only *new* findings abort the grid.  Ignored unless ``strict``
        is on.
    jobs:
        Worker process count; None means ``os.cpu_count()``.
    parallel:
        When False, every job runs in-process (the ``--no-parallel``
        escape hatch).  Results are bit-identical either way — the
        scheduler is deterministic per job.
    cache_dir:
        Root of the persistent result cache; None disables the disk
        cache entirely (simulations always run).
    cache_salt:
        Code-version component of every cache key.  Defaults to
        :data:`~repro.runner.fingerprint.CODE_VERSION`; override to
        segregate (or deliberately invalidate) cache populations.
    job_timeout_s:
        Per-job wall-clock budget in pool mode; a worker that exceeds
        it is abandoned and the job is retried (up to ``job_retries``)
        or recorded as a timeout failure.  None disables the deadline.
        In-process execution cannot be preempted, so the timeout only
        applies to pool jobs.
    job_retries:
        How many times a timed-out job is resubmitted before being
        recorded as failed.  Deterministic errors (bad spec, simulation
        errors) are never retried — rerunning them cannot help.
    backoff_base_s / backoff_factor:
        Exponential-backoff schedule between retry attempts: the n-th
        retry sleeps ``backoff_base_s * backoff_factor**(n-1)``.
    allow_partial:
        When True, a grid with failed jobs returns the surviving
        outcomes plus structured :class:`JobFailure` records instead of
        raising :class:`~repro.common.errors.RunnerError`.
    resume:
        Skip specs recorded as completed in the cache root's checkpoint
        journal (``repro run --resume``): after a killed run, only the
        remaining specs execute.  Requires ``cache_dir``.
    log_level / log_json:
        Structured run-log knobs (``repro run --log-level/--log-json``).
        ``log_level`` of None leaves the logging tree untouched (library
        default: silent); otherwise the runner configures a stderr
        handler at that level, emitting JSON lines when ``log_json`` is
        set.  Observability-only: neither field participates in cache
        identity — result keys fingerprint only (trace, SystemConfig,
        salt), so toggling logs can never churn the cache.
    engine:
        Simulation/analysis engine selection (``auto`` / ``vectorized``
        / ``legacy``; see :class:`~repro.common.engine.EngineSelection`).
        None resolves the ambient default (``REPRO_ENGINE`` env, then
        auto).  Execution-strategy only: both engines are bit-identical
        by contract, so the choice never participates in cache identity
        or spec keys — flipping it can neither churn nor poison the
        cache.
    pool:
        Parallel execution tier: ``"supervised"`` (default) uses the
        heartbeat-supervised shared-memory worker pool
        (:mod:`repro.runner.pool`); ``"executor"`` keeps the legacy
        bare ``ProcessPoolExecutor`` fan-out.  Results are
        bit-identical either way.
    heartbeat_interval_s / heartbeat_timeout_s:
        Supervised-pool liveness protocol: workers beat every
        ``heartbeat_interval_s``; a worker silent for longer than
        ``heartbeat_timeout_s`` is declared hung, killed, and its job
        re-dispatched (``repro run --heartbeat-timeout``).
    max_pool_restarts:
        Budget of replacement workers the supervisor may spawn after
        deaths; once spent and no worker survives, the circuit breaker
        degrades the grid to serial in-process execution
        (``repro run --max-pool-restarts``).
    chaos:
        Optional :class:`~repro.chaos.plan.ChaosPlan` of deliberate
        infrastructure faults (worker kills, heartbeat stalls, shm and
        cache corruption, journal tears) for resilience testing
        (``repro run --chaos``).  Execution-strategy only — like
        ``engine``, never part of cache identity: a chaos grid must
        produce bit-identical results or the supervision layer is
        broken.
    progress_interval_events:
        Live-progress publish cadence for the per-event interpreter, in
        retired events (``repro run --progress``, the service's SSE
        feed).  0 (the default) disables publishing entirely — the sim
        loop then carries zero per-event progress work.  Observability
        only: like ``log_level`` and ``engine``, progress settings
        never enter cache identity or spec keys, and publisher-on runs
        are bit-identical to publisher-off runs by contract.
    progress_buffer_frames:
        Bound on the per-job frame buffer pool workers piggyback onto
        the heartbeat pipe; when full the oldest frame is dropped
        (drop-oldest, counted, never blocking the simulation).
    """

    scale: Optional[str] = None
    strict: bool = False
    lint_baseline: Optional[str] = None
    jobs: Optional[int] = None
    parallel: bool = True
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR
    cache_salt: str = CODE_VERSION
    job_timeout_s: Optional[float] = None
    job_retries: int = 0
    backoff_base_s: float = 0.5
    backoff_factor: float = 2.0
    allow_partial: bool = False
    resume: bool = False
    log_level: Optional[str] = None
    log_json: bool = False
    engine: Optional[str] = None
    pool: str = "supervised"
    heartbeat_interval_s: float = 1.0
    heartbeat_timeout_s: float = 30.0
    max_pool_restarts: int = 3
    chaos: Optional[ChaosPlan] = None
    progress_interval_events: int = 0
    progress_buffer_frames: int = 32

    def __post_init__(self) -> None:
        if self.pool not in ("supervised", "executor"):
            raise ConfigError(
                f"pool must be 'supervised' or 'executor', got "
                f"{self.pool!r}"
            )
        if self.heartbeat_interval_s <= 0:
            raise ConfigError("heartbeat_interval_s must be > 0")
        if self.heartbeat_timeout_s <= self.heartbeat_interval_s:
            raise ConfigError(
                "heartbeat_timeout_s must exceed heartbeat_interval_s "
                f"({self.heartbeat_timeout_s} <= "
                f"{self.heartbeat_interval_s})"
            )
        if self.max_pool_restarts < 0:
            raise ConfigError("max_pool_restarts must be >= 0")
        if self.progress_interval_events < 0:
            raise ConfigError("progress_interval_events must be >= 0")
        if self.progress_buffer_frames < 1:
            raise ConfigError("progress_buffer_frames must be >= 1")

    def resolved_jobs(self) -> int:
        """Effective worker count (>= 1)."""
        if self.jobs is not None:
            return max(1, self.jobs)
        return max(1, os.cpu_count() or 1)

    def resolved_scale(self) -> str:
        """Effective scale string."""
        from repro.core.presets import resolve_scale

        return resolve_scale(self.scale)


@dataclass(frozen=True)
class ExperimentSpec:
    """One executable job: trace a workload, simulate its modes.

    ``params`` is a sorted tuple of (name, value) pairs rather than a
    dict so the spec stays hashable; use :meth:`params_dict` to expand.
    ``strict_exempt`` opts a spec out of the grid-wide strict
    pre-flight — the plain-atomics micro-benchmark records shared
    atomics as racy load+store pairs *on purpose*, which is exactly what
    the race detector flags.
    """

    workload: str
    scale: str
    modes: tuple[SystemConfig, ...]
    num_threads: int = 16
    plain_atomics: bool = False
    params: tuple[tuple[str, Any], ...] = ()
    strict_exempt: bool = False

    @classmethod
    def for_workload(
        cls,
        workload: str,
        scale: str,
        modes: "list[SystemConfig] | tuple[SystemConfig, ...]",
        num_threads: int = 16,
        plain_atomics: bool = False,
        params: Optional[dict] = None,
        strict_exempt: bool = False,
    ) -> "ExperimentSpec":
        return cls(
            workload=workload,
            scale=scale,
            modes=tuple(modes),
            num_threads=num_threads,
            plain_atomics=plain_atomics,
            params=tuple(sorted((params or {}).items())),
            strict_exempt=strict_exempt,
        )

    def params_dict(self) -> dict:
        return dict(self.params)

    # ------------------------------------------------------------------
    # Serialization (service wire format, queue checkpoints)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe mapping that round-trips via :meth:`from_dict`.

        This is the service wire format: ``repro submit`` posts it,
        the broker's drain checkpoint persists it, and
        :func:`~repro.runner.fingerprint.spec_key` is stable across the
        round trip (modes serialize through ``SystemConfig.to_dict``,
        the same canonical form the fingerprint hashes).
        """
        return {
            "workload": self.workload,
            "scale": self.scale,
            "modes": [mode.to_dict() for mode in self.modes],
            "num_threads": self.num_threads,
            "plain_atomics": self.plain_atomics,
            "params": [[name, value] for name, value in self.params],
            "strict_exempt": self.strict_exempt,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        return cls(
            workload=data["workload"],
            scale=data["scale"],
            modes=tuple(
                SystemConfig.from_dict(mode) for mode in data["modes"]
            ),
            num_threads=data.get("num_threads", 16),
            plain_atomics=data.get("plain_atomics", False),
            params=tuple(
                sorted((str(name), value) for name, value in
                       data.get("params", []))
            ),
            strict_exempt=data.get("strict_exempt", False),
        )

    @property
    def job_id(self) -> str:
        """Human-readable identity within one grid."""
        suffix = "/plain" if self.plain_atomics else ""
        return f"{self.workload}@{self.scale}{suffix}"


@dataclass(frozen=True)
class JobFailure:
    """Structured description of one job that did not produce results.

    ``kind`` is one of ``"timeout"`` (wall-clock budget exceeded),
    ``"crash"`` (the worker process died), ``"error"`` (the job raised
    a deterministic :class:`~repro.common.errors.ReproError`), or
    ``"poisoned"`` (the same spec killed two pool workers and was
    quarantined instead of retried forever).
    """

    job_id: str
    kind: str
    message: str = ""
    attempts: int = 1

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
        }


@dataclass
class JobRecord:
    """Structured progress for one spec (``repro run`` output rows)."""

    job_id: str
    workload: str
    scale: str
    status: str = "queued"  # queued | running | done | failed | skipped
    #: Where the job executed: "worker", "inline", or "fallback"
    #: (re-run in-process after its worker died).
    executor: str = ""
    modes_total: int = 0
    modes_cached: int = 0
    modes_simulated: int = 0
    #: Wall seconds the job spent executing (tracing + simulating).
    wall_seconds: float = 0.0
    #: Wall seconds between submission and the start of execution —
    #: time spent waiting for a pool slot.  Always 0 for inline jobs.
    queue_seconds: float = 0.0
    #: Total simulated cycles across this job's modes (0 when cached
    #: results carry no cycle data or the job did not finish).
    sim_cycles: float = 0.0
    error: str = ""
    #: Execution attempts consumed (retries included); 0 when skipped.
    attempts: int = 0
    #: Simulated modes whose vectorized kernel declined the input and
    #: fell back to the reference interpreter (0 for cached modes).
    engine_fallbacks: int = 0

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "workload": self.workload,
            "scale": self.scale,
            "status": self.status,
            "executor": self.executor,
            "modes_total": self.modes_total,
            "modes_cached": self.modes_cached,
            "modes_simulated": self.modes_simulated,
            "wall_seconds": self.wall_seconds,
            "queue_seconds": self.queue_seconds,
            "sim_cycles": self.sim_cycles,
            "error": self.error,
            "attempts": self.attempts,
            "engine_fallbacks": self.engine_fallbacks,
        }


@dataclass
class RunnerReport:
    """Grid-level outcome: per-job records plus aggregate counters."""

    jobs: list[JobRecord] = field(default_factory=list)
    wall_seconds: float = 0.0
    parallel: bool = False
    worker_count: int = 1
    #: True when the process pool broke and jobs were re-run in-process.
    fell_back: bool = False
    #: Structured outcomes for every job that produced no results.
    failures: list[JobFailure] = field(default_factory=list)
    #: Pool restarts: replacement workers spawned by the supervised
    #: pool, or (legacy executor) broken-pool fallbacks to in-process.
    pool_restarts: int = 0
    #: Workers that crashed or were killed for missed heartbeats.
    worker_crashes: int = 0
    #: Shared-memory trace attaches that failed verification and fell
    #: back to the npz spill file.
    shm_attach_failures: int = 0

    @property
    def jobs_total(self) -> int:
        return len(self.jobs)

    @property
    def jobs_failed(self) -> int:
        return sum(1 for job in self.jobs if job.status == "failed")

    @property
    def jobs_skipped(self) -> int:
        """Jobs the checkpoint journal marked as already completed."""
        return sum(1 for job in self.jobs if job.status == "skipped")

    @property
    def simulations(self) -> int:
        return sum(job.modes_simulated for job in self.jobs)

    @property
    def cache_hits(self) -> int:
        return sum(job.modes_cached for job in self.jobs)

    @property
    def all_cached(self) -> bool:
        """True when the whole grid was served from the result cache."""
        return self.jobs_total > 0 and self.simulations == 0

    @property
    def retries(self) -> int:
        """Extra execution attempts beyond the first, grid-wide."""
        return sum(max(job.attempts - 1, 0) for job in self.jobs)

    @property
    def total_sim_cycles(self) -> float:
        """Simulated cycles summed over every finished job and mode."""
        return sum(job.sim_cycles for job in self.jobs)

    @property
    def engine_fallbacks(self) -> int:
        """Simulated modes that fell back to the reference engine."""
        return sum(job.engine_fallbacks for job in self.jobs)

    def to_dict(self) -> dict:
        return {
            "jobs": [job.to_dict() for job in self.jobs],
            "wall_seconds": self.wall_seconds,
            "parallel": self.parallel,
            "worker_count": self.worker_count,
            "fell_back": self.fell_back,
            "failures": [failure.to_dict() for failure in self.failures],
            "jobs_total": self.jobs_total,
            "jobs_failed": self.jobs_failed,
            "jobs_skipped": self.jobs_skipped,
            "simulations": self.simulations,
            "cache_hits": self.cache_hits,
            "all_cached": self.all_cached,
            "retries": self.retries,
            "total_sim_cycles": self.total_sim_cycles,
            "engine_fallbacks": self.engine_fallbacks,
            "pool_restarts": self.pool_restarts,
            "worker_crashes": self.worker_crashes,
            "shm_attach_failures": self.shm_attach_failures,
        }

    def summary_line(self) -> str:
        """Single-line end-of-run digest (``repro run`` epilogue)."""
        line = (
            f"done: {self.jobs_total} job(s), "
            f"{self.cache_hits} cache hit(s), "
            f"{len(self.failures)} failure(s), "
            f"{self.retries} retry(ies), "
            f"{self.total_sim_cycles:.0f} simulated cycles "
            f"in {self.wall_seconds:.1f}s"
        )
        if self.engine_fallbacks:
            line += f" [{self.engine_fallbacks} engine fallback(s)]"
        if (
            self.pool_restarts
            or self.worker_crashes
            or self.shm_attach_failures
        ):
            line += (
                f" [pool: {self.pool_restarts} restart(s), "
                f"{self.worker_crashes} worker crash(es), "
                f"{self.shm_attach_failures} shm fallback(s)]"
            )
        return line

    def summary(self) -> str:
        """One-paragraph text rendering for CLI / benchmark logs."""
        mode = (
            f"{self.worker_count} worker(s)" if self.parallel else "in-process"
        )
        if self.fell_back:
            mode += " (pool broke; finished in-process)"
        lines = [
            f"runner: {self.jobs_total} job(s) via {mode} in "
            f"{self.wall_seconds:.1f}s — {self.simulations} simulation(s), "
            f"{self.cache_hits} cache hit(s)"
            + (", ALL CACHED" if self.all_cached else "")
            + (
                f", {self.jobs_skipped} skipped (resume)"
                if self.jobs_skipped
                else ""
            )
            + (
                f", {len(self.failures)} FAILED"
                if self.failures
                else ""
            )
        ]
        for job in self.jobs:
            line = (
                f"  {job.job_id:16s} {job.status:6s} "
                f"[{job.executor:8s}] "
                f"sim={job.modes_simulated} hit={job.modes_cached} "
                f"{job.wall_seconds:6.2f}s"
            )
            if job.error:
                line += f"  {job.error}"
            lines.append(line)
        return "\n".join(lines)
