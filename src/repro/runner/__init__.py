"""Parallel experiment runner with a persistent result cache.

Turns the harness's implicit (workload, scale, mode) grid into explicit
:class:`ExperimentSpec` jobs, fans them out across a process pool, and
backs every simulation with a content-addressed on-disk cache
(``.repro_cache/`` by default) keyed by trace hash + config fingerprint
+ code-version salt — a repeated grid performs zero simulations.

Strictness, scale, parallelism, and cache placement travel on
:class:`RunnerConfig` values instead of module globals.

Entry points:

- :func:`run_evaluation_grid` / :func:`run_full_grid` — the paper's
  standard grids (CLI ``repro run``, ``examples/reproduce_all.py``).
- :class:`ExperimentRunner` — execute an arbitrary spec list.
- :class:`ResultCache` — cache inspection/maintenance (``repro cache``).
- :class:`SupervisedWorkerPool` — the heartbeat-monitored worker pool
  behind parallel grids (``RunnerConfig.pool="supervised"``), with
  shared-memory trace hand-off and crash/hang/poison recovery.
"""

from repro.chaos import ChaosPlan
from repro.faults import FaultPlan
from repro.runner.cache import (
    CACHE_LAYOUT_VERSION,
    CheckpointJournal,
    ResultCache,
)
from repro.runner.engine import (
    ExperimentRunner,
    GridResults,
    SpecOutcome,
    evaluation_grid_specs,
    execute_spec,
    execute_spec_async,
    motivation_extra_specs,
    plain_atomics_specs,
    run_evaluation_grid,
    run_full_grid,
)
from repro.runner.pool import PoolOutcome, SupervisedWorkerPool
from repro.runner.shm import (
    ShmError,
    ShmTraceRef,
    attach_trace,
    publish_trace,
    unlink_segment,
)
from repro.runner.fingerprint import (
    CODE_VERSION,
    config_fingerprint,
    result_key,
    spec_key,
    trace_digest,
)
from repro.runner.spec import (
    DEFAULT_CACHE_DIR,
    ExperimentSpec,
    JobFailure,
    JobRecord,
    RunnerConfig,
    RunnerReport,
)

__all__ = [
    "CACHE_LAYOUT_VERSION",
    "ChaosPlan",
    "CheckpointJournal",
    "CODE_VERSION",
    "DEFAULT_CACHE_DIR",
    "ExperimentRunner",
    "ExperimentSpec",
    "FaultPlan",
    "GridResults",
    "JobFailure",
    "JobRecord",
    "PoolOutcome",
    "ResultCache",
    "RunnerConfig",
    "RunnerReport",
    "ShmError",
    "ShmTraceRef",
    "SpecOutcome",
    "SupervisedWorkerPool",
    "attach_trace",
    "config_fingerprint",
    "evaluation_grid_specs",
    "execute_spec",
    "execute_spec_async",
    "motivation_extra_specs",
    "plain_atomics_specs",
    "publish_trace",
    "result_key",
    "spec_key",
    "run_evaluation_grid",
    "run_full_grid",
    "trace_digest",
    "unlink_segment",
]
