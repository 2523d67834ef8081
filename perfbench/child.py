"""One measured process of the benchmark.

``run.py`` starts a fresh interpreter on this file for every set-up
probe, timed run and traced replay, so process-global memos (the strict
pre-flight's clean set, each trace's columnar memo, the loaded C
kernel) never carry over from one measurement to the next::

    python perfbench/child.py <task> '<json config>'

Tasks: ``setup`` (imports and C-kernel load only), ``grid`` (Figure-7
grids through ``ExperimentRunner.run``), ``replay`` (the traced
replay of the same jobs through each layer's public function) and
``service`` (see ``service_load.py``).  The last line of standard
output is the task's JSON result.

The supervised pool starts its workers with ``spawn``, which re-imports
this file as ``__mp_main__``: everything below stays import-safe and
the work runs only under the ``__main__`` guard.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import benchlib


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def load_program() -> float:
    """Import the program and load its C kernel; returns ``time.time()``.

    A host without a working C compiler would time the ~20x slower
    reference interpreter instead of the kernel, so it fails here.
    """
    import repro.runner.engine  # noqa: F401
    import repro.service.client  # noqa: F401
    from repro.sim._cbuild import load_kernel

    lib, reason = load_kernel()
    if lib is None:
        raise SystemExit(f"perfbench: C kernel unavailable: {reason}")
    return time.time()


def grid_specs(order: "list[str]", scale: str):
    """The Figure-7 evaluation grid, jobs in ``order``."""
    from repro.runner.engine import evaluation_grid_specs

    by_code = {spec.workload: spec for spec in evaluation_grid_specs(scale)}
    return [by_code[code] for code in order]


def task_setup(cfg: dict) -> dict:
    return {"ready_at": load_program(), "probe_s": benchlib.speed_probe()}


def run_grid(order: "list[str]", cfg: dict, cache_dir: str) -> dict:
    """One grid; ``wall_s`` covers ``ExperimentRunner.run`` only."""
    from repro.runner.engine import ExperimentRunner
    from repro.runner.spec import RunnerConfig

    specs = grid_specs(order, cfg["scale"])
    config = RunnerConfig(
        scale=cfg["scale"],
        strict=cfg["strict"],
        jobs=cfg["jobs"],
        parallel=cfg["jobs"] > 1,
        cache_dir=cache_dir,
        allow_partial=True,
    )
    probe_before = benchlib.speed_probe()
    started = time.perf_counter()
    outcomes, report = ExperimentRunner(config).run(specs)
    wall = time.perf_counter() - started
    probe_s = (probe_before + benchlib.speed_probe()) / 2

    payloads = {}
    speedups = {}
    events = {}
    for outcome in outcomes:
        code = outcome.spec.workload
        events[code] = outcome.run.trace.num_events
        for label, result in outcome.results.items():
            payloads[(code, label)] = result.to_dict()
        baseline = outcome.results["Baseline"]
        speedups[code] = {
            label: outcome.results[label].speedup_over(baseline)
            for label in ("U-PEI", "GraphPIM")
        }
    return {
        "order": order,
        "wall_s": wall,
        "probe_s": probe_s,
        "hash": benchlib.results_hash(payloads),
        "jobs": [
            {
                "workload": job.workload,
                "wall_s": job.wall_seconds,
                "queue_s": job.queue_seconds,
                "events": events.get(job.workload, 0),
                "modes": job.modes_total,
            }
            for job in report.jobs
        ],
        "failures": len(report.failures),
        "simulations": report.simulations,
        "engine_fallbacks": report.engine_fallbacks,
        "pool_restarts": report.pool_restarts,
        "worker_crashes": report.worker_crashes,
        "shm_attach_failures": report.shm_attach_failures,
        "worker_count": report.worker_count,
        "speedups": speedups,
    }


def task_grid(cfg: dict) -> dict:
    """Grids back to back, one per entry of ``orders``.

    Nothing a grid memoizes reaches the next one: each grid has its own
    cache directory (or all share the warm cache), its own traces, and
    for the pool its own freshly spawned workers, which are where the
    strict pre-flight runs.
    """
    ready_at = load_program()
    grids = [
        run_grid(order, cfg, cfg["cache_dir"] or os.path.join(cfg["work"], f"cache{i}"))
        for i, order in enumerate(cfg["orders"])
    ]
    return {"ready_at": ready_at, "grids": grids, "rss_mb": peak_rss_mb()}


# ----------------------------------------------------------------------
# Traced replay
# ----------------------------------------------------------------------


class Replay:
    """Replays jobs through the public functions ``execute_spec`` and the
    supervised-pool worker are built from, one span per call.

    Counters are recorded at the same boundaries as the spans.  The
    columnar encoder is wrapped for the life of the process, so encodes
    appear as child spans of the layer that triggers them, as they do
    in the runner: the strict pre-flight's own ``from_events`` and the
    kernel's first ``Trace.columnar()``.  A warm job never encodes.
    """

    def __init__(self, cache_dir: str, spill_dir: str) -> None:
        from repro.runner.cache import ResultCache
        from repro.trace import columnar

        self.rec = benchlib.SpanRecorder()
        self.cache = ResultCache(cache_dir)
        self.spill_dir = spill_dir
        self.job = ""
        self.counts = {
            "jobs": 0,
            "events": 0,
            "encode_calls": 0,
            "preflight_runs": 0,
            "modes_simulated": 0,
            "kernel_modes": 0,
            "kernel_declines": 0,
            "sim_events": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_bytes_written": 0,
            "spill_bytes": 0,
            "attach_failures": 0,
        }
        self.payloads: "dict[tuple[str, str], dict]" = {}
        encode = columnar.ColumnarTrace.from_events.__func__
        replay = self

        def traced_from_events(cls, trace):
            replay.counts["encode_calls"] += 1
            with replay.rec.span("trace.encode", replay.job):
                return encode(cls, trace)

        columnar.ColumnarTrace.from_events = classmethod(traced_from_events)

    def job_run(self, spec, key: str, strict: bool, shm: bool) -> None:
        from repro.analysis import preflight_run
        from repro.core.presets import workload_graph
        from repro.runner.fingerprint import (
            CODE_VERSION,
            config_fingerprint,
            result_key,
        )
        from repro.runner.shm import attach_trace, publish_trace, unlink_segment
        from repro.sim.config import Mode, SystemConfig
        from repro.sim.system import SimResult, simulate_with_engine
        from repro.trace.io import save_trace, trace_digest
        from repro.workloads.registry import get_workload

        span, counts, job = self.rec.span, self.counts, spec.job_id
        self.job = job
        counts["jobs"] += 1
        with span("job", job):
            with span("graph.build", job):
                graph = workload_graph(spec.workload, spec.scale)
            workload = get_workload(spec.workload)
            with span("workloads.run", job):
                run = workload.run(
                    graph,
                    num_threads=spec.num_threads,
                    plain_atomics=spec.plain_atomics,
                    **spec.params_dict(),
                )
            events = run.trace.num_events
            counts["events"] += events
            with span("trace.digest", job):
                trace_hash = trace_digest(run.trace)
            if strict:
                lint_cfg = next(
                    (c for c in spec.modes if c.mode is Mode.GRAPHPIM),
                    SystemConfig.graphpim(),
                )
                counts["preflight_runs"] += 1
                with span("analysis.preflight", job):
                    preflight_run(run, config=lint_cfg, trace_hash=trace_hash)
            ref = None
            if shm:
                npz = os.path.join(self.spill_dir, f"job{counts['jobs']}.npz")
                with span("shm.spill", job):
                    save_trace(run.trace, npz)
                counts["spill_bytes"] += os.path.getsize(npz)
                with span("shm.publish", job):
                    ref = publish_trace(run.trace)
            for mode in spec.modes:
                cache_key = result_key(
                    trace_hash, config_fingerprint(mode), CODE_VERSION
                )
                with span("cache.get", job):
                    payload = self.cache.get(cache_key)
                if payload is not None:
                    counts["cache_hits"] += 1
                    with span("runner.serialize", job):
                        SimResult.from_dict(payload)
                else:
                    counts["cache_misses"] += 1
                    with span("sim.kernel", job) as sim_span:
                        result, info = simulate_with_engine(run.trace, mode)
                        if info.engine != "vectorized":
                            sim_span["name"] = "sim.reference"
                    counts["modes_simulated"] += 1
                    counts["sim_events"] += events
                    if info.engine == "vectorized":
                        counts["kernel_modes"] += 1
                    if info.fallback:
                        counts["kernel_declines"] += 1
                    with span("runner.serialize", job):
                        payload = result.to_dict()
                    before = self.cache.size_bytes()
                    with span("cache.put", job):
                        self.cache.put(cache_key, payload)
                    counts["cache_bytes_written"] += (
                        self.cache.size_bytes() - before
                    )
                with span("runner.serialize", job):
                    SimResult.from_dict(payload)
                self.payloads[(key, mode.display_name)] = payload
            if ref is not None:
                with span("shm.attach", job):
                    try:
                        attach_trace(ref)
                    except Exception:  # noqa: BLE001 - counted, spill remains
                        counts["attach_failures"] += 1
                unlink_segment(ref.name)
                os.unlink(npz)


def timed(run_jobs) -> "tuple[float, float]":
    """``(host seconds, speed probe)`` of ``run_jobs()``, probed around it."""
    probe_before = benchlib.speed_probe()
    started = time.perf_counter()
    run_jobs()
    wall = time.perf_counter() - started
    return wall, (probe_before + benchlib.speed_probe()) / 2


def task_replay(cfg: dict) -> dict:
    """Traced replay of a grid (``order``) or of service specs.

    With ``untraced_cache_dir`` the same jobs first run untraced
    through ``execute_spec``, serially in this process: the service's
    counterpart of the replay.  The server's own execute seconds are
    not one; it answers status polls while it executes, and they
    exceeded the traced replay's wall time.
    """
    load_program()
    from repro.obs.timeline import validate_trace_dict
    from repro.runner.engine import execute_spec
    from repro.runner.spec import ExperimentSpec, RunnerConfig

    if "order" in cfg:
        jobs = [
            (spec, spec.workload)
            for spec in grid_specs(cfg["order"], cfg["scale"])
        ]
    else:
        jobs = [
            (ExperimentSpec.from_dict(item["spec"]), item["key"])
            for item in cfg["specs"]
        ]
    untraced = {}
    if cfg.get("untraced_cache_dir"):
        config = RunnerConfig(
            scale=cfg["scale"], cache_dir=cfg["untraced_cache_dir"], parallel=False
        )
        wall, probe_s = timed(
            lambda: [execute_spec(spec, config) for spec, _ in jobs]
        )
        untraced = {"untraced_wall_s": wall, "untraced_probe_s": probe_s}
    # Constructed only now: it wraps the columnar encoder for good.
    replay = Replay(cfg["cache_dir"], cfg["spill_dir"])
    wall, probe_s = timed(
        lambda: [
            replay.job_run(spec, key, cfg["strict"], cfg["shm"])
            for spec, key in jobs
        ]
    )
    trace = benchlib.chrome_trace(replay.rec.spans)
    validate_trace_dict(trace)
    with open(cfg["trace_out"], "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    return {
        "wall_s": wall,
        "probe_s": probe_s,
        "hash": benchlib.results_hash(replay.payloads),
        "self_s": benchlib.self_times(replay.rec.spans),
        "counts": replay.counts,
        **untraced,
    }


TASKS = {"setup": task_setup, "grid": task_grid, "replay": task_replay}


def main(argv: "list[str]") -> int:
    task, cfg = argv[1], json.loads(argv[2])
    if task == "service":
        import service_load

        result = service_load.task_service(cfg)
    else:
        result = TASKS[task](cfg)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
