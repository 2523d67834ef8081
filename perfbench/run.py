"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload fig7-cold --seed 1 --seconds 14 --trace 0

Run from the root of a checkout.  Every measurement happens in a fresh
``child.py`` process (see there); this orchestrator only starts them,
checks outputs and isolation, and reports.  With ``--trace 0`` the
result holds the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a separate traced replay.  ``README.md`` explains the
workloads and which layer metric should move which end-to-end metric.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the run and its host fingerprint are also saved under
``.perfbench_out/`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Recorded hash of the Figure-7 ``tiny`` results (the correctness gate).
EXPECTED_HASH = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))[
    "fig7_tiny_results_hash"
]

#: Figure-7 grid variants: (strict pre-flight, pool workers, warm cache).
#: The serial grids run their jobs in a seeded order.  The pool runs them
#: in the program's own order, as ``repro run --strict --jobs 2`` does:
#: with 2 workers the order sets the makespan, and seeded orders moved
#: ``wall_s`` by 11% (IQR / median over 5 seeds, 3-4 grids per run).
GRID_WORKLOADS = {
    "fig7-cold": (False, 1, False),
    "fig7-strict-pool": (True, 2, False),
    "fig7-warm": (False, 1, True),
}
#: Reference seconds one grid takes, which sets how many grids a run of
#: ``--seconds`` makes.  The count is fixed for given ``--seconds`` so
#: that the pooled job latencies always have the same size and the tail
#: percentile always lands on the same rank.
GRID_SECONDS = {"fig7-cold": 2.8, "fig7-strict-pool": 3.2, "fig7-warm": 1.5}
#: Experiment scale of every grid and service spec.  One ``tiny`` grid
#: takes a few seconds, so a run repeats it and reports medians: on a
#: shared 2-CPU host a single ``small`` grid (15-25 s) moved by 20%
#: (IQR / median) from run to run.
SCALE = "tiny"
WORKLOADS = (*GRID_WORKLOADS, "service-mixed")

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "jobs_per_s": "1/s",
    "sim_events_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "fig7_gpim_speedup_geomean": "x",
    "fig7_speedup_err_pct": "%",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  README.md maps each
#: to the end-to-end metric and workload it should move.
PER_LAYER = {
    "graph.build_s": "s",
    "workloads.run_s": "s",
    "workloads.events": "count",
    "workloads.events_per_s": "1/s",
    "trace.digest_s": "s",
    "trace.encode_s": "s",
    "trace.encode_calls": "count",
    "analysis.preflight_s": "s",
    "analysis.preflight_runs": "count",
    "sim.kernel_s": "s",
    "sim.modes_simulated": "count",
    "sim.events_per_s": "1/s",
    "sim.reference_s": "s",
    "sim.kernel_declines": "count",
    "sim.kernel_share": "ratio",
    "cache.put_s": "s",
    "cache.bytes_written": "bytes",
    "cache.get_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "shm.spill_s": "s",
    "shm.spill_bytes": "bytes",
    "shm.publish_s": "s",
    "shm.attach_s": "s",
    "shm.attach_failures": "count",
    "pool.queue_s": "s",
    "pool.execute_s": "s",
    "pool.utilization": "ratio",
    "pool.restarts": "count",
    "pool.worker_crashes": "count",
    "runner.job_s_max": "s",
    "runner.serialize_s": "s",
    "runner.unattributed_s": "s",
    "service.submit_s": "s",
    "service.queue_wait_s": "s",
    "service.execute_s": "s",
    "service.coalesced_hits": "count",
    "service.coalesce_ratio": "ratio",
    "service.rejected": "count",
    "service.engine_fallbacks": "count",
    "service.polls_per_job": "count",
    "bench.tracing_overhead_s": "s",
}

#: Span names of the traced replay that are layers (``job`` is the
#: per-job root span and holds only the replay's own glue).
LAYER_SPANS = (
    "graph.build", "workloads.run", "trace.digest", "trace.encode",
    "analysis.preflight", "shm.spill", "shm.publish", "shm.attach",
    "cache.get", "sim.kernel", "sim.reference", "runner.serialize",
    "cache.put",
)

#: Set-up probes per run; the median is reported.
SETUP_SAMPLES = 3
#: Wall-clock budget of one run; a run that exceeds it is abandoned.
RUN_BUDGET_S = 170.0


class Failed(Exception):
    """A measurement could not be made; the run exits without a result."""


class Bench:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
        self.tmp = self.work / "tmp"
        self.tmp.mkdir(parents=True)
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            # Pool spill directories and every other temp file stay
            # inside the checkout.
            TMPDIR=str(self.tmp),
        )
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.ok = True

    def fail_check(self, message: str) -> None:
        benchlib.log(message)
        self.ok = False

    def child(self, task: str, cfg: dict) -> "tuple[dict, float]":
        """Run one fresh measured process; returns (result, start time).

        The child leads its own process group, so a pool worker or server
        it leaves behind (after a crash or a timeout) is killed with it
        and waited for.
        """
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Failed(f"out of time before child task {task}")
        started = time.time()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), task, json.dumps(cfg)],
            stdout=subprocess.PIPE,
            text=True,
            env=self.env,
            cwd=str(ROOT),
            start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired as error:
            raise Failed(f"child task {task} timed out") from error
        finally:
            reap_group(proc)
        if proc.returncode != 0:
            raise Failed(f"child task {task} exited with {proc.returncode}")
        return benchlib.last_json_line(stdout), started

    def setup_probes(self, count: int) -> "list[float]":
        """Set-up times in reference seconds (see ``benchlib.speed_probe``)."""
        samples = []
        for _ in range(count):
            result, started = self.child("setup", {})
            samples.append(self.setup_time(result, started))
        return samples

    @staticmethod
    def setup_time(result: dict, started: float) -> float:
        return (result["ready_at"] - started) * benchlib.speed_factor(
            result["probe_s"]
        )

    # ------------------------------------------------------------------

    def run_grid(self) -> "tuple[dict, dict, int, int]":
        strict, jobs, warm = GRID_WORKLOADS[self.args.workload]
        base = {"scale": SCALE, "strict": strict, "jobs": jobs}
        setups = self.setup_probes(SETUP_SAMPLES - 1)
        fill_s = 0.0
        warm_cache = str(self.work / "warm-cache") if warm else None
        if warm:
            fill, started = self.child(
                "grid",
                dict(base, orders=[list(benchlib.FIGURE7_CODES)], strict=False,
                     jobs=1, cache_dir=warm_cache, work=str(self.work)),
            )
            fill_s = (time.time() - started) * benchlib.speed_factor(
                fill["grids"][0]["probe_s"]
            )
            self.check_grid(fill["grids"][0], simulations=24)
        orders = []
        for index in range(
            max(1, round(self.args.seconds / GRID_SECONDS[self.args.workload]))
        ):
            order = list(benchlib.FIGURE7_CODES)
            if jobs == 1:
                random.Random(f"{self.args.seed}:{index}").shuffle(order)
            orders.append(order)
        result, started = self.child(
            "grid",
            dict(base, orders=orders, cache_dir=warm_cache, work=str(self.work)),
        )
        reps = result["grids"]
        setups.append(
            (result["ready_at"] - started)
            * benchlib.speed_factor(reps[0]["probe_s"])
        )
        for rep in reps:
            self.check_grid(rep, simulations=0 if warm else 24)

        # Reference seconds per grid run, and per job within it.  A
        # grid's 8 jobs differ in size by 20x, so its median job is the
        # mean of the 4th and 5th: taken per grid it is the same two jobs
        # every time, where a median of the pooled jobs would land on
        # the edge between two jobs' clusters.
        walls = []
        latencies = []
        medians = []
        event_rates = []
        for rep in reps:
            factor = benchlib.speed_factor(rep["probe_s"])
            walls.append(rep["wall_s"] * factor)
            jobs_s = [
                (job["wall_s"] + job["queue_s"]) * factor for job in rep["jobs"]
            ]
            latencies += jobs_s
            medians.append(benchlib.median(jobs_s))
            event_rates.append(
                sum(job["events"] * job["modes"] for job in rep["jobs"])
                / walls[-1]
            )
        tail, tail_q = benchlib.tail_percentile(latencies)
        paper = benchlib.paper_fig7(ROOT / "EXPERIMENTS.md")
        speedups = reps[0]["speedups"]
        metrics = {
            "wall_s": benchlib.median(walls),
            "setup_s": benchlib.median(setups) + fill_s,
            "jobs_per_s": benchlib.median(
                len(rep["jobs"]) / wall for rep, wall in zip(reps, walls)
            ),
            "sim_events_per_s": benchlib.median(event_rates),
            "latency_p50_s": benchlib.median(medians),
            "latency_p90_s": tail,
            "fig7_gpim_speedup_geomean": benchlib.geomean(
                speedups[code]["GraphPIM"] for code in benchlib.FIGURE7_CODES
            ),
            "fig7_speedup_err_pct": benchlib.speedup_error_pct(speedups, paper),
        }
        self.note(
            f"{len(reps)} grid run(s), {len(latencies)} job latencies, "
            f"latency_p90_s is the p{100 * tail_q:.0f}; host wall_s "
            f"{benchlib.median(rep['wall_s'] for rep in reps):.4f}, speed "
            f"factor {benchlib.median(benchlib.speed_factor(rep['probe_s']) for rep in reps):.3f}"
        )
        # The timed grid process and the pool workers it reaped; the warm
        # fill and the set-up probes are other processes.
        metrics["peak_rss_mb"] = result["rss_mb"]
        attempted = sum(len(rep["jobs"]) for rep in reps)
        failed = sum(rep["failures"] for rep in reps)
        layers = {}
        if self.args.trace:
            layers = self.grid_layers(reps[0], strict, jobs > 1, warm_cache)
        return metrics, layers, attempted, failed

    def check_grid(self, result: dict, simulations: int) -> None:
        if not benchlib.check_hash("grid", result["hash"], EXPECTED_HASH):
            self.ok = False
        if result["engine_fallbacks"]:
            self.fail_check(f"{result['engine_fallbacks']} engine fallback(s)")
        if result["failures"]:
            self.fail_check(f"{result['failures']} failed job(s)")
        if result["simulations"] != simulations:
            self.fail_check(
                f"{result['simulations']} simulations, expected {simulations}"
            )

    def grid_layers(self, rep: dict, strict: bool, pool: bool, warm_cache) -> dict:
        replay, _ = self.child(
            "replay",
            {
                "order": rep["order"],
                "scale": SCALE,
                "strict": strict,
                "shm": pool,
                "cache_dir": warm_cache or str(self.work / "replay-cache"),
                "spill_dir": str(self.tmp),
                "trace_out": str(self.out_path("spans.json")),
            },
        )
        if replay["hash"] != rep["hash"]:
            self.fail_check("traced replay results differ from the timed run")
        factor = benchlib.speed_factor(rep["probe_s"])
        jobs = rep["jobs"]
        workers = rep["worker_count"]
        wall = rep["wall_s"] * factor
        execute = sum(job["wall_s"] for job in jobs) * factor
        layers = self.replay_layers(replay, wall, workers, execute)
        layers.update(
            {
                "shm.attach_failures": replay["counts"]["attach_failures"]
                + rep["shm_attach_failures"],
                "pool.queue_s": (
                    sum(job["queue_s"] for job in jobs) * factor if pool else 0.0
                ),
                "pool.execute_s": execute if pool else 0.0,
                "pool.utilization": execute / (workers * wall),
                "pool.restarts": rep["pool_restarts"],
                "pool.worker_crashes": rep["worker_crashes"],
                "runner.job_s_max": max(job["wall_s"] for job in jobs) * factor,
            }
        )
        return layers

    def replay_layers(
        self, replay: dict, wall: float, workers: int, execute: float
    ) -> dict:
        """Per-layer metrics from a traced replay, in reference seconds.

        ``wall`` is the untraced timed phase, run on ``workers``
        parallel processes or threads; ``execute`` is the untraced
        seconds of the replayed jobs.  Both are reference seconds
        already.  The replay's own
        host seconds are converted with the probes taken around it, so
        the differences below compare like with like.
        """
        factor = benchlib.speed_factor(replay["probe_s"])
        self_s = {
            name: replay["self_s"].get(name, 0.0) * factor for name in LAYER_SPANS
        }
        counts = replay["counts"]
        sim_s = self_s["sim.kernel"] + self_s["sim.reference"]
        run_s = self_s["workloads.run"]
        served = counts["cache_hits"] + counts["cache_misses"]
        simulated = counts["modes_simulated"]
        layers = {name: 0.0 for name in PER_LAYER}
        layers.update(
            {
                "graph.build_s": self_s["graph.build"],
                "workloads.run_s": run_s,
                "workloads.events": counts["events"],
                "workloads.events_per_s": counts["events"] / run_s,
                "trace.digest_s": self_s["trace.digest"],
                "trace.encode_s": self_s["trace.encode"],
                "trace.encode_calls": counts["encode_calls"] / counts["jobs"],
                "analysis.preflight_s": self_s["analysis.preflight"],
                "analysis.preflight_runs": counts["preflight_runs"],
                "sim.kernel_s": self_s["sim.kernel"],
                "sim.modes_simulated": simulated,
                "sim.events_per_s": counts["sim_events"] / sim_s if sim_s else 0.0,
                "sim.reference_s": self_s["sim.reference"],
                "sim.kernel_declines": counts["kernel_declines"],
                "sim.kernel_share": (
                    counts["kernel_modes"] / simulated if simulated else 0.0
                ),
                "cache.put_s": self_s["cache.put"],
                "cache.bytes_written": counts["cache_bytes_written"],
                "cache.get_s": self_s["cache.get"],
                "cache.hits": counts["cache_hits"],
                "cache.misses": counts["cache_misses"],
                "cache.hit_ratio": counts["cache_hits"] / served if served else 0.0,
                "shm.spill_s": self_s["shm.spill"],
                "shm.spill_bytes": counts["spill_bytes"],
                "shm.publish_s": self_s["shm.publish"],
                "shm.attach_s": self_s["shm.attach"],
                "runner.serialize_s": self_s["runner.serialize"],
                "runner.unattributed_s": wall - sum(self_s.values()) / workers,
                "bench.tracing_overhead_s": replay["wall_s"] * factor - execute,
            }
        )
        return layers

    # ------------------------------------------------------------------

    def run_service(self) -> "tuple[dict, dict, int, int]":
        result, _ = self.child(
            "service",
            {"seed": self.args.seed, "scale": SCALE, "work": str(self.work)},
        )
        if not result["ok"]:
            self.fail_check("service replies failed their checks")
        if not benchlib.check_hash("service", result["trio_hash"], EXPECTED_HASH):
            self.ok = False
        outcomes = result["outcomes"]
        wall = result["wall_s"]
        latencies = result["latencies"]
        done = len(outcomes) - benchlib.failed_count(outcomes)
        tail, tail_q = benchlib.tail_percentile(latencies)
        speedups = result["speedups"]
        paper = benchlib.paper_fig7(ROOT / "EXPERIMENTS.md")
        metrics = {
            "wall_s": wall,
            "setup_s": benchlib.median(result["setup_samples"]),
            "peak_rss_mb": result["rss_mb"],
            "jobs_per_s": done / wall,
            "sim_events_per_s": result["events_simulated"] / wall,
            # The stream's latencies fall in clusters, one per workload,
            # and the plain median jumped between two of them: it moved
            # by 27% (IQR / median over 10 seeds).
            "latency_p50_s": benchlib.harrell_davis_median(latencies),
            "latency_p90_s": tail,
            "fig7_gpim_speedup_geomean": benchlib.geomean(
                speedups[code]["GraphPIM"] for code in benchlib.FIGURE7_CODES
            ),
            "fig7_speedup_err_pct": benchlib.speedup_error_pct(speedups, paper),
        }
        self.note(
            f"{len(outcomes)} requests, failed_frac "
            f"{benchlib.failed_frac(outcomes):.3f}, latency_p90_s is the "
            f"p{100 * tail_q:.0f}; host wall_s {result['host_wall_s']:.4f}, "
            f"speed factor {wall / result['host_wall_s']:.3f}"
        )
        layers = {}
        if self.args.trace:
            replay, _ = self.child(
                "replay",
                {
                    "specs": result["distinct"],
                    "scale": SCALE,
                    "strict": False,
                    "shm": False,
                    "untraced_cache_dir": str(self.work / "untraced-cache"),
                    "cache_dir": str(self.work / "replay-cache"),
                    "spill_dir": str(self.tmp),
                    "trace_out": str(self.out_path("spans.json")),
                },
            )
            if replay["hash"] != result["replies_hash"]:
                self.fail_check("traced replay results differ from the replies")
            untraced = replay["untraced_wall_s"] * benchlib.speed_factor(
                replay["untraced_probe_s"]
            )
            # The single caller keeps one job in flight at a time.
            layers = self.replay_layers(replay, wall, 1, untraced)
            layers.update(result["layers"])
        return metrics, layers, len(outcomes), len(outcomes) - done

    # ------------------------------------------------------------------

    def out_path(self, suffix: str) -> Path:
        return out_path(self.args, suffix)

    def note(self, message: str) -> None:
        print(f"# {message}", flush=True)

    def run(self) -> dict:
        shm_before = benchlib.shm_segments()
        try:
            if self.args.workload in GRID_WORKLOADS:
                metrics, layers, attempted, failed = self.run_grid()
            else:
                metrics, layers, attempted, failed = self.run_service()
        finally:
            leaked = benchlib.shm_segments() - shm_before
            pool_dirs = benchlib.pool_dirs(self.tmp)
            shutil.rmtree(self.work, ignore_errors=True)
        if leaked:
            self.fail_check(f"leftover shared-memory segments: {sorted(leaked)}")
        if pool_dirs:
            self.fail_check(f"leftover pool spill directories: {pool_dirs}")
        chosen = layers if self.args.trace else metrics
        units = PER_LAYER if self.args.trace else END_TO_END
        missing = set(units) - set(chosen)
        if missing:
            raise Failed(f"metrics not measured: {sorted(missing)}")
        return {
            "correct": self.ok,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": float(chosen[name]), "unit": unit}
                for name, unit in units.items()
            },
            "end_to_end": metrics,
        }


def reap_group(proc: subprocess.Popen) -> None:
    """Kill what is left of ``proc``'s process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    benchlib.log(f"processes of group {proc.pid} survived SIGKILL")


def out_path(args: argparse.Namespace, suffix: str) -> Path:
    """Where a run's artifacts go (inside the checkout, git-ignored)."""
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    return out / f"{args.workload}-seed{args.seed}-trace{args.trace}-{suffix}"


def parse_args(argv: "list[str]") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: "list[str]") -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        benchlib.log(f"no program sources under {ROOT / 'src'}")
        return 2
    fingerprint = benchlib.host_fingerprint(ROOT)
    print(f"# host {json.dumps(fingerprint, sort_keys=True)}", flush=True)
    try:
        result = Bench(args).run()
    except Failed as error:
        benchlib.log(str(error))
        return 1
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, host=fingerprint)
    out_path(args, "result.json").write_text(json.dumps(record, indent=1))
    for name, entry in result["metrics"].items():
        print(f"{name:28s} {entry['value']:>16.6g} {entry['unit']}")
    del result["end_to_end"]
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
