"""The ``service-mixed`` workload: ``repro serve`` under a closed-loop caller.

The caller submits one request, waits for its reply by polling (what
``repro submit --wait`` does) and only then sends the next, so a slow
service receives less load.  The request stream is drawn from the seed:

- every Figure-7 workload in each of Baseline / U-PEI / GraphPIM as a
  single-mode spec (24 distinct specs; their replies give the
  simulated Figure-7 speedups at this scale);
- one GraphPIM spec per workload carrying a seeded ``FaultPlan`` (8
  requests, about 17%), which the C kernel declines, so the per-event
  reference interpreter runs;
- 14 repeats of earlier requests (30%), answered from the response
  store.

The seed chooses the order, the fault seeds and which requests repeat;
the amount of distinct work is the same for every seed.

There is one caller, not two, so that host speed can be probed while
the server is idle, between two requests.  With two callers the server
is never idle during the stream.  Probing beside it slows the probe
when the program uses more CPU, which hides part of any change.
Probing between a few parts of the stream was too sparse: over 10
seeds ``latency_p50_s`` moved by 17% and ``latency_p90_s`` by 26%
(IQR / median), more than their bounds allow.  With one caller the two
jobs no longer contend for the server's interpreter lock, and the
stream takes about as long as with two.

With 40% repeats (the first design) the median latency fell in the gap
between replies served without running (under 0.1 s) and executed jobs
(0.3 s and up), and moved by 41% (IQR / median over 5 seeds).  Requests
refused with HTTP 429/503, failed jobs and client timeouts count as
failed.
"""

from __future__ import annotations

import json
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import benchlib
from child import load_program, peak_rss_mb

#: Simulation slots (broker worker threads) of the server.
SERVER_WORKERS = 2
REPEATS = 14
#: Poll cadence of ``ServiceClient.wait``'s default.
POLL_S = 0.05
REQUEST_TIMEOUT_S = 60.0
BOOTS = 3
RECHECKS = 3


def build_stream(seed: int, scale: str) -> "list[dict]":
    """The seeded request stream (see the module docstring)."""
    from repro.core.presets import workload_params
    from repro.faults import FaultPlan
    from repro.runner.fingerprint import spec_key
    from repro.runner.spec import ExperimentSpec
    from repro.sim.config import SystemConfig

    rng = random.Random(f"service-mixed:{seed}")
    ctors = (SystemConfig.baseline, SystemConfig.upei, SystemConfig.graphpim)

    def item(code: str, mode, kind: str) -> dict:
        spec = ExperimentSpec.for_workload(
            code, scale, modes=[mode], params=workload_params(code)
        )
        return {"spec": spec, "key": spec_key(spec), "kind": kind}

    distinct = [
        item(code, ctor(), "base")
        for code in benchlib.FIGURE7_CODES
        for ctor in ctors
    ]
    for code in benchlib.FIGURE7_CODES:
        plan = FaultPlan.from_spec(
            f"ber=1e-6,drop=1e-4,seed={rng.randrange(1 << 30)}"
        )
        distinct.append(item(code, SystemConfig.graphpim().with_faults(plan), "fault"))
    rng.shuffle(distinct)
    stream = list(distinct)
    for _ in range(REPEATS):
        pos = rng.randrange(1, len(stream) + 1)
        stream.insert(pos, dict(rng.choice(stream[:pos]), kind="repeat"))
    return stream


def metric_total(text: str, name: str, **labels: str) -> float:
    """Sum of one Prometheus metric family's samples matching ``labels``."""
    total = 0.0
    pattern = re.compile(rf"^{re.escape(name)}(\{{[^}}]*\}})?\s+(\S+)$")
    for line in text.splitlines():
        match = pattern.match(line)
        if not match:
            continue
        body = match.group(1) or ""
        if all(f'{key}="{value}"' in body for key, value in labels.items()):
            total += float(match.group(2))
    return total


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, work: Path, index: int) -> None:
        from repro.service.client import ServiceClient

        self.log_path = work / f"serve{index}.log"
        started = time.perf_counter()
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", "--port", "0",
                    "--workers", str(SERVER_WORKERS),
                    "--cache-dir", str(work / f"serve-cache{index}"),
                ],
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        self.url = self._announced_url()
        self.client = ServiceClient(self.url, client_id="perfbench")
        deadline = time.monotonic() + 60
        while not self.client.ready():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("service never became ready")
            time.sleep(0.01)
        self.boot_s = time.perf_counter() - started

    def _announced_url(self) -> str:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            text = self.log_path.read_text(encoding="utf-8", errors="replace")
            match = re.search(r"listening on (http://[\d.]+:\d+)", text)
            if match:
                return match.group(1)
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"service did not announce its port ({self.log_path})")

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)
            return -9


def call(client, item: dict) -> dict:
    """One request: submit, then poll until it is done."""
    from repro.common.errors import ServiceError
    from repro.service.client import ClientBackpressureError, JobFailedError

    record = {"item": item, "outcome": "done", "raw": b""}
    client.polls = 0
    started = time.perf_counter()
    try:
        ticket = client.submit(spec=item["spec"])
        record["submit_s"] = time.perf_counter() - started
        status = client.wait(ticket.job_id, timeout_s=REQUEST_TIMEOUT_S, poll_s=POLL_S)
        record["raw"] = status.raw
    except ClientBackpressureError as error:
        record["outcome"] = "503" if "drain" in error.reason else "429"
    except JobFailedError:
        record["outcome"] = "failed"
    except ServiceError as error:
        record["outcome"] = "timeout" if "not finished" in str(error) else "error"
    record["start"] = started
    record["end"] = time.perf_counter()
    record["polls"] = client.polls
    return record


def run_stream(server: "Server", stream: "list[dict]") -> dict:
    """The stream through ``server``, one request at a time.

    Between two requests the server is idle, so host speed is probed
    there (see ``benchlib.speed_probe``) and each request's times are
    converted with the mean of the probes on either side of it.
    """
    from repro.service.client import ServiceClient

    class CountingClient(ServiceClient):
        polls = 0

        def status(self, job_id):
            self.polls += 1
            return super().status(job_id)

    client = CountingClient(server.url, client_id="perfbench")
    records = []
    try:
        before = server.client.metrics_text()
        probes = [benchlib.speed_probe()]
        for item in stream:
            records.append(call(client, item))
            probes.append(benchlib.speed_probe())
            records[-1]["factor"] = benchlib.speed_factor(
                (probes[-2] + probes[-1]) / 2
            )
        after = server.client.metrics_text()
    finally:
        exit_code = server.stop()
    return {
        "records": records,
        "exit_code": exit_code,
        "before": before,
        "after": after,
    }


def task_service(cfg: dict) -> dict:
    load_program()
    from repro.core.presets import workload_graph
    from repro.runner.engine import execute_spec
    from repro.runner.spec import RunnerConfig
    from repro.workloads.registry import get_workload

    work = Path(cfg["work"])
    stream = build_stream(cfg["seed"], cfg["scale"])
    boots = []
    server = None
    for index in range(BOOTS):
        if server is not None:
            server.stop()
        server = Server(work, index)
        boots.append(server.boot_s * benchlib.speed_factor(benchlib.speed_probe()))
    streamed = run_stream(server, stream)
    # Measured here, so the re-checks below are not counted: this
    # process's caller and every server it started and reaped.
    rss_mb = peak_rss_mb()
    records = streamed["records"]
    host_wall = sum(r["end"] - r["start"] for r in records)
    wall = sum((r["end"] - r["start"]) * r["factor"] for r in records)

    ok = True
    if streamed["exit_code"] != 0:
        benchlib.log(f"service exited with {streamed['exit_code']} after SIGTERM")
        ok = False
    done = [r for r in records if r["outcome"] == "done"]
    bodies: "dict[str, bytes]" = {}
    for record in done:
        key = record["item"]["key"]
        first = bodies.setdefault(key, record["raw"])
        if record["raw"] != first:
            benchlib.log(f"duplicate of {key} answered with different bytes")
            ok = False
    results = {key: json.loads(raw)["results"] for key, raw in bodies.items()}

    # Replies for the 24 fault-free specs: the recorded hash and the
    # simulated Figure-7 speedups at this scale.
    trio: "dict[tuple[str, str], dict]" = {}
    for item in stream:
        if item["kind"] == "base" and item["key"] in results:
            for label, payload in results[item["key"]].items():
                trio[(item["spec"].workload, label)] = payload
    speedups = {}
    if len(trio) == 3 * len(benchlib.FIGURE7_CODES):
        for code in benchlib.FIGURE7_CODES:
            base = trio[(code, "Baseline")]["cycles"]
            speedups[code] = {
                label: base / trio[(code, label)]["cycles"]
                for label in ("U-PEI", "GraphPIM")
            }
    else:
        ok = False

    # Re-check a seeded sample (one faulted spec, two fault-free ones)
    # against in-process execution.
    rng = random.Random(f"service-recheck:{cfg['seed']}")
    distinct = {item["key"]: item for item in stream if item["kind"] != "repeat"}
    faulted = sorted(k for k, item in distinct.items() if item["kind"] == "fault")
    clean = sorted(k for k, item in distinct.items() if item["kind"] == "base")
    sample = rng.sample(faulted, 1) + rng.sample(clean, RECHECKS - 1)
    local = RunnerConfig(scale=cfg["scale"], cache_dir=None, parallel=False)
    for key in sample:
        expected = execute_spec(distinct[key]["spec"], local)["modes"]
        served = results.get(key, {})
        for label, entry in expected.items():
            if benchlib.canonical_json(entry["payload"]) != benchlib.canonical_json(
                served.get(label)
            ):
                benchlib.log(f"service reply for {key} {label} != execute_spec")
                ok = False

    events = {}
    for code in benchlib.FIGURE7_CODES:
        spec = next(i["spec"] for i in stream if i["spec"].workload == code)
        run = get_workload(code).run(
            workload_graph(code, cfg["scale"]),
            num_threads=spec.num_threads,
            **spec.params_dict(),
        )
        events[code] = run.trace.num_events

    def delta(name: str, **labels: str) -> float:
        return metric_total(streamed["after"], name, **labels) - metric_total(
            streamed["before"], name, **labels
        )

    submissions = delta("service_submissions_total")
    executed = delta("service_job_execute_seconds_count")
    # Summed by the server over the stream: the stream's mean factor.
    execute_sum = delta("service_job_execute_seconds_sum") * wall / host_wall
    latencies = [(r["end"] - r["start"]) * r["factor"] for r in records]
    return {
        "ok": ok,
        "setup_samples": boots,
        # Times below are reference seconds, except ``host_wall_s``.
        "wall_s": wall,
        "host_wall_s": host_wall,
        "outcomes": [r["outcome"] for r in records],
        "latencies": [
            latency if r["outcome"] == "done" else float("inf")
            for r, latency in zip(records, latencies)
        ],
        # Each distinct spec is simulated once; repeats reuse its reply.
        "events_simulated": sum(
            events[item["spec"].workload]
            for key, item in distinct.items()
            if key in results
        ),
        "trio_hash": benchlib.results_hash(trio),
        "speedups": speedups,
        "replies_hash": benchlib.results_hash(
            {
                (key, label): payload
                for key, modes in results.items()
                for label, payload in modes.items()
            }
        ),
        "distinct": [
            {"key": key, "spec": item["spec"].to_dict()}
            for key, item in distinct.items()
        ],
        "layers": {
            "service.submit_s": sum(
                r.get("submit_s", 0.0) * r["factor"] for r in records
            )
            / len(records),
            "service.queue_wait_s": (sum(latencies) - execute_sum)
            / len(records),
            "service.execute_s": execute_sum / executed if executed else 0.0,
            "service.coalesced_hits": delta("service_coalesced_hits_total"),
            "service.coalesce_ratio": (
                (submissions - delta("service_submissions_total", outcome="accepted"))
                / submissions
                if submissions
                else 0.0
            ),
            "service.rejected": delta("service_rejected_total"),
            "service.engine_fallbacks": delta("service_engine_fallbacks_total"),
            "service.polls_per_job": sum(r["polls"] for r in records)
            / len(records),
        },
        "rss_mb": rss_mb,
    }
