"""Arithmetic and bookkeeping shared by the benchmark's processes.

Pure standard library: the orchestrator imports this module before it
knows whether the program under test is importable, and the unit tests
in ``test_benchlib.py`` exercise it without running any workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Optional

#: Figure-7 workloads in the paper's order.
FIGURE7_CODES = ("BFS", "CComp", "DC", "kCore", "SSSP", "TC", "BC", "PRank")

#: Minimum number of samples that must lie above a reported tail
#: percentile before it counts as measured.
MIN_BEYOND = 10


# ----------------------------------------------------------------------
# Percentiles and counts
# ----------------------------------------------------------------------


def tail_percentile(
    samples: Iterable[float], q: float = 0.9, min_beyond: int = MIN_BEYOND
) -> "tuple[float, float]":
    """``(value, quantile used)`` for a latency tail.

    The nearest-rank ``q`` quantile is reported when at least
    ``min_beyond`` samples lie above it; otherwise the highest quantile
    that has that many samples above it.  With ``min_beyond`` or fewer
    samples no quantile qualifies and the median is reported instead,
    which the returned quantile (0.5) makes visible.
    """
    values = sorted(samples)
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    index = min(math.ceil(q * n) - 1, n - 1 - min_beyond)
    if index < 0:
        return median(values), 0.5
    return values[index], (index + 1) / n


def median(samples: Iterable[float]) -> float:
    values = sorted(samples)
    if not values:
        raise ValueError("no samples")
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2


def harrell_davis_median(samples: Iterable[float]) -> float:
    """Harrell-Davis estimate of the median.

    A weighted mean of all order statistics, with Beta((n+1)/2, (n+1)/2)
    weights.  Where the samples fall in clusters with a gap between
    them, the plain median jumps across the gap as samples move; this
    estimate moves smoothly.  An infinite sample (a failed request)
    falls back to the plain median.
    """
    values = sorted(samples)
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    if n == 1 or math.isinf(values[-1]):
        return median(values)
    a = (n + 1) / 2
    log_norm = math.lgamma(2 * a) - 2 * math.lgamma(a)

    def pdf(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * (math.log(x) + math.log(1.0 - x)))

    # Beta CDF at i/n, i = 0..n, by the trapezoid rule.
    per_sample = 200
    step = 1.0 / (n * per_sample)
    cdf = [0.0]
    area = 0.0
    previous = pdf(0.0)
    for j in range(1, n * per_sample + 1):
        current = pdf(j * step)
        area += (previous + current) * step / 2
        previous = current
        if j % per_sample == 0:
            cdf.append(area)
    return sum(
        value * (cdf[i + 1] - cdf[i]) for i, value in enumerate(values)
    ) / cdf[-1]


#: Request outcomes that count as failed: refusals (HTTP 429 queue
#: full, 503 draining), client-side timeouts and failed jobs.
FAILED_OUTCOMES = frozenset({"429", "503", "timeout", "failed", "error"})


def failed_count(outcomes: Iterable[str]) -> int:
    return sum(1 for outcome in outcomes if outcome in FAILED_OUTCOMES)


def failed_frac(outcomes: "list[str]") -> float:
    """Failed requests or jobs divided by the number attempted."""
    if not outcomes:
        raise ValueError("nothing attempted")
    return failed_count(outcomes) / len(outcomes)


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------

#: Seconds one ``speed_probe`` takes on the host the bounds in
#: ``BENCHMARK.json`` were set on (2-CPU Xeon VM, Python 3.11), in its
#: fast state.
PROBE_REF_S = 0.025


def speed_probe(repeats: int = 5) -> float:
    """Median seconds of a fixed pure-Python loop.

    The shared host's CPU speed drifts by up to 2x over tens of seconds
    (process CPU time drifts with wall time, so this is not
    descheduling).  Timings taken between two probes are scaled to the
    reference speed with ``speed_factor``.  Probe only while the program
    under test is idle: a probe running beside it shares the CPUs and
    slows down when the program uses more CPU, which would hide part of
    the change.  The loop's CPU time does not have that flaw, but it
    followed host speed too loosely: serial grids and the service moved
    by twice as much (IQR / median over 5-10 seeds).
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        rows = [(i, i * 3, i & 7) for i in range(100_000)]
        sum(a + b for a, b, _ in rows)
        times.append(time.perf_counter() - start)
    return median(times)


def speed_factor(probe_s: float) -> float:
    """Multiplier turning host seconds into reference seconds."""
    return PROBE_REF_S / probe_s


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------


def canonical_json(payload) -> bytes:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def results_hash(payloads: "dict[tuple[str, str], dict]") -> str:
    """SHA-256 over every ``SimResult.to_dict()`` payload.

    Keys are ``(workload, mode label)``; the hash is taken in sorted
    key order, so the order jobs ran in never changes it.
    """
    digest = hashlib.sha256()
    for key in sorted(payloads):
        digest.update(canonical_json([list(key), payloads[key]]))
    return digest.hexdigest()


def check_hash(name: str, actual: str, expected: str) -> bool:
    """True when ``actual`` matches the recorded hash; logs a mismatch."""
    if actual != expected:
        log(f"{name}: results hash {actual} != recorded {expected}")
        return False
    return True


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class SpanRecorder:
    """Nested wall-clock spans kept in memory until the run ends.

    Each span is ``{"id", "name", "start", "end", "parent", "job"}``
    with nanosecond ``perf_counter_ns`` bounds.  A span's name may be
    replaced while it is open (``span["name"] = ...``) when the layer
    that ran is only known after the call returns.
    """

    def __init__(self) -> None:
        self.spans: "list[dict]" = []
        self._stack: "list[dict]" = []

    @contextmanager
    def span(self, name: str, job: str = ""):
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter_ns(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "job": job,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter_ns()


def _covered_ns(start: int, end: int, intervals: "list[tuple[int, int]]") -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans: "list[dict]") -> "dict[str, float]":
    """Seconds of each span name not covered by its child spans."""
    children: "dict[int, list[tuple[int, int]]]" = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    totals: "dict[str, float]" = {}
    for span in spans:
        own = (span["end"] - span["start"]) - _covered_ns(
            span["start"], span["end"], children.get(span["id"], [])
        )
        totals[span["name"]] = totals.get(span["name"], 0.0) + own / 1e9
    return totals


def chrome_trace(spans: "list[dict]") -> dict:
    """Spans as a Chrome trace-event object (complete ``X`` events)."""
    origin = min((span["start"] for span in spans), default=0)
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": "perfbench traced replay"},
        }
    ]
    for span in spans:
        events.append(
            {
                "name": span["name"],
                "ph": "X",
                "ts": (span["start"] - origin) / 1e3,
                "dur": (span["end"] - span["start"]) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {
                    "id": span["id"],
                    "parent": span["parent"],
                    "job": span["job"],
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# Host fingerprint and isolation checks
# ----------------------------------------------------------------------


def _first_line(argv: "list[str]", cwd: Optional[str] = None) -> Optional[str]:
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, timeout=10, cwd=cwd
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        return None
    return proc.stdout.strip().splitlines()[0]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_digest(root: Path) -> str:
    """SHA-256 over the program's Python and C sources."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.suffix in (".py", ".c") and "_cbuild" not in path.parts:
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_fingerprint(root: Path) -> dict:
    """Host identity recorded with every result."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cc": _first_line(["cc", "--version"]),
        "git_rev": _first_line(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=str(root)
        ),
        "source_digest": source_digest(root),
    }


#: Fingerprint fields that must agree before two results are compared;
#: the git revision and source digest identify the code, which is what
#: a comparison is allowed to differ in.
HOST_FIELDS = ("cpu_count", "cpu_model", "python", "numpy", "cc")


def same_host(a: dict, b: dict) -> bool:
    return all(a.get(key) == b.get(key) for key in HOST_FIELDS)


SHM_DIR = Path("/dev/shm")


def shm_segments() -> "set[str]":
    """Names of the program's shared-memory segments now linked."""
    try:
        return {name for name in os.listdir(SHM_DIR) if name.startswith("repro")}
    except OSError:
        return set()


def pool_dirs(tmp_dir: Path) -> "list[str]":
    """Supervised-pool spill directories left in ``tmp_dir``."""
    try:
        return sorted(
            name for name in os.listdir(tmp_dir) if name.startswith("repro-pool-")
        )
    except OSError:
        return []


# ----------------------------------------------------------------------
# Paper values and misc
# ----------------------------------------------------------------------

_FIG7_ROW = re.compile(
    r"^\|\s*(\w+)\s*\|\s*~?([\d.]+)\s*\|\s*~?([\d.]+)\s*\|"
)


def paper_fig7(experiments_md: Path) -> "dict[str, dict[str, float]]":
    """Paper U-PEI/GraphPIM speedups from EXPERIMENTS.md's Figure 7 table."""
    text = experiments_md.read_text(encoding="utf-8")
    section = text.split("## Figure 7", 1)[1].split("\n## ", 1)[0]
    values: "dict[str, dict[str, float]]" = {}
    for line in section.splitlines():
        match = _FIG7_ROW.match(line)
        if match and match.group(1) in FIGURE7_CODES:
            values[match.group(1)] = {
                "U-PEI": float(match.group(2)),
                "GraphPIM": float(match.group(3)),
            }
    if set(values) != set(FIGURE7_CODES):
        raise ValueError(
            f"Figure 7 table incomplete in {experiments_md}: {sorted(values)}"
        )
    return values


def speedup_error_pct(
    simulated: "dict[str, dict[str, float]]",
    paper: "dict[str, dict[str, float]]",
) -> float:
    """Mean |simulated - paper| / paper over every paper value, in %."""
    errors = [
        abs(simulated[code][mode] - value) / value
        for code, modes in paper.items()
        for mode, value in modes.items()
    ]
    return 100.0 * sum(errors) / len(errors)


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def last_json_line(text: str) -> dict:
    """The JSON object a child process printed last."""
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("child printed no JSON result")
