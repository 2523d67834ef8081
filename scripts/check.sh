#!/usr/bin/env bash
# CI gate: style lint, type check, tier-1 tests, benchmark self-tests,
# trace-lint (text + SARIF + baseline gating), analysis-engine benchmark
# smoke, simulation-kernel equivalence (both engines, diffed JSON),
# fault-injection smoke runs, a chaos smoke (kill a worker mid-grid,
# assert bit-identical recovery and no leaked shm segments),
# observability smoke, an end-to-end smoke of the simulation service
# (boot, submit, SIGTERM drain), and a fleet smoke (two pull-workers,
# one SIGKILLed mid-lease, bit-identical redispatch).
#
# ruff and mypy run as hard failures when installed.  The offline test
# image ships without them, so by default their absence only prints a
# notice; set REPRO_REQUIRE_LINT=1 (full CI) to make a missing linter
# fail the gate instead of silently skipping it.
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"
export PYTHONPATH="$repo_root/src${PYTHONPATH:+:$PYTHONPATH}"

failures=0

step() {
    echo
    echo "==> $1"
}

run_or_fail() {
    if ! "$@"; then
        failures=$((failures + 1))
    fi
}

require_lint="${REPRO_REQUIRE_LINT:-}"

step "ruff (style lint)"
if python -m ruff --version >/dev/null 2>&1; then
    run_or_fail python -m ruff check src tests benchmarks examples
elif [ -n "$require_lint" ]; then
    echo "ruff not installed and REPRO_REQUIRE_LINT is set: FAILED"
    failures=$((failures + 1))
else
    echo "ruff not installed; skipping (pip install ruff)"
fi

step "mypy (type check)"
if python -m mypy --version >/dev/null 2>&1; then
    run_or_fail python -m mypy
elif [ -n "$require_lint" ]; then
    echo "mypy not installed and REPRO_REQUIRE_LINT is set: FAILED"
    failures=$((failures + 1))
else
    echo "mypy not installed; skipping (pip install mypy)"
fi

step "pytest (tier-1 tests)"
# A hung test (e.g. a wedged worker pool) should fail CI, not stall it:
# cap the whole suite well above its normal couple-of-minutes runtime.
if command -v timeout >/dev/null 2>&1; then
    run_or_fail timeout --signal=TERM 1800 python -m pytest -q tests
else
    run_or_fail python -m pytest -q tests
fi

step "pytest (repository benchmark self-tests)"
# perfbench/ sits outside tier-1 (testpaths=tests); its own tests check
# the measurement and comparison library the benchmark relies on.
run_or_fail python -m pytest -q perfbench

step "repro lint (config presets)"
for preset in baseline upei graphpim; do
    run_or_fail python -m repro lint "$preset"
done

step "repro lint (generated trace)"
trace_file="$(mktemp -d)/bfs.npz"
run_or_fail python -m repro trace BFS --vertices 400 -o "$trace_file"
run_or_fail python -m repro lint "$trace_file"
rm -f "$trace_file"

step "repro lint (SARIF export + baseline gating smoke)"
lint_dir="$(mktemp -d)"
# PageRank's FP_ADD atomics fail PIM001 under --no-fp-ext: a trace
# with real ERROR findings to exercise the CI surface end to end.
run_or_fail python -m repro trace PRank --vertices 400 \
    -o "$lint_dir/prank.npz"
if python -m repro lint "$lint_dir/prank.npz" --no-fp-ext \
    --format sarif > "$lint_dir/findings.sarif"; then
    echo "sarif smoke FAILED: expected exit 1 on ERROR findings"
    failures=$((failures + 1))
elif python -c '
import json, sys
log = json.load(open(sys.argv[1]))
assert log["version"] == "2.1.0", log["version"]
run = log["runs"][0]
assert run["tool"]["driver"]["name"] == "repro-lint"
assert run["tool"]["driver"]["rules"], "no rule metadata"
results = run["results"]
assert results, "no results despite exit 1"
for result in results:
    assert result["partialFingerprints"], "missing fingerprints"
print(f"sarif smoke: {len(results)} result(s), schema-shaped")
' "$lint_dir/findings.sarif"; then
    echo "sarif smoke passed"
else
    echo "sarif smoke FAILED: output not SARIF 2.1.0 shaped"
    failures=$((failures + 1))
fi
# Freezing the findings must flip the gate green; the baseline file
# must round-trip through the strict runner pre-flight path too.
run_or_fail python -m repro lint "$lint_dir/prank.npz" --no-fp-ext \
    --write-baseline "$lint_dir/baseline.json"
if python -m repro lint "$lint_dir/prank.npz" --no-fp-ext \
    --baseline "$lint_dir/baseline.json" >/dev/null; then
    echo "baseline smoke passed (frozen findings no longer gate)"
else
    echo "baseline smoke FAILED: baselined lint still exits non-zero"
    failures=$((failures + 1))
fi
rm -rf "$lint_dir"

step "analysis engine benchmark (tiny-scale equivalence smoke)"
# Full-throughput numbers live in BENCH_analysis.json (small scale);
# here the benchmark runs at tiny scale as a fast both-engines
# equivalence check wired into every CI pass.
run_or_fail env REPRO_SCALE=tiny python -m pytest -q \
    benchmarks/test_analysis_bench.py

step "simulation kernel benchmark (tiny-scale equivalence smoke)"
# Full-throughput numbers and the >=5x floor guard live in
# BENCH_kernel.json (small scale); here the benchmark runs at tiny
# scale as a fast both-engines bit-identity check on every CI pass.
run_or_fail env REPRO_SCALE=tiny python -m pytest -q \
    benchmarks/test_kernel_bench.py

step "simulation engines (both engines, diff the JSON results)"
# The batch kernel and the per-event reference must produce
# byte-identical reports through the whole grid path, not just in
# unit-test harnesses.  No cache: both runs must actually simulate.
engine_dir="$(mktemp -d)"
run_or_fail python -m repro run --scale tiny --jobs 2 --no-cache \
    --engine legacy --json > "$engine_dir/legacy.json"
run_or_fail python -m repro run --scale tiny --jobs 2 --no-cache \
    --engine auto --json > "$engine_dir/auto.json"
if python -c '
import json, sys
a = json.load(open(sys.argv[1]))["workloads"]
b = json.load(open(sys.argv[2]))["workloads"]
assert a.keys() == b.keys() and a, "workload sets differ"
for code in a:
    if a[code] != b[code]:
        raise SystemExit(f"engine results differ for {code}")
print(f"engine diff: {len(a)} workload(s) byte-identical")
' "$engine_dir/legacy.json" "$engine_dir/auto.json"; then
    echo "engine equivalence smoke passed"
else
    echo "engine equivalence smoke FAILED"
    failures=$((failures + 1))
fi
rm -rf "$engine_dir"

step "repro run (parallel grid + result cache smoke)"
cache_dir="$(mktemp -d)/repro_cache"
run_or_fail python -m repro run --scale tiny --jobs 2 --cache-dir "$cache_dir"
# The second invocation must be served entirely from the cache.
if python -m repro run --scale tiny --jobs 2 --cache-dir "$cache_dir" --json \
    | python -c '
import json, sys
report = json.load(sys.stdin)["runner"]
sims, hits = report["simulations"], report["cache_hits"]
print(f"second run: {sims} simulation(s), {hits} cache hit(s)")
sys.exit(0 if report["all_cached"] else 1)
'; then
    echo "cache smoke passed (100% cache hits on second run)"
else
    echo "cache smoke FAILED: second run re-simulated"
    failures=$((failures + 1))
fi
rm -rf "$cache_dir"

step "repro run (fault-injection smoke)"
fault_cache="$(mktemp -d)/repro_cache"
# A lossy-link grid must still produce a complete report whose shape
# carries the resilience fields (failures list, per-job records) and
# per-workload results.
if python -m repro run --scale tiny --jobs 2 --cache-dir "$fault_cache" \
    --faults "ber=1e-6,seed=7" --allow-partial --json \
    | python -c '
import json, sys
report = json.load(sys.stdin)
runner, workloads = report["runner"], report["workloads"]
assert isinstance(runner["failures"], list), "missing failures list"
assert runner["jobs"], "missing job records"
assert workloads, "no workload reports"
for code, wl in workloads.items():
    assert wl["results"]["GraphPIM"]["cycles"] > 0, code
failed = len(runner["failures"])
print(f"fault smoke: {len(workloads)} workload(s), {failed} failure(s)")
'; then
    echo "fault-injection smoke passed"
else
    echo "fault-injection smoke FAILED"
    failures=$((failures + 1))
fi
run_or_fail python -m repro cache --cache-dir "$fault_cache" --verify
rm -rf "$fault_cache"

step "repro run (chaos smoke: kill one worker, bit-identical recovery)"
# A chaos plan that kills a worker mid-grid must still complete with
# zero failures and produce workload results byte-identical to a
# serial chaos-free run, and the supervised pool must leave no shared
# memory segments behind in /dev/shm.
chaos_dir="$(mktemp -d)"
run_or_fail python -m repro run --scale tiny --no-parallel --no-cache \
    --json > "$chaos_dir/serial.json"
run_or_fail python -m repro run --scale tiny --jobs 2 --no-cache \
    --chaos "kill=0:0,seed=7" --json > "$chaos_dir/chaos.json"
if python -c '
import json, sys
serial = json.load(open(sys.argv[1]))
chaos = json.load(open(sys.argv[2]))
assert chaos["runner"]["failures"] == [], chaos["runner"]["failures"]
a, b = serial["workloads"], chaos["workloads"]
assert a.keys() == b.keys() and a, "workload sets differ"
for code in a:
    if a[code] != b[code]:
        raise SystemExit(f"chaos results differ for {code}")
crashes = chaos["runner"]["worker_crashes"]
print(f"chaos diff: {len(a)} workload(s) byte-identical, "
      f"{crashes} worker crash(es) survived")
' "$chaos_dir/serial.json" "$chaos_dir/chaos.json"; then
    echo "chaos recovery smoke passed"
else
    echo "chaos recovery smoke FAILED"
    failures=$((failures + 1))
fi
if [ -d /dev/shm ]; then
    leftover="$(find /dev/shm -maxdepth 1 -name 'repro_*' | wc -l)"
    if [ "$leftover" -ne 0 ]; then
        echo "chaos smoke FAILED: $leftover leaked /dev/shm segment(s)"
        find /dev/shm -maxdepth 1 -name 'repro_*'
        failures=$((failures + 1))
    else
        echo "shm leak check passed (no repro_* segments left)"
    fi
fi
rm -rf "$chaos_dir"

step "repro obs (timeline export + structured-log smoke)"
obs_dir="$(mktemp -d)"
run_or_fail python -m repro obs timeline BFS --vertices 400 \
    -o "$obs_dir/trace.json"
# The export must be structurally valid Chrome trace-event JSON.
if python -c '
import json, sys
from repro.obs import validate_trace_dict
data = json.load(open(sys.argv[1]))
validate_trace_dict(data)
count = len(data["traceEvents"])
assert count, "empty timeline"
print(f"timeline smoke: {count} event(s)")
' "$obs_dir/trace.json"; then
    echo "timeline smoke passed"
else
    echo "timeline smoke FAILED"
    failures=$((failures + 1))
fi
# Under --log-json every stderr log line must parse as a JSON object
# carrying an "event" field.
if python -m repro run --scale tiny --jobs 2 \
    --cache-dir "$obs_dir/cache" --log-json \
    >/dev/null 2>"$obs_dir/run.log" \
    && python -c '
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert lines, "no log lines on stderr"
events = {json.loads(l)["event"] for l in lines}
assert {"grid_start", "grid_finish"} <= events, events
print(f"log smoke: {len(lines)} JSON line(s), events={sorted(events)}")
' "$obs_dir/run.log"; then
    echo "structured-log smoke passed"
else
    echo "structured-log smoke FAILED"
    failures=$((failures + 1))
fi
rm -rf "$obs_dir"

step "repro serve (service smoke: boot, submit, drain)"
# Boots the real service on an ephemeral port, submits a tiny job,
# polls it to completion, scrapes /metrics, SIGTERMs the process, and
# asserts a zero exit code with an empty queue journal.
if command -v timeout >/dev/null 2>&1; then
    run_or_fail timeout --signal=KILL 420 \
        python scripts/service_smoke.py
else
    run_or_fail python scripts/service_smoke.py
fi

step "repro serve (streaming smoke: SSE watch to terminal)"
# Boots the service again, submits a job, and consumes the SSE event
# stream end-to-end: at least one live progress frame must arrive
# before the terminal done event, and the stream health metric
# families must appear on /metrics before SIGTERM.
if command -v timeout >/dev/null 2>&1; then
    run_or_fail timeout --signal=KILL 420 \
        python scripts/stream_smoke.py
else
    run_or_fail python scripts/stream_smoke.py
fi

step "repro serve --fleet (fleet smoke: SIGKILL a worker mid-lease)"
# Dispatch-only broker plus two real pull-workers: SIGKILL one while
# it holds leases, assert the lease-expiry path redispatches every job
# to the survivor, the final bytes are bit-identical to a serial
# server, and no shm segments or leases leak.
if command -v timeout >/dev/null 2>&1; then
    run_or_fail timeout --signal=KILL 420 \
        python scripts/fleet_smoke.py
else
    run_or_fail python scripts/fleet_smoke.py
fi

echo
if [ "$failures" -ne 0 ]; then
    echo "check.sh: $failures step(s) FAILED"
    exit 1
fi
echo "check.sh: all steps passed"
