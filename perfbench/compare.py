"""Compare saved benchmark results of two commits, per metric.

    python3 perfbench/compare.py --base .perfbench_out/a*.json --change .perfbench_out/b*.json

Each file is a ``*-result.json`` written by ``run.py``.  Results are
grouped by workload and traced-ness; for each metric the medians of
both sides are printed with their relative change, and end-to-end
metrics that worsen by more than their ``BENCHMARK.json`` bound are
flagged.  Results recorded on different hosts (see
``benchlib.HOST_FIELDS``) and results that failed the correctness gate
are never compared: the script exits with code 2 instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import benchlib

ROOT = Path(__file__).resolve().parent.parent


def load(paths: "list[str]") -> "list[dict]":
    return [json.loads(Path(path).read_text(encoding="utf-8")) for path in paths]


def main(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, change = load(args.base), load(args.change)
    wrong = [record for record in base + change if not record["correct"]]
    if wrong:
        benchlib.log(
            "refusing to compare results that failed the correctness gate: "
            + ", ".join(f"{r['workload']} seed {r['seed']}" for r in wrong)
        )
        return 2
    host = base[0]["host"]
    for record in base + change:
        if not benchlib.same_host(host, record["host"]):
            benchlib.log(
                "refusing to compare results from different hosts: "
                f"{json.dumps(host, sort_keys=True)} vs "
                f"{json.dumps(record['host'], sort_keys=True)}"
            )
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    regressed = False
    groups = sorted({(r["workload"], r["trace"]) for r in base + change})
    for workload, trace in groups:
        sides = [
            [r for r in side if (r["workload"], r["trace"]) == (workload, trace)]
            for side in (base, change)
        ]
        if not all(sides):
            continue
        print(f"{workload} (trace {trace}): {len(sides[0])} base, "
              f"{len(sides[1])} change run(s)")
        for name, entry in sides[0][0]["metrics"].items():
            old, new = (
                benchlib.median(r["metrics"][name]["value"] for r in side)
                for side in sides
            )
            rel = (new - old) / old if old else 0.0
            flag = ""
            bound = bounds.get(name)
            if bound is not None:
                worse = rel if bound["better"] == "lower" else -rel
                if worse > bound["bound"]:
                    flag = "  REGRESSION"
                    regressed = True
            print(f"  {name:28s} {old:14.6g} -> {new:14.6g} "
                  f"{entry['unit']:6s} {100 * rel:+7.2f}%{flag}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
