#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, in two sets of runs.

    python3 perfbench/steadiness.py [--seeds 1-10]

Runs ``perfbench/run.py`` untraced, at the ``run_seconds`` of
BENCHMARK.json and one run at a time, on every workload of BENCHMARK.json
and every seed, twice: once for set "first" and once for set "second".
The two runs of a seed and workload follow each other, and which set runs
first alternates from seed to seed, so both sets see the same seeds and the
same drift in machine speed.  For every set, workload and end-to-end metric
it records the values, their median and their quartile spread, (Q3 - Q1) /
median with quartiles from ``statistics.quantiles(values, n=4)``, against
the metric's bound; then by how much the second set's median is worse than
the first's.  Results go to perfbench/steadiness.json, rewritten after every
seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "steadiness.json"
SETS = ("first", "second")


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed items\n{proc.stderr}")
    return result


def worse_by(metric, first, second):
    """Share by which ``second`` is worse than ``first`` (negative: better)."""
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def summarize(spec, runs):
    rows = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median
        rows[metric["name"]] = {
            "median": median,
            "spread": spread,
            "bound": metric["bound"],
            "within_bound": spread <= metric["bound"],
            "within_third_of_bound": spread <= metric["bound"] / 3,
            "values": values,
        }
    return {"attempted": [r["attempted"] for r in runs], "metrics": rows}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = p.parse_args(argv)

    workloads = [w["name"] for w in spec["workloads"]]
    runs = {s: {w: [] for w in workloads} for s in SETS}
    doc = {}
    for k, seed in enumerate(args.seeds):
        for workload in workloads:
            for name in SETS if k % 2 == 0 else SETS[::-1]:
                runs[name][workload].append(run_once(workload, seed, spec["run_seconds"]))
        done = args.seeds[: k + 1]
        doc = {
            "run_seconds": spec["run_seconds"],
            "seeds": done,
            "order": "per seed and workload, one run of each set back to back; the set run first alternates by seed",
            "sets": {s: {w: summarize(spec, runs[s][w]) for w in workloads} for s in SETS},
        }
        doc["second_worse_than_first_by"] = {
            w: {
                m["name"]: worse_by(
                    m,
                    doc["sets"]["first"][w]["metrics"][m["name"]]["median"],
                    doc["sets"]["second"][w]["metrics"][m["name"]]["median"],
                )
                for m in spec["end_to_end"]
            }
            for w in workloads
        }
        OUT.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"seed {seed} done", flush=True)

    for w in workloads:
        for m in spec["end_to_end"]:
            name = m["name"]
            spreads = "  ".join(f"{s} {doc['sets'][s][w]['metrics'][name]['spread']:6.1%}" for s in SETS)
            print(f"{w:<15} {name:<12} median {doc['sets']['first'][w]['metrics'][name]['median']:10.5g}  "
                  f"spread {spreads}  second worse by {doc['second_worse_than_first_by'][w][name]:+6.1%}  "
                  f"(bound {m['bound']:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
