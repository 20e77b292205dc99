"""Steadiness report: run-to-run spread of every end-to-end metric.

    python3 perfbench/steadiness.py

Runs every workload of ``BENCHMARK.json`` ten times, with seeds 1 to 10,
and reports for each end-to-end metric the distance between the first
and third quartile of the values as a share of their median, next to
the bound ``BENCHMARK.json`` fixes for it.  A spread is steady when
it is below a third of the bound (``setup_s`` excepted: only its median
drift counts).  The ten runs are then repeated with the same seeds, and
the drift of the second set's median from the first is reported too; a
drift in the worse direction must stay within the bound.  The raw values
go to ``perfbench/out/steadiness.json``.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2


def run_once(command, workload, seed, seconds) -> dict:
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} is not correct:\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = range(1, RUNS + 1)

    print("| workload | metric | set | median | spread (IQR/median) | drift from set 1 | bound | steady |")
    print("|---|---|---|---|---|---|---|---|")
    all_steady = True
    raw = {}
    for workload in workloads:
        sets = raw[workload] = []
        for _ in range(SETS):
            runs = [run_once(bench["command"], workload, s, bench["run_seconds"]) for s in seeds]
            sets.append({name: [r[name] for r in runs] for name in metrics})
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        with open(os.path.join(HERE, "out", "steadiness.json"), "w") as fh:
            json.dump({"seeds": list(seeds), "runs": raw}, fh, indent=1)
        for name, m in metrics.items():
            first = statistics.median(sets[0][name])
            for i, one_set in enumerate(sets, start=1):
                values = one_set[name]
                med = statistics.median(values)
                drift = (med - first) / first
                worse = drift if m["better"] == "lower" else -drift
                s = spread(values)
                steady = worse <= m["bound"] and (name == "setup_s" or s < m["bound"] / 3)
                all_steady &= steady
                print(
                    f"| {workload} | {name} | {i} | {med:.4f} {m['unit']} | {s:.3f} | "
                    f"{drift:+.3f} | {m['bound']} | {'yes' if steady else 'NO'} |",
                    flush=True,
                )
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
