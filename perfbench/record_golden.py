"""Record the golden digests of every op in the workload pools.

    python3 perfbench/record_golden.py

Runs the pool five times, checks the outputs with the independent
checks, and writes ``golden/<workload>.json``: op key -> [output digest,
median cost in ms].
Re-record only at a commit whose outputs are trusted: the digests are
what later runs must reproduce bit for bit, and the costs fix the
strata the op lists are drawn from, so they change every seed's op list.
"""
from __future__ import annotations

import json
import os
import statistics
import sys
import time

import workloads as W
from worker import import_library

# costs are the median over this many passes of the pool, so that the
# strata the op lists are drawn from follow the ops' cost, not the noise
PASSES = 5


def record(Q, workload: str) -> dict:
    W.prepare(Q, workload)
    ops = W.pool_ops(workload)
    outputs, costs = {}, {W.op_key(op): [] for op in ops}
    for _ in range(PASSES):
        for op in ops:
            W.before_op(Q, workload)
            start = time.perf_counter()
            out = W.RUNNERS[op[0]](Q, op[1])
            costs[W.op_key(op)].append((time.perf_counter() - start) * 1e3)
            outputs.setdefault(W.op_key(op), out)
    checker = W.Checker(Q, outputs)
    bad = [W.op_key(op) for op in ops if checker(op, outputs[W.op_key(op)])]
    if bad:
        raise SystemExit(f"{workload}: {len(bad)} ops fail their check, e.g. {bad[0]}")
    golden = {}
    for op in ops:
        key = W.op_key(op)
        golden[key] = [W.digest(op[0], outputs[key]), round(statistics.median(costs[key]), 3)]
    return golden


def main() -> int:
    root = os.path.dirname(W.HERE)
    Q = import_library(root)
    os.makedirs(W.GOLDEN_DIR, exist_ok=True)
    for workload in W.WORKLOADS:
        start = time.perf_counter()
        golden = record(Q, workload)
        path = os.path.join(W.GOLDEN_DIR, f"{workload}.json")
        with open(path, "w") as fh:
            json.dump(golden, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(golden)} ops in {time.perf_counter() - start:.1f} s -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
