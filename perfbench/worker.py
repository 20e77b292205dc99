"""One workload process: set up, run the timed loop, check the outputs.

Started by ``run.py``; prints one JSON line.  With ``--probe`` it stops
right before the first timed op and reports only its set-up time.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from array import array
from collections import Counter

import calibrate as C
import spans as T
import workloads as W

# Each op's time is the median of its calibrated times over at least
# this many passes spread across the run.
MIN_PASSES = 3
# set-up is calibrated by the median of this many reference runs right after it
SETUP_REFS = 3


def import_library(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import qschur

    if not os.path.abspath(qschur.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"qschur was imported from {qschur.__file__}, not from {src}")
    return qschur


def _run(Q, workload, op):
    kind, args = op
    W.before_op(Q, workload)
    start = time.perf_counter_ns()
    try:
        out, error = W.RUNNERS[kind](Q, args), None
    except Exception as exc:  # a failed op is counted, not fatal
        out, error = None, f"{kind} raised {type(exc).__name__}: {exc}"
    return (start, time.perf_counter_ns()), out, error


class Ledger:
    """The outcome of every execution, in memory that does not grow with
    the number of passes: per op key, how often each output digest came
    out and the first output (for the independent checks); per error
    message, how often it was raised."""

    def __init__(self):
        self.attempted = 0
        self.digests: dict[str, Counter] = {}
        self.errors: Counter = Counter()
        self.outputs: dict[str, object] = {}

    def add(self, op, out, error):
        self.attempted += 1
        if error is not None:
            self.errors[error] += 1
            return
        key = W.op_key(op)
        self.outputs.setdefault(key, out)
        self.digests.setdefault(key, Counter())[W.digest(op[0], out)] += 1

    def failures(self, Q, ops, golden) -> Counter:
        """Failed executions, each counted once, by reason."""
        checker = W.Checker(Q, self.outputs)
        bad = {}
        for op in ops:
            key = W.op_key(op)
            if key in self.outputs and key not in bad:
                try:
                    bad[key] = checker(op, self.outputs[key])
                except Exception as exc:
                    bad[key] = f"{op[0]} check raised {type(exc).__name__}: {exc}"
        reasons = Counter(self.errors)
        for key, counts in self.digests.items():
            for dig, n in counts.items():
                if dig != golden[key][0]:
                    reasons[f"{key}: digest {dig} differs from golden {golden[key][0]}"] += n
                elif bad.get(key):
                    reasons[f"{key}: {bad[key]}"] += n
        return reasons


def timed_loop(Q, workload, ops, seconds, ledger, clock):
    """Whole passes over the op list for about ``seconds``, at least
    MIN_PASSES, with reference runs on ``clock`` between ops.
    Returns each op's start and end in ns, one pair per pass, in a flat
    array: a fast workload makes hundreds of passes, and peak memory
    should not follow their number."""
    intervals = [array("q") for _ in ops]

    def one_pass():
        # every pass starts from an empty young generation, so the
        # collector does the same work at the same points in each pass
        gc.collect()
        for i, op in enumerate(ops):
            if clock.due():
                clock.sample()
            interval, out, error = _run(Q, workload, op)
            intervals[i].extend(interval)
            ledger.add(op, out, error)

    start = time.perf_counter_ns()
    passes = 0
    while True:
        one_pass()
        passes += 1
        # stop at the pass count whose end lies nearest to ``seconds``
        elapsed = time.perf_counter_ns() - start
        if passes >= MIN_PASSES and elapsed * (passes + 0.5) / passes >= seconds * 1e9:
            break
    clock.sample()
    return intervals


def traced_pass(Q, workload, ops, ledger, out_path):
    matrix = Q.transition_matrix
    tracer = T.Tracer()
    uninstall = T.install(Q, tracer)
    try:
        for i, op in enumerate(ops):
            kind, args = op
            W.before_op(Q, workload)
            before = matrix.cache_info()
            start = time.perf_counter_ns()
            try:
                out, error = tracer.run_op(i, W.RUNNERS[kind], Q, args), None
            except Exception as exc:
                out, error = None, f"traced {kind} raised {type(exc).__name__}: {exc}"
            tracer.op_wall[i] = (start, time.perf_counter_ns())
            after = matrix.cache_info()
            tracer.counters["qsym.matrix_cache_hits"] += after.hits - before.hits
            tracer.counters["qsym.matrix_cache_misses"] += after.misses - before.misses
            ledger.add(op, out, error)
    finally:
        uninstall()
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    tracer.write(out_path)
    return tracer


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True, choices=W.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-ns", type=int, required=True)
    p.add_argument("--probe", action="store_true")
    a = p.parse_args(argv)

    Q = import_library(a.root)
    golden = W.load_golden(a.workload)
    ops = W.build_ops(a.workload, a.seed, golden)
    W.prepare(Q, a.workload)
    gc.collect()
    # set-up objects live to the end; keep full collections from walking them
    gc.freeze()
    setup_s = (time.monotonic_ns() - a.spawned_ns) / 1e9
    clock = C.Clock()
    for _ in range(SETUP_REFS):
        clock.sample()
    setup_s *= C.REF_NS / statistics.median(clock.ns)
    if a.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ledger = Ledger()
    clock = C.Clock()
    intervals = timed_loop(Q, a.workload, ops, a.seconds, ledger, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runs = [list(zip(flat[0::2], flat[1::2])) for flat in intervals]
    wall = [statistics.median(e - s for s, e in op_runs) for op_runs in runs]
    per_op = [statistics.median((e - s) * clock.scale(s, e) for s, e in op_runs) for op_runs in runs]
    p90 = statistics.quantiles(per_op, n=10)[8]
    result = {
        "setup_s": setup_s,
        "samples": len(per_op),
        "beyond_p90": sum(1 for t in per_op if t > p90),
        "passes": len(runs[0]),
        "reference_ms": statistics.median(clock.ns) / 1e6,
        "wall_ops_per_s": len(wall) / (sum(wall) / 1e9),
        "metrics": {
            "ops_per_s": len(per_op) / (sum(per_op) / 1e9),
            "op_p50_ms": statistics.median(per_op) / 1e6,
            "op_p90_ms": p90 / 1e6,
            "peak_rss_mb": peak_rss_mb,
        },
        "problems": [],
    }
    if a.trace:
        out_path = os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "out",
            f"trace-{a.workload}-{a.seed}.tsv.gz",
        )
        tracer = traced_pass(Q, a.workload, ops, ledger, out_path)
        traced_ns = sum(end - start for start, end in tracer.op_wall.values())
        layer = T.layer_metrics(tracer)
        # wall time against wall time: the traced pass is not calibrated
        layer["trace_overhead_ratio"] = traced_ns / sum(wall)
        result["layer_metrics"] = layer
        result["problems"] = T.check_ops(tracer)
        result["trace_file"] = os.path.relpath(out_path, a.root)
        result["trace_spans"] = len(tracer)

    reasons = ledger.failures(Q, ops, golden)
    result["attempted"] = ledger.attempted
    result["failed"] = sum(reasons.values())
    result["fail_reasons"] = sorted(reasons)[:20]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
