"""The qschur benchmark.

    python3 perfbench/run.py --workload product --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  A single-threaded closed loop with one
caller: each op starts when the previous one has returned.  The workload
runs in a child process (``worker.py``), so set-up is timed from process
start; with ``--trace 0`` four more children set up and stop before the
first timed op, and ``setup_s`` is the median of the five.  With
``--trace 1`` the child also runs one traced pass over the op list and
reports per-layer metrics instead of end-to-end ones.

Prints one line per metric, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from spans import UNITS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 4
DEADLINE_S = 170

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def spawn(a, deadline: float, probe: bool = False) -> dict:
    """Run one worker to completion and return its JSON result."""
    extra = ["--probe"] if probe else []
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--root", ROOT, "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace), *extra, "--spawned-ns",
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    # subprocess.run kills the child and waits for it when the timeout expires
    proc = subprocess.run(
        cmd + [str(time.monotonic_ns())],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=max(timeout, 1),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "qschur", "__init__.py")):
        sys.stderr.write(f"no qschur sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    try:
        setups = [] if a.trace else [spawn(a, deadline, probe=True)["setup_s"] for _ in range(SETUP_PROBES)]
        res = spawn(a, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    attempted, failed = res["attempted"], res["failed"]
    print(
        f"workload {a.workload}  seed {a.seed}  {res['passes']} passes over {res['samples']} ops;"
        f" percentiles over per-op calibrated times, {res['beyond_p90']} beyond p90;"
        f" reference kernel {res['reference_ms']:.3f} ms, uncalibrated ops_per_s {res['wall_ops_per_s']:.4f}"
    )
    if a.trace:
        metrics = {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in res["layer_metrics"].items()
        }
        print(f"trace file {res['trace_file']}  {res['trace_spans']} spans")
    else:
        setups.append(res["setup_s"])
        values = dict(res["metrics"], setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:14.6f} {m['unit']}")
    print(f"{'fail_ratio':42s} {failed / attempted:14.6f} ratio ({failed} of {attempted})")
    for reason in res["fail_reasons"] + res["problems"]:
        print(f"FAIL {reason}")
    correct = failed == 0 and not res["problems"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
