"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 tools/ab_pairs.py PARENT CHANGE --workload deform --seed 61 \
        --seconds 25 --pairs 10 [--json out.json]

PARENT and CHANGE are each a checkout directory or a git revision of the
repository this script sits in.  Every run gets a fresh copy of its side
(``git archive`` of a revision, or a copy of a directory without its
``.git``, caches and bytecode), runs ``perfbench/run.py --trace 0`` there
with ``PYTHONDONTWRITEBYTECODE=1`` and is then deleted.  Pair k runs the
parent first when k is even and the change first when k is odd.

Prints each run's end-to-end metrics, then per metric both medians and
quartiles (``statistics.quantiles``, inclusive method; with one pair the
quartiles are that run), the ratio change / parent, how many pairs the
change won (ties count for neither side), the verdict against the
metric's bound in ``BENCHMARK.json`` and whether a gain may be claimed:
at least nine tenths of the pairs won and a median gap, in the better
direction, wider than the parent's interquartile range, over at least
ten pairs.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.pyc")


def fresh_copy(source: str, into: str) -> str:
    """A new copy of ``source`` (a directory or a git revision) under ``into``."""
    dest = tempfile.mkdtemp(prefix="ab-", dir=into)
    if os.path.isdir(source):
        shutil.copytree(source, dest, ignore=SKIP, dirs_exist_ok=True)
        return dest
    archive = subprocess.run(["git", "-C", ROOT, "archive", source],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return dest


def run_once(source: str, a, scratch: str) -> dict:
    """One benchmark run on a fresh copy of ``source``: its result JSON."""
    dest = fresh_copy(source, scratch)
    try:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "perfbench/run.py", "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=dest, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"run.py exited with code {proc.returncode} on {source}")
        return json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(dest, ignore_errors=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The summary of one metric over the pairs, in the better direction."""
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    worse = sign * (cm - pm) < 0 and abs(cm - pm) > bound * pm
    spread = max(p3 - p1, c3 - c1) > bound * max(pm, cm)
    if worse:
        verdict = "worse than bound"
    elif spread and not all(sign * (c - p) > 0 for p in parent for c in change):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "parent_runs": parent, "change_runs": change,
        "parent_median": pm, "parent_q1": p1, "parent_q3": p3,
        "change_median": cm, "change_q1": c1, "change_q3": c3,
        "ratio": round(cm / pm, 4) if pm else None,
        "change_better_pairs": wins, "bound": bound, "verdict": verdict,
        "gain_claimable": (len(parent) >= 10 and wins >= math.ceil(0.9 * len(parent))
                           and sign * (cm - pm) > p3 - p1),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="checkout directory or git revision")
    p.add_argument("change", help="checkout directory or git revision")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--scratch", default=None, help="where the copies are made (default: the temp dir)")
    p.add_argument("--json", default=None, help="also write the summary to this file")
    a = p.parse_args(argv)
    if a.pairs < 1:
        p.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        end_to_end = {m["name"]: m for m in json.load(fh)["end_to_end"]}

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    order = []
    for k in range(a.pairs):
        sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        order.append(sides[0])
        for side in sides:
            res = run_once(getattr(a, side), a, a.scratch)
            runs[side].append(res)
            values = "  ".join(f"{name} {m['value']:.4f}" for name, m in res["metrics"].items())
            print(f"pair {k + 1} {side:6s} correct={res['correct']} failed={res['failed']}"
                  f"/{res['attempted']}  {values}", flush=True)

    summary = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds, "pairs": a.pairs,
        "order_first": order,
        "all_correct": all(r["correct"] for side in runs.values() for r in side),
        "failed_ops": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "metrics": {},
    }
    print(f"\n{a.workload} seed {a.seed}, {a.pairs} pairs ({a.seconds} s runs)")
    for name, spec in end_to_end.items():
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        m = compare(values["parent"], values["change"], spec["better"], spec["bound"])
        summary["metrics"][name] = m
        print(f"{name:12s} parent {m['parent_median']:.4f} [{m['parent_q1']:.4f}, {m['parent_q3']:.4f}]"
              f"  change {m['change_median']:.4f} [{m['change_q1']:.4f}, {m['change_q3']:.4f}]"
              f"  ratio {m['ratio']}  wins {m['change_better_pairs']}/{a.pairs}"
              f"  {m['verdict']}{'  gain claimable' if m['gain_claimable'] else ''}")
    if a.json:
        with open(a.json, "w") as fh:
            json.dump(summary, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
