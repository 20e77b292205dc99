"""Self-tests of the benchmark.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
import worker  # noqa: E402

Q = worker.import_library(ROOT)


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_seed_gives_the_same_op_list(workload):
    golden = W.load_golden(workload)
    first = W.build_ops(workload, 7, golden)
    assert len(first) >= 100  # so that ten per-op times lie beyond the 90th percentile
    assert first == W.build_ops(workload, 7, golden)
    assert first != W.build_ops(workload, 8, golden)
    assert all(W.op_key(op) in golden for op in first)


def test_golden_covers_the_pools():
    for workload in W.WORKLOADS:
        assert {W.op_key(op) for op in W.pool_ops(workload)} == set(W.load_golden(workload))


def _pieri_unit():
    unit = [("pieri_row", [[1, 2], 2]), ("product", [[1, 2], [2]])]
    ledger = worker.Ledger()
    for op in unit:
        ledger.add(op, W.RUNNERS[op[0]](Q, op[1]), None)
    return unit, ledger


def test_correct_outputs_pass():
    unit, ledger = _pieri_unit()
    assert not ledger.failures(Q, unit, W.load_golden("product"))


def test_corrupted_output_counts_as_a_failure():
    unit, ledger = _pieri_unit()
    good = ledger.outputs[W.op_key(unit[0])]
    bad = good.scale(2)
    ledger.add(unit[0], bad, None)
    golden = W.load_golden("product")
    assert sum(ledger.failures(Q, unit, golden).values()) == 1

    # with the corrupted digest recorded as golden, the independent
    # check against the partner product still fails the op
    fresh = worker.Ledger()
    fresh.add(unit[0], bad, None)
    fresh.add(unit[1], W.RUNNERS["product"](Q, unit[1][1]), None)
    forged = dict(golden)
    forged[W.op_key(unit[0])] = [W.digest("pieri_row", bad), 0.0]
    reasons = fresh.failures(Q, unit, forged)
    assert sum(reasons.values()) == 1 and "check failed" in next(iter(reasons))


def test_raised_op_counts_as_a_failure():
    ledger = worker.Ledger()
    ledger.add(("const", [[3], 4]), None, "const raised ValueError: boom")
    assert ledger.failures(Q, [], W.load_golden("deform")) == {"const raised ValueError: boom": 1}


# Per workload: per-layer metrics the README's table says the workload
# moves, which a tiny traced run must report above 0, and metrics of
# layers the workload never reaches, which must stay 0.
MOVED = {
    "product": (
        "polynomial.xpoly_mul_calls", "polynomial.xpoly_mul_s", "polynomial.xpoly_terms_out",
        "polynomial.xpoly_build_calls", "tableaux.ssafs_yielded", "tableaux.enum_ssafs_s",
        "tableaux.ssaf_accept_ratio", "qsym.qschur_polynomial_s", "qsym.matrix_cache_hits",
        "pieri.product_qschur_s", "pieri.pieri_s", "pieri.rule_accept_ratio",
        "compositions.composition_new_calls",
    ),
    "basis": (
        "tableaux.comts_yielded", "tableaux.enum_comts_s", "tableaux.std_comts_yielded",
        "tableaux.std_comts_accept_ratio", "qsym.transition_matrix_s",
        "qsym.matrix_cache_misses", "qsym.express_in_qschur_s",
        "compositions.composition_new_calls",
    ),
    "deform": (
        "fillings.fillings_yielded", "fillings.enum_fillings_s", "fillings.coinv_s",
        "fillings.coinv_per_filling", "polynomial.xpoly_build_calls", "polynomial.xpoly_build_s",
        "polynomial.qtpoly_mul_calls", "polynomial.qtpoly_mul_s", "polynomial.div_exact_s",
        "macdonald.integral_form_s", "macdonald.hl_p_s", "macdonald.hl_oracle_s",
        "macdonald.j_fundamental_s", "compositions.composition_new_calls",
    ),
    "insert": (
        "insertion.insert_calls", "insertion.path_cells", "insertion.skyline_insert_s",
        "insertion.skyline_uninsert_s", "tableaux.comt_new_calls",
    ),
}
UNTOUCHED = {
    "product": ("fillings.fillings_yielded", "insertion.insert_calls", "qsym.matrix_cache_misses"),
    "basis": ("polynomial.xpoly_mul_calls", "fillings.fillings_yielded", "insertion.insert_calls"),
    "deform": ("qsym.matrix_cache_misses", "insertion.insert_calls", "tableaux.std_comts_yielded"),
    "insert": ("polynomial.xpoly_mul_calls", "polynomial.xpoly_build_calls", "fillings.fillings_yielded"),
}


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_tiny_traced_run_emits_every_per_layer_metric(workload, tmp_path):
    golden = W.load_golden(workload)
    cheapest = {}
    for op in sorted(W.build_ops(workload, 1, golden), key=lambda op: golden[W.op_key(op)][1]):
        cheapest.setdefault(op[0], op)
    W.prepare(Q, workload)
    ledger = worker.Ledger()
    tracer = worker.traced_pass(Q, workload, list(cheapest.values()), ledger, str(tmp_path / "t.tsv.gz"))
    assert (tmp_path / "t.tsv.gz").stat().st_size > 0
    assert spans.check_ops(tracer) == []
    metrics = spans.layer_metrics(tracer)
    expected = {m["name"] for m in _bench_json()["per_layer"]} - {"trace_overhead_ratio"}
    assert set(metrics) - {"trace_overhead_ratio"} == expected
    assert [m for m in MOVED[workload] if not metrics[m] > 0] == []
    assert [m for m in UNTOUCHED[workload] if metrics[m] != 0] == []
    assert 0 < metrics["bench.outside_layers_share"] < 1
    assert not ledger.failures(Q, [], golden)  # digests only: partners may be missing
    # the library is back to its untraced state
    assert Q.product_qschur is Q.pieri.product_qschur and not hasattr(Q.product_qschur, "__wrapped__")


def _traced(calls):
    """Run each ``(fn, args)`` as one traced op, timed from outside."""
    tracer = spans.Tracer()
    uninstall = spans.install(Q, tracer)
    try:
        for i, (fn, args) in enumerate(calls):
            start = time.perf_counter_ns()
            tracer.run_op(i, fn, *args)
            tracer.op_wall[i] = (start, time.perf_counter_ns())
    finally:
        uninstall()
    return tracer


def test_self_times_add_up_to_the_op():
    Q.transition_matrix("F", 5)
    standard = len(list(Q.enumerate_standard_comts((2, 2))))
    tracer = _traced([
        (Q.product_qschur, ((2, 1), (1, 1))),
        (lambda: list(Q.enumerate_standard_comts((2, 2))), ()),
    ])
    assert spans.check_ops(tracer) == []
    metrics = spans.layer_metrics(tracer)
    assert metrics["polynomial.xpoly_mul_calls"] == 1
    assert metrics["tableaux.std_comts_yielded"] == standard
    assert metrics["qsym.transition_matrix_s"] > 0
    assert 0 < metrics["tableaux.std_comts_accept_ratio"] < 1
    assert 0 < metrics["bench.outside_layers_share"] < 1
    roots = [sid for sid, nid in enumerate(tracer.name_id) if tracer.names[nid] == spans.ROOT]
    assert len(roots) == 2 and len(tracer) > 2
    assert sum(spans.self_times(tracer)) == sum(tracer.end[r] - tracer.start[r] for r in roots)


def test_root_span_outside_the_wall_time_is_a_problem():
    tracer = _traced([(Q.pieri_row, ((1, 2), 2))])
    start, end = tracer.op_wall[0]
    tracer.op_wall[0] = (start, start + 1)
    assert any("outside its wall time" in p for p in spans.check_ops(tracer))
    del tracer.op_wall[0]
    assert spans.check_ops(tracer) == ["spans outside any op, or an op without spans"]


def test_calibration_scales_by_the_nearby_reference_times():
    clock = calibrate.Clock()
    second = 1_000_000_000
    clock.mid = [0, 10 * second, 11 * second, 30 * second]
    clock.ns = [1_000_000, 2_000_000, 4_000_000, 7_000_000]
    ref = calibrate.REF_NS
    # an op from 10.5 s to 10.6 s sees the two samples within a second
    assert clock.scale(10 * second + second // 2, 10 * second + 6 * second // 10) == ref / 3_000_000
    # an op far from every sample takes the next one
    assert clock.scale(20 * second, 21 * second) == ref / 7_000_000
    clock.sample()
    assert clock.ns[-1] > 0 and not clock.due()


def test_benchmark_json_names_what_the_code_reports():
    bench = _bench_json()
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.UNITS


def test_traced_run_prints_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "insert",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in _bench_json()["per_layer"]}


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "insert",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
