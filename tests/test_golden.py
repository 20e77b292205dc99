"""The benchmark's pools as a regression test: every op reproduces the
output digest recorded in ``perfbench/golden`` and passes the pool's
independent check.  Reads ``perfbench`` and writes nothing there."""
import sys
from pathlib import Path

import pytest

import qschur

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads as W  # noqa: E402


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_pool_ops_reproduce_their_golden_outputs(workload):
    golden = W.load_golden(workload)
    ops = W.pool_ops(workload)
    assert {W.op_key(op) for op in ops} == set(golden)
    W.prepare(qschur, workload)
    outputs = {}
    for op in ops:
        W.before_op(qschur, workload)
        outputs[W.op_key(op)] = W.RUNNERS[op[0]](qschur, op[1])
    changed = [key for (kind, _), (key, out) in zip(ops, outputs.items())
               if W.digest(kind, out) != golden[key][0]]
    assert not changed, (len(changed), changed[:5])
    checker = W.Checker(qschur, outputs)
    failed = [(key, why) for op, (key, out) in zip(ops, outputs.items())
              if (why := checker(op, out))]
    assert not failed, (len(failed), failed[:5])
