"""Every property suite reports a planted fault: with one function it
checks replaced, in ``qschur.verify``'s namespace, by a wrong one, the
suite checks some case and names at least one failure."""
import pytest

import qschur.verify as verify
from qschur.polynomial import XPoly
from qschur.qsym import QSymExpr
from qschur.verify import SUITES

_jfund = verify.macdonald_j_fundamental

# suite -> (the function replaced, its wrong stand-in, small bounds)
FAULTS = {
    "core": ("triangle_cmp", lambda a, b: 1, {"max_size": 2}),
    "tableaux": ("is_comt", lambda t: False, {"max_size": 2}),
    "insertion": ("commutation_check", lambda t, k: False, {"max_size": 1}),
    "bases": ("schur_in_monomial_oracle", lambda lam: QSymExpr("M"), {"max_size": 2}),
    "product": ("product_qschur_oracle", lambda a, b: QSymExpr("S"), {"max_size": 1}),
    "pieri": ("pieri_row", lambda a, n: QSymExpr("S"), {"max_size": 1, "max_strip": 1}),
    "macdonald": ("demazure_atom", lambda g, n: XPoly.zero(n), {"max_cells": 1, "max_vars": 1}),
    "hall-littlewood": ("hall_littlewood_p_oracle", lambda lam, n: XPoly.zero(n),
                        {"max_size": 1, "max_vars": 1}),
    "hl-chain": ("monomial_qsym_poly", lambda a, n: XPoly.zero(n), {"max_size": 1}),
    "j-fundamental": ("j_fundamental_classes", lambda lam: iter(()), {"max_size": 1}),
    # symmetric and an eigenvector still, so only the normalization tells
    "macdonald-operator": ("macdonald_j_fundamental", lambda lam: _jfund(lam).scale(2),
                           {"max_size": 2, "max_vars": 2}),
}


@pytest.mark.parametrize("name", list(SUITES))
def test_suite_reports_a_planted_fault(monkeypatch, name):
    assert set(FAULTS) == set(SUITES)
    target, wrong, bounds = FAULTS[name]
    monkeypatch.setattr(verify, target, wrong)
    cases, failures = SUITES[name](**bounds)
    assert cases > 0
    assert failures, f"suite {name} missed a wrong {target}"
