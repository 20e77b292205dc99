"""Every property suite reports a planted fault: with one function it
checks replaced, in ``qschur.verify``'s namespace, by a wrong one, the
suite checks some case and names at least one failure."""
import pytest

import qschur.fillings as fillings
import qschur.verify as verify
from qschur.insertion import InsertionResult
from qschur.polynomial import XPoly
from qschur.qsym import QSymExpr
from qschur.tableaux import ReverseTableau
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


def _drops_one_content(*args, **kwargs):
    """The filling sum's terms with those of one non-partition content
    dropped."""
    terms = fillings._terms(*args, **kwargs)
    dropped = next((e for e, _ in terms if list(e) != sorted(e, reverse=True)), None)
    return [(e, c) for e, c in terms if e != dropped]


def test_macdonald_suite_reports_an_asymmetric_filling_sum(monkeypatch):
    # the symmetry check reads the filling sum over every content, so a
    # sum that loses one rearrangement of a partition content is caught
    monkeypatch.setattr(verify, "_terms", _drops_one_content)
    cases, failures = SUITES["macdonald"](max_cells=2, max_vars=2)
    assert cases > 0
    assert any("not symmetric" in f for f in failures), failures


def test_row_bumping_check_rejects_new_cells_in_one_row(monkeypatch):
    # for x < x' the second new cell lies strictly below the first; two
    # planted paths whose new cells share row 0 (and pass every other
    # clause) must be rejected
    planted = iter([
        InsertionResult(None, ((0, 1),), (0, 1)),
        InsertionResult(None, ((0, 0),), (0, 0)),
    ])
    monkeypatch.setattr(verify, "schensted_insert", lambda t, k: next(planted))
    assert not verify.row_bumping_check(ReverseTableau(), 1, 2)
