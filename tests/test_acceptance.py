"""Acceptance suite: one test per release criterion, exact tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion.  Every check is exact integer/polynomial equality; the time
budgets are asserted with wide margins.
"""
import itertools
import time

import pytest

from qschur.compositions import enumerate_compositions, enumerate_partitions
from qschur.fillings import (
    AugmentedFilling,
    arm,
    is_inversion_triple,
    leg,
    triples,
)
from qschur.insertion import (
    canonical_descent_tableau,
    schensted_insert,
    skyline_insert,
)
from qschur.macdonald import hall_littlewood_qsym_m
from qschur.pieri import col_op, product_qschur, rem, row_op
from qschur.polynomial import QtPoly, XPoly
from qschur.qsym import (
    QSymExpr,
    demazure_atom,
    qschur_in_fundamental,
    qschur_in_monomial,
    qschur_polynomial,
    qsym_unit,
    transition_matrix,
)
from qschur.tableaux import (
    CompositionTableau,
    ReverseTableau,
    comt_descents,
    rt_to_comt,
)


def _report(number: int, label: str, started: float, budget: float):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {number:2d} ({label}): PASS in {elapsed:.2f}s (budget {budget:.0f}s)")
    assert elapsed < budget


def test_criterion_01_worked_examples():
    started = time.time()
    x = XPoly.variable

    assert qschur_in_monomial((1, 2)) == QSymExpr("M", {(1, 2): 1, (1, 1, 1): 1})
    assert qschur_in_fundamental((1, 2)) == qsym_unit("F", (1, 2))

    assert demazure_atom((1, 0, 2)) == x(3, 1) * x(3, 2) * x(3, 3) + x(3, 1) * x(3, 3) ** 2

    assert qschur_polynomial((1, 2), 3) == (
        x(3, 1) * x(3, 2) ** 2
        + x(3, 1) * x(3, 2) * x(3, 3)
        + x(3, 1) * x(3, 3) ** 2
        + x(3, 2) * x(3, 3) ** 2
    )

    schur_m = qschur_in_monomial((2, 1)) + qschur_in_monomial((1, 2))
    assert schur_m == QSymExpr("M", {(2, 1): 1, (1, 2): 1, (1, 1, 1): 2})
    schur_f = qschur_in_fundamental((2, 1)) + qschur_in_fundamental((1, 2))
    assert schur_f == QSymExpr("F", {(2, 1): 1, (1, 2): 1})

    big = CompositionTableau([[5, 4, 3, 1], [6], [8, 7, 2]])
    assert comt_descents(big) == {2, 5, 6}

    refill = rt_to_comt(ReverseTableau([[8, 7, 3, 1], [6, 4, 2], [5]]))
    assert refill == big

    res = schensted_insert(ReverseTableau([[7, 5, 4, 2], [6, 4, 3], [3, 2, 2], [1, 1]]), 5)
    assert res.result == ReverseTableau([[7, 5, 5, 2], [6, 4, 4], [3, 3, 2], [2, 1], [1]])
    assert res.path == ((0, 2), (1, 2), (2, 1), (3, 0), (4, 0))

    res2 = skyline_insert(CompositionTableau([[1, 1], [3, 2, 2, 2], [6, 5, 4], [7, 4, 3]]), 5)
    assert res2.result == CompositionTableau(
        [[1, 1], [2], [3, 3, 2, 2], [6, 5, 5], [7, 4, 4]]
    )
    assert set(res2.path) == {(3, 2), (4, 2), (2, 1), (1, 0)}
    assert res2.augmented_row == 1

    assert canonical_descent_tableau((1, 3, 2)) == ReverseTableau([[6, 5, 2], [4, 3], [1]])

    assert rem((1, 1, 3), 1) == (1, 3)
    assert rem((1, 2, 3), 3) == (1, 2, 2)
    assert row_op((1, 2, 3), {2, 3}) == (1, 2, 1)
    assert col_op((1, 2, 3), (2, 3)) == (1, 1, 2)
    assert row_op((1, 4), {4}) == (1, 3)

    _report(1, "worked-example golden suite", started, 1.0)


def test_criterion_02_transition_matrices():
    started = time.time()
    expected = [
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
    ]
    assert [list(r) for r in transition_matrix("F", 4)] == expected
    order = [tuple(c) for c in enumerate_compositions(4)]
    assert order == [(4,), (3, 1), (1, 3), (2, 2), (2, 1, 1), (1, 2, 1), (1, 1, 2), (1, 1, 1, 1)]
    for n in (0, 1, 2, 3):
        m = transition_matrix("F", n)
        assert all(
            m[i][j] == (1 if i == j else 0) for i in range(len(m)) for j in range(len(m))
        )
    _report(2, "n=4 fundamental transition matrix", started, 1.0)


def test_criterion_03_pieri_oracle_equivalence(check_suite):
    started = time.time()
    check_suite("pieri", max_size=5, max_strip=3)
    _report(3, "row/column rules equal brute-force products", started, 60.0)


def test_criterion_04_signed_square():
    started = time.time()
    expected = QSymExpr(
        "S",
        {
            (4, 2): 1,
            (4, 1, 1): 1,
            (3, 2, 1): 2,
            (3, 1, 2): 1,
            (2, 3, 1): 2,
            (1, 3, 2): 1,
            (3, 1, 1, 1): 1,
            (2, 2, 2): 1,
            (2, 2, 1, 1): 1,
            (2, 1, 2, 1): 1,
            (1, 4, 1): -1,
            (1, 3, 1, 1): -1,
            (1, 1, 3, 1): -1,
            (1, 2, 2, 1): -1,
        },
    )
    assert product_qschur((2, 1), (2, 1)) == expected
    _report(4, "signed 14-term square", started, 5.0)


def test_criterion_05_basis_coincidence(check_suite):
    started = time.time()
    check_suite("bases", max_size=7)
    _report(5, "monomial/fundamental coincidence shapes, n<=7", started, 30.0)


def test_criterion_06_bijection_commutation_suite(check_suite):
    started = time.time()
    check_suite("tableaux", max_size=6, max_entry=6)
    check_suite("insertion", max_size=5, max_entry=6)
    _report(6, "bijection and commutation suite, <=5 cells", started, 120.0)


def test_criterion_07_armleg_tables():
    started = time.time()
    shape = (1, 0, 3, 2, 3)
    legs = [[leg(shape, (i, j)) for j in range(1, shape[i - 1] + 1)] for i in range(1, 6)]
    arms = [[arm(shape, (i, j)) for j in range(1, shape[i - 1] + 1)] for i in range(1, 6)]
    assert legs == [[0], [], [2, 1, 0], [1, 0], [2, 1, 0]]
    assert arms == [[0], [], [4, 3, 1], [2, 1], [3, 2, 1]]
    _report(7, "arm/leg tables for (1,0,3,2,3)", started, 1.0)


def test_criterion_08_specialization_chain(check_suite):
    started = time.time()
    check_suite("hl-chain", max_size=4)
    _report(8, "Hall-Littlewood specialization chain", started, 60.0)


def test_criterion_09_hall_littlewood_oracle(check_suite):
    started = time.time()
    check_suite("hall-littlewood", max_size=4, max_vars=3)
    _report(9, "symmetrization oracle for Hall-Littlewood", started, 60.0)


def test_criterion_10_master_specializations(check_suite):
    started = time.time()
    check_suite("macdonald", max_cells=4, max_vars=4)
    _report(10, "master-formula specializations", started, 60.0)


def triple_base(f, a, b, c):
    """Base square of a triple: the cell holding the middle entry, or
    the smallest entry when a basement square participates."""
    named = [(f.entry(*s), s) for s in (a, b, c)]
    named.sort()
    if a[1] == 0 or b[1] == 0 or c[1] == 0:
        choice = named[0][1]
    else:
        choice = named[1][1]
    if choice[1] == 0:
        raise ValueError("base square fell on the basement")
    return choice


def _printed_factor_product(mu, rows):
    """Per-permutation factor product with the printed statistics:
    each cell carries q^inv t^nondes - q^coinv t^(1+majc); inv/coinv
    count triples based at the cell (middle entry, smallest when a
    basement square participates), majc = leg when the right neighbour
    is larger, nondes = leg+1 when the left neighbour is not smaller."""
    m = sum(mu)
    f = AugmentedFilling(mu, rows, rule="const", nvars=m)
    inv, coinv = {}, {}
    for a, b, c in triples(mu):
        base = triple_base(f, a, b, c)
        if is_inversion_triple(f, a, b, c):
            inv[base] = inv.get(base, 0) + 1
        else:
            coinv[base] = coinv.get(base, 0) + 1
    prod = QtPoly.one()
    for (i, k) in f.cells():
        v = f.entry(i, k)
        east = f.entry(i, k + 1) if mu[i - 1] >= k + 1 else None
        majc = leg(mu, (i, k)) if (east is not None and east > v) else 0
        nondes = leg(mu, (i, k)) + 1 if f.entry(i, k - 1) >= v else 0
        prod = prod * (
            QtPoly.q(inv.get((i, k), 0)) * QtPoly.t(nondes)
            - QtPoly.q(coinv.get((i, k), 0)) * QtPoly.t(1 + majc)
        )
    return prod


def test_base_square_example():
    f = AugmentedFilling((3, 3, 1), [[5, 6, 1], [2, 7, 4], [3]], rule="const", nvars=7)
    by_entries = {}
    for a, b, c in triples((3, 3, 1)):
        key = frozenset((f.entry(*a), f.entry(*b), f.entry(*c)))
        by_entries[key] = (a, b, c)
    for entries, base_entry in [
        ((5, 6, 7), 6),
        ((1, 4, 6), 4),
        ((2, 3, 8), 2),
        ((3, 5, 8), 3),
    ]:
        trip = by_entries[frozenset(entries)]
        assert f.entry(*triple_base(f, *trip)) == base_entry


def test_criterion_11_fundamental_expansion_crosscheck(check_suite):
    started = time.time()
    check_suite("j-fundamental", max_size=4)
    # vanishing: permutations placing an entry right of its own column
    # index contribute a zero factor product
    for m in range(1, 5):
        for lam in enumerate_partitions(m):
            cells = [(i, k) for i, g in enumerate(lam, start=1) for k in range(1, g + 1)]
            for values in itertools.permutations(range(1, m + 1)):
                f = dict(zip(cells, values))
                rows = tuple(
                    tuple(f[(i, k)] for k in range(1, g + 1))
                    for i, g in enumerate(lam, start=1)
                )
                if any(k > f[(i, k)] for (i, k) in cells):
                    assert _printed_factor_product(lam, rows) == QtPoly.zero()
    _report(11, "fundamental expansion cross-check and vanishing", started, 60.0)


def test_criterion_12_deformation_display():
    started = time.time()
    one, t = QtPoly.one(), QtPoly.t()
    got = hall_littlewood_qsym_m((1, 3), 5)
    # the printed display, with its parameter read as t; the recomputed
    # polynomial is pinned as the golden value
    pinned = QSymExpr(
        "M",
        {
            (1, 3): one,
            (2, 2): one - t,
            (2, 1, 1): one - t,
            (1, 2, 1): one - t,
            (1, 1, 2): QtPoly.const(2) - 2 * t,
            (1, 1, 1, 1): (QtPoly.const(2) + t) * (one - t) * (one - t),
        },
    )
    assert got == pinned
    # the same display read with a genuine second parameter would differ
    q = QtPoly.q()
    misread = QSymExpr(
        "M",
        {
            (1, 3): one,
            (2, 2): one - q,
            (2, 1, 1): one - q,
            (1, 2, 1): one - q,
            (1, 1, 2): QtPoly.const(2) - 2 * q,
            (1, 1, 1, 1): (QtPoly.const(2) + q) * (one - q) * (one - q),
        },
    )
    assert got != misread
    _report(12, "one-parameter deformation display pinned", started, 5.0)


# suites that no criterion above runs, at their default bounds
@pytest.mark.parametrize("name", ["core", "product"])
def test_suite_without_criterion(check_suite, name):
    check_suite(name)
