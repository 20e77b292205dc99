from collections import Counter, defaultdict
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from qschur import pieri, polynomial, qsym, tableaux
from qschur.compositions import (
    Composition,
    _degree,
    compositions_of_partition,
    enumerate_compositions,
    enumerate_partitions,
    quasi_shuffles,
    to_partition,
)
from qschur.pieri import (
    col_op,
    pieri_col,
    pieri_row,
    product_qschur,
    product_qschur_oracle,
    rem,
    row_op,
)
from qschur.polynomial import QtPoly, XPoly
from qschur.qsym import QSymExpr, qsym_unit, schur_in_qschur


def test_rem():
    assert rem((1, 2, 3), 5) is None
    assert rem((1,), 1) == ()
    assert rem((2, 1, 2), 2) == (2, 1, 1)
    assert type(rem((1, 2, 3), 3)) is Composition and type(rem((1,), 1)) is Composition
    for bad in (((1, 2), 0), ((1, 0), 1), ((1, -2), 1)):
        with pytest.raises(ValueError):
            rem(*bad)


def test_row_and_col_ops():
    assert row_op((2, 2), set()) == (2, 2)
    assert col_op((1, 1), (1, 1)) == ()
    assert col_op((1, 1), (1, 1)) is not None
    assert row_op((1, 2), {3}) is None
    assert type(row_op((2, 2), set())) is Composition and type(col_op((1, 1), (1, 1))) is Composition
    # a size below 1 raises once it is reached, as it did for rem
    with pytest.raises(ValueError):
        col_op((1, 2), (0, 3))
    with pytest.raises(ValueError):
        row_op((1, 2), {0, 2})
    assert row_op((1, 2), {0, 3}) is None


def _diagram(lam) -> set[tuple[int, int]]:
    return {(i, j) for i, part in enumerate(lam, start=1) for j in range(1, part + 1)}


def _horizontal_strips(lam, n) -> list[tuple[int, ...]]:
    """The partitions mu of |lam| + n whose diagram holds lam's, with the
    cells in between in distinct columns."""
    strips = []
    for mu in enumerate_partitions(sum(lam) + n):
        cells = _diagram(mu) - _diagram(lam)
        if _diagram(lam) <= _diagram(mu) and len({j for _, j in cells}) == len(cells):
            strips.append(tuple(mu))
    return strips


def test_pieri_rules_are_the_operator_preimages(monkeypatch):
    """The paper's rules by brute force, for |a| + n <= 9 and 1 <= n <= 4:
    pieri_row(a, n) sums S_b over the pairs (b, S) of a composition b and
    an n-set S of columns with row_op(b, S) = a, pieri_col the same over
    n-multisets and col_op, and every b comes from one pair."""
    tried, grow = [], pieri._added

    def added(parts, c):
        tried.append(c - max(parts, default=0))
        return grow(parts, c)

    monkeypatch.setattr(pieri, "_added", added)
    for total in range(1, 10):
        for n in range(1, min(4, total) + 1):
            rows, cols = defaultdict(Counter), defaultdict(Counter)
            for b in enumerate_compositions(total):
                for columns in combinations(range(1, max(b) + 1), n):
                    rows[row_op(b, columns)][b] += 1
                for columns in combinations_with_replacement(range(1, max(b) + 1), n):
                    cols[col_op(b, columns)][b] += 1
            for a in enumerate_compositions(total - n):
                for pairs, rule in ((rows[a], pieri_row), (cols[a], pieri_col)):
                    assert set(pairs.values()) == {1}, (a, n, rule)
                    assert rule(a, n) == QSymExpr("S", pairs), (a, n, rule)
    # the growth tries no column above the largest part + 1
    assert max(tried) == 1
    assert not hasattr(pieri, "enumerate_partitions")
    assert not hasattr(pieri, "compositions_of_partition")
    assert not hasattr(pieri, "_strips_over")


def test_pieri_row_worked_example():
    assert pieri_row((1, 3), 1) == QSymExpr(
        "S", {(1, 4): 1, (2, 3): 1, (1, 3, 1): 1, (1, 1, 3): 1}
    )


def test_pieri_trivial():
    assert pieri_row((), 3) == qsym_unit("S", (3,))
    assert pieri_col((), 3) == qsym_unit("S", (1, 1, 1))
    for n in range(0, 4):
        for a in enumerate_compositions(n):
            assert pieri_row(a, 1) == pieri_col(a, 1)


def _clear_product_caches():
    """Make the next product cold: its M matrices and its table of
    monomial pairs are rebuilt."""
    qsym.transition_matrix.cache_clear()
    pieri._shuffle_positions.cache_clear()


def _pairs_up_to(total):
    return [
        (a, b)
        for size in range(total + 1)
        for m in range(size + 1)
        for a in enumerate_compositions(m)
        for b in enumerate_compositions(size - m)
    ]


def test_product_builds_no_polynomial(forbid):
    expected = product_qschur((2, 1), (2, 1))
    _clear_product_caches()

    reason = "the product kernel touched the polynomial path"
    forbid(XPoly, ["__mul__", "__rmul__"], reason)
    forbid(qsym, ["qschur_polynomial"], reason)
    forbid(pieri, ["qschur_polynomial"], reason)
    assert product_qschur((2, 1), (2, 1)) == expected


def test_product_does_no_qtpoly_arithmetic(forbid):
    """Every pair with |a| + |b| <= 5, (1,3) x (1,) among them: its factor
    S(1,3) = F(1,3) + F(2,2) shares refinements, which f_to_m would add as
    QtPolys.  Then the signed square S(2,1) x S(2,1), and a few Pieri
    rules.  Their coefficients are summed as ints and wrapped once, so
    no QtPoly is added or multiplied, and none is summed by
    ``_accumulate_qt`` or by the ``_trusted`` constructors."""
    pairs = _pairs_up_to(5) + [((2, 1), (2, 1))]
    rules = [(a, k) for a in [(), (2,), (1, 3), (2, 1, 2), (3, 1, 1)] for k in (1, 2, 3)]
    expected = [product_qschur(a, b) for a, b in pairs]
    expected_rules = [(pieri_row(a, k), pieri_col(a, k)) for a, k in rules]
    _clear_product_caches()

    reason = "the product kernel did QtPoly arithmetic"
    forbid(QtPoly, ["__mul__", "__rmul__", "__add__", "__radd__", "_trusted"], reason)
    forbid(QSymExpr, ["_trusted"], reason)
    forbid(qsym, ["_accumulate_qt"], reason)
    forbid(polynomial, ["_accumulate_qt"], reason)
    assert ((1, 3), (1,)) in pairs
    assert any(c.constant() < 0 for c in expected[-1].terms.values())
    for (a, b), product in zip(pairs, expected):
        assert product_qschur(a, b) == product, (a, b)
    for (a, k), (row, col) in zip(rules, expected_rules):
        assert (pieri_row(a, k), pieri_col(a, k)) == (row, col), (a, k)


def test_shuffle_table_reads_back_as_the_quasi_shuffles():
    """Every pair of monomials with |x| + |y| <= 7: the table's positions,
    read back through the triangle order, are the quasi-shuffles, with
    their multiplicities."""
    for x, y in _pairs_up_to(7):
        order = _degree(x.size + y.size).order
        table = pieri._shuffle_positions(x, y)
        assert len({j for j, _ in table}) == len(table), (x, y)
        assert {order[j]: k for j, k in table} == quasi_shuffles(x, y), (x, y)


def test_products_agree_cold_and_warm():
    """Every product with |a| + |b| <= 7, each computed with the table of
    monomial pairs cleared before it (after all caches were cleared), then
    again with every cache warm."""
    pairs = _pairs_up_to(7)
    _clear_product_caches()
    cold = []
    for a, b in pairs:
        pieri._shuffle_positions.cache_clear()
        cold.append(product_qschur(a, b))
    assert pieri._shuffle_positions.cache_info().currsize > 0
    for (a, b), product in zip(pairs, cold):
        assert product_qschur(a, b).to_json() == product.to_json(), (a, b)


# S expansions over M at n = 4 in the triangle order, as counted from
# composition tableaux
M_MATRIX_4 = [
    [1, 1, 1, 1, 1, 1, 1, 1],
    [0, 1, 0, 0, 1, 1, 0, 1],
    [0, 0, 1, 1, 1, 1, 2, 2],
    [0, 0, 0, 1, 1, 1, 1, 2],
    [0, 0, 0, 0, 1, 0, 0, 1],
    [0, 0, 0, 0, 0, 1, 0, 1],
    [0, 0, 0, 0, 0, 0, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 1],
]


def test_expansions_enumerate_only_standard_reverse_tableaux(forbid):
    f_matrix = qsym.transition_matrix("F", 4)
    expansion = qsym.qschur_in_monomial((1, 2))
    product = product_qschur((2, 1), (2, 1))
    _clear_product_caches()

    for module in (tableaux, qsym):
        names = [n for n in ("enumerate_comts", "enumerate_reverse_tableaux") if hasattr(module, n)]
        forbid(module, names, "an S expansion enumerated semistandard tableaux")
    try:
        assert qsym.transition_matrix("F", 4) == f_matrix
        assert [list(r) for r in qsym.transition_matrix("M", 4)] == M_MATRIX_4
        assert qsym.qschur_in_monomial((1, 2)) == expansion
        assert product_qschur((2, 1), (2, 1)) == product
    finally:
        _clear_product_caches()


def test_basis_change_takes_no_detour(forbid):
    """The matrices are built from refills, not from the single-composition
    expansions, and neither express nor the product converts between M
    and F or expands a single composition."""
    f_matrix = qsym.transition_matrix("F", 4)
    product = product_qschur((2, 1), (2, 1))
    _clear_product_caches()

    forbid(qsym, ["f_to_m", "m_to_f", "qschur_in_fundamental", "qschur_in_monomial"],
           "the basis change took a detour")
    try:
        assert qsym.transition_matrix("F", 4) == f_matrix
        assert [list(r) for r in qsym.transition_matrix("M", 4)] == M_MATRIX_4
        assert qsym.express_in_qschur(qsym_unit("M", (1, 3))) == QSymExpr(
            "S", {(1, 3): 1, (2, 2): -1, (1, 1, 2): -1, (1, 1, 1, 1): 1}
        )
        qsym.transition_matrix("M", 6)
        assert product_qschur((2, 1), (2, 1)) == product
    finally:
        _clear_product_caches()


@st.composite
def _pairs_of_total_size(draw, total=7):
    m = draw(st.integers(0, total))
    a = draw(st.sampled_from(enumerate_compositions(m)))
    b = draw(st.sampled_from(enumerate_compositions(total - m)))
    return a, b


@settings(derandomize=True, max_examples=15, deadline=None)
@given(_pairs_of_total_size())
def test_product_matches_oracle_at_size_7(pair):
    """Beyond the exhaustive bound of suite product (total size 6)."""
    assert product_qschur(*pair) == product_qschur_oracle(*pair)


def test_product_identity():
    assert product_qschur((), (2, 1)) == qsym_unit("S", (2, 1))
    assert product_qschur((3,), ()) == qsym_unit("S", (3,))
    assert product_qschur((), ()) == qsym_unit("S", ())


def test_classical_collapse():
    # summing the refined row rule over all rearrangements gives the
    # partition-level horizontal strip expansion
    for m in range(1, 5):
        for lam in enumerate_partitions(m):
            for n in (1, 2):
                total = QSymExpr("S")
                for a in compositions_of_partition(lam):
                    total = total + pieri_row(a, n)
                expected = QSymExpr("S")
                for mu in _horizontal_strips(lam, n):
                    expected = expected + schur_in_qschur(mu)
                assert total == expected


def test_cover_relations():
    covers = {b for b in pieri_row((1, 3), 1).terms}
    assert covers == {(1, 4), (2, 3), (1, 3, 1), (1, 1, 3)}
    assert (1,) in pieri_row((), 1).terms
    assert (2,) not in pieri_row((), 1).terms


def test_partition_covers_match_cell_additions():
    for m in range(0, 6):
        for lam in enumerate_partitions(m):
            covered = {
                b for b in pieri_row(lam, 1).terms if tuple(to_partition(b)) == tuple(b)
            }
            classical = set(_horizontal_strips(lam, 1))
            assert {tuple(b) for b in covered} == classical


def test_pieri_rules_beyond_suite_bounds():
    # suite pieri stops at |a| <= 5; its oracle products are too slow at
    # degree 9, but product_qschur is exact and fast there
    cases = [(a, n) for a in enumerate_compositions(6) for n in (1, 2, 3)]
    cases += [(a, 1) for a in enumerate_compositions(7)]
    for a, n in cases:
        assert pieri_row(a, n) == product_qschur((n,), a), (a, n)
        assert pieri_col(a, n) == product_qschur((1,) * n, a), (a, n)
