import pytest
from hypothesis import given, settings, strategies as st

from qschur import pieri, qsym, tableaux
from qschur.compositions import (
    Composition,
    compositions_of_partition,
    enumerate_compositions,
    enumerate_partitions,
    to_partition,
)
from qschur.pieri import (
    col_op,
    horizontal_strips_over,
    pieri_col,
    pieri_row,
    product_qschur,
    product_qschur_oracle,
    rem,
    row_op,
    strip_column_multiset,
    vertical_strips_over,
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


def test_strips():
    assert sorted(map(tuple, horizontal_strips_over((3, 1), 1))) == [
        (3, 1, 1),
        (3, 2),
        (4, 1),
    ]
    assert sorted(map(tuple, vertical_strips_over((1,), 2))) == [(1, 1, 1), (2, 1)]
    assert sorted(map(tuple, horizontal_strips_over((), 3))) == [(3,)]
    assert strip_column_multiset((4, 1), (3, 1)) == (4,)
    assert (4, 3, 2, 2) in horizontal_strips_over((3, 2, 2), 4)
    assert (4, 3, 2, 2) in vertical_strips_over((4, 2, 1, 1), 3)
    assert (2, 2) not in horizontal_strips_over((1,), 3)
    for lam in [(4, 3, 2, 2), (2, 1), ()]:
        assert horizontal_strips_over(lam, 0) == vertical_strips_over(lam, 0) == [lam]
    # a vertical strip over lam is a horizontal strip over lam' conjugated
    for size in range(7):
        for lam in enumerate_partitions(size):
            for n in range(4):
                vertical = sorted(map(tuple, vertical_strips_over(lam, n)))
                horizontal = horizontal_strips_over(_conjugate(lam), n)
                conjugated = sorted(_conjugate(mu) for mu in horizontal)
                assert vertical == conjugated, (lam, n)
    assert strip_column_multiset((2, 1, 1), (1,)) == (1, 1, 2)
    # (2,) does not contain (3,), so no strip joins them
    assert horizontal_strips_over((3,), -1) == vertical_strips_over((3,), -1) == []
    # mu must contain lam, in every row and in its number of rows
    for mu, lam in [((2,), (3,)), ((1,), (1, 1))]:
        with pytest.raises(ValueError, match="does not contain"):
            strip_column_multiset(mu, lam)


def _conjugate(lam) -> tuple[int, ...]:
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0))


def _diagram(lam) -> set[tuple[int, int]]:
    return {(i, j) for i, part in enumerate(lam, start=1) for j in range(1, part + 1)}


def test_strips_match_their_definition():
    # mu/lam is a strip when mu's diagram holds lam's and the cells in
    # between share no column (horizontal) or no row (vertical)
    for size in range(7):
        for lam in enumerate_partitions(size):
            for n in range(4):
                horizontal, vertical = [], []
                for mu in enumerate_partitions(size + n):
                    if not _diagram(lam) <= _diagram(mu):
                        continue
                    cells = _diagram(mu) - _diagram(lam)
                    columns = sorted(j for _, j in cells)
                    assert strip_column_multiset(mu, lam) == tuple(columns), (mu, lam)
                    if len(set(columns)) == len(cells):
                        horizontal.append(mu)
                    if len({i for i, _ in cells}) == len(cells):
                        vertical.append(mu)
                assert horizontal_strips_over(lam, n) == horizontal, (lam, n)
                assert vertical_strips_over(lam, n) == vertical, (lam, n)


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


def test_product_builds_no_polynomial(monkeypatch):
    expected = product_qschur((2, 1), (2, 1))
    qsym.transition_matrix.cache_clear()

    def forbidden(*args, **kwargs):
        raise AssertionError("the product kernel touched the polynomial path")

    monkeypatch.setattr(XPoly, "__mul__", forbidden)
    monkeypatch.setattr(XPoly, "__rmul__", forbidden)
    monkeypatch.setattr(qsym, "qschur_polynomial", forbidden)
    monkeypatch.setattr(pieri, "qschur_polynomial", forbidden)
    assert product_qschur((2, 1), (2, 1)) == expected


def test_product_does_no_qtpoly_arithmetic(monkeypatch):
    """Every pair with |a| + |b| <= 5, (1,3) x (1,) among them: its factor
    S(1,3) = F(1,3) + F(2,2) shares refinements, which f_to_m would add as
    QtPolys.  Then the signed square S(2,1) x S(2,1)."""
    pairs = [
        (a, b)
        for total in range(6)
        for m in range(total + 1)
        for a in enumerate_compositions(m)
        for b in enumerate_compositions(total - m)
    ] + [((2, 1), (2, 1))]
    expected = [product_qschur(a, b) for a, b in pairs]
    qsym.transition_matrix.cache_clear()

    def forbidden(*args, **kwargs):
        raise AssertionError("the product kernel did QtPoly arithmetic")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(QtPoly, name, forbidden)
    assert ((1, 3), (1,)) in pairs
    for (a, b), product in zip(pairs, expected):
        assert product_qschur(a, b) == product, (a, b)


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


def test_expansions_enumerate_only_standard_reverse_tableaux(monkeypatch):
    f_matrix = qsym.transition_matrix("F", 4)
    expansion = qsym.qschur_in_monomial((1, 2))
    product = product_qschur((2, 1), (2, 1))
    qsym.transition_matrix.cache_clear()

    def forbidden(*args, **kwargs):
        raise AssertionError("an S expansion enumerated semistandard tableaux")

    for module in (tableaux, qsym):
        for name in ("enumerate_comts", "enumerate_reverse_tableaux"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    try:
        assert qsym.transition_matrix("F", 4) == f_matrix
        assert [list(r) for r in qsym.transition_matrix("M", 4)] == M_MATRIX_4
        assert qsym.qschur_in_monomial((1, 2)) == expansion
        assert product_qschur((2, 1), (2, 1)) == product
    finally:
        qsym.transition_matrix.cache_clear()


def test_basis_change_takes_no_detour(monkeypatch):
    """The matrices are built from refills, not from the single-composition
    expansions, and neither express nor the product converts between M
    and F or expands a single composition."""
    f_matrix = qsym.transition_matrix("F", 4)
    product = product_qschur((2, 1), (2, 1))
    qsym.transition_matrix.cache_clear()

    def forbidden(*args, **kwargs):
        raise AssertionError("the basis change took a detour")

    for name in ("f_to_m", "m_to_f", "qschur_in_fundamental", "qschur_in_monomial"):
        monkeypatch.setattr(qsym, name, forbidden)
    try:
        assert qsym.transition_matrix("F", 4) == f_matrix
        assert [list(r) for r in qsym.transition_matrix("M", 4)] == M_MATRIX_4
        assert qsym.express_in_qschur(qsym_unit("M", (1, 3))) == QSymExpr(
            "S", {(1, 3): 1, (2, 2): -1, (1, 1, 2): -1, (1, 1, 1, 1): 1}
        )
        qsym.transition_matrix("M", 6)
        assert product_qschur((2, 1), (2, 1)) == product
    finally:
        qsym.transition_matrix.cache_clear()


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
                for mu in horizontal_strips_over(lam, n):
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
            classical = {tuple(mu) for mu in horizontal_strips_over(lam, 1)}
            assert {tuple(b) for b in covered} == classical


def test_pieri_rules_beyond_suite_bounds():
    # suite pieri stops at |a| <= 5; its oracle products are too slow at
    # degree 9, but product_qschur is exact and fast there
    cases = [(a, n) for a in enumerate_compositions(6) for n in (1, 2, 3)]
    cases += [(a, 1) for a in enumerate_compositions(7)]
    for a, n in cases:
        assert pieri_row(a, n) == product_qschur((n,), a), (a, n)
        assert pieri_col(a, n) == product_qschur((1,) * n, a), (a, n)
