import pytest

from qschur.compositions import collapse, composition_of, enumerate_partitions
from qschur.fillings import AugmentedFilling, is_ssaf_filling
from qschur.insertion import canonical_descent_tableau
from qschur.polynomial import XPoly
from qschur.qsym import fundamental_qsym_poly
from qschur.tableaux import (
    CompositionTableau,
    ReverseTableau,
    comt_descents,
    comt_to_ssaf,
    enumerate_comts,
    enumerate_reverse_tableaux,
    enumerate_ssafs,
    enumerate_standard_comts,
    enumerate_standard_reverse_tableaux,
    is_comt,
    is_reversetableau,
    rt_descents,
    rt_to_ssaf,
    ssaf_to_comt,
    ssaf_to_rt,
    standardize,
    top_justify,
)
from qschur.tableaux import _standard_walk


def test_is_reversetableau():
    assert is_reversetableau(ReverseTableau([[3, 1], [2]]))
    assert not is_reversetableau(ReverseTableau([[1, 2]]))
    assert not is_reversetableau(ReverseTableau([[2, 2], [2]]))
    assert not is_reversetableau(ReverseTableau([[3], [2, 1]]))  # not a partition
    assert not is_reversetableau(ReverseTableau([[2, 0]]))
    # a partition diagram has no empty row
    assert not is_reversetableau(ReverseTableau([[]]))
    assert not is_reversetableau(ReverseTableau([[2], []]))


def test_json_round_trip_fields():
    t = CompositionTableau([[1], [3, 2]])
    assert t.to_json() == {"shape": [1, 2], "rows": [[1], [3, 2]]}
    rt = ReverseTableau([[3, 1], [2]])
    assert rt.to_json() == {"shape": [2, 1], "rows": [[3, 1], [2]]}


def test_both_tableau_kinds_share_one_body():
    rt = ReverseTableau([[3, 1], [2]])
    ct = CompositionTableau([[3, 1], [2]])
    assert repr(rt) == "ReverseTableau([[3, 1], [2]])"
    assert repr(ct) == "CompositionTableau([[3, 1], [2]])"
    assert str(rt) == str(ct) == "3 1\n2"
    assert hash(rt) == hash(ct) == hash(((3, 1), (2,)))
    # equal rows, different kinds: a tableau equals only its own kind
    assert rt != ct and ct != rt
    assert rt == ReverseTableau([(3, 1), (2,)]) and ct == CompositionTableau([(3, 1), (2,)])
    assert len({rt, ct}) == 2
    assert rt_descents is comt_descents


def test_rt_descents():
    assert rt_descents(ReverseTableau([[3, 1], [2]])) == {2}
    for n in range(1, 7):
        row = ReverseTableau([list(range(n, 0, -1))])
        assert rt_descents(row) == frozenset()
    t = ReverseTableau([[6, 5, 2], [4, 3], [1]])
    assert rt_descents(t) == {1, 4}
    assert composition_of(rt_descents(t), 6) == (1, 3, 2)


def test_is_comt():
    assert is_comt(CompositionTableau([[5, 4, 3, 1], [6], [8, 7, 2]]))
    assert is_comt(CompositionTableau([[1], [3, 2]]))
    assert is_comt(CompositionTableau([[1], [3, 3]]))
    assert not is_comt(CompositionTableau([[2], [1]]))
    # the triple condition on the padded rectangle
    assert not is_comt(CompositionTableau([[2], [3, 2]]))
    with pytest.raises(ValueError, match="rows must be nonempty"):
        CompositionTableau([[1], []])


def test_comt_descents():
    t = CompositionTableau([[1], [3, 2]])
    assert comt_descents(t) == {1}
    assert composition_of(comt_descents(t), 3) == (1, 2)
    assert comt_descents(CompositionTableau([[2, 1]])) == frozenset()


def test_is_ssaf():
    assert is_ssaf_filling(AugmentedFilling((1, 0, 2), [[1], [], [3, 2]]))
    assert is_ssaf_filling(AugmentedFilling((1, 0, 2), [[1], [], [3, 3]]))
    assert not is_ssaf_filling(AugmentedFilling((0, 2), [[], [1, 2]]))


def test_comt_ssaf_bijection_example():
    t = CompositionTableau([[5, 4, 3, 1], [6], [8, 7, 2]])
    f = comt_to_ssaf(t)
    assert tuple(f.shape) == (0, 0, 0, 0, 4, 1, 0, 3)
    assert is_ssaf_filling(f)
    assert ssaf_to_comt(f) == t
    assert ssaf_to_comt(comt_to_ssaf(CompositionTableau())) == CompositionTableau()
    small = CompositionTableau([[1], [3, 2]])
    assert tuple(comt_to_ssaf(small).shape) == (1, 0, 2)
    with pytest.raises(ValueError, match="cannot hold first column 3"):
        comt_to_ssaf(small, 2)
    with pytest.raises(ValueError, match="share a first entry"):
        comt_to_ssaf(CompositionTableau([[2], [2, 1]]))


def test_column_refill_example():
    t = ReverseTableau([[8, 7, 3, 1], [6, 4, 2], [5]])
    f = rt_to_ssaf(t)
    assert ssaf_to_comt(f) == CompositionTableau([[5, 4, 3, 1], [6], [8, 7, 2]])
    assert ssaf_to_rt(f) == t
    lone = rt_to_ssaf(ReverseTableau([[4]]))
    assert lone.rows[3] == (4,)
    # a basement of 3 rows has no row that admits 4 in the first column
    with pytest.raises(ValueError, match="no admissible row for entry 4"):
        rt_to_ssaf(ReverseTableau([[4]]), 3)


def test_descent_tableau_image():
    t = canonical_descent_tableau((1, 3, 2))
    f = rt_to_ssaf(t)
    assert ssaf_to_comt(f) == CompositionTableau([[1], [4, 3, 2], [6, 5]])


def test_enumerate_comts():
    comts = {t.rows for t in enumerate_comts((1, 2), 3)}
    assert comts == {
        ((1,), (2, 2)),
        ((1,), (3, 2)),
        ((1,), (3, 3)),
        ((2,), (3, 3)),
    }
    assert len(list(enumerate_comts((1,), 1))) == 1
    assert len(list(enumerate_comts((1, 2), 2))) == 1


def test_enumerate_standard_comts():
    std = list(enumerate_standard_comts((1, 2)))
    assert [t.rows for t in std] == [((1,), (3, 2))]
    for n in range(1, 6):
        only = list(enumerate_standard_comts((n,)))
        assert [t.rows for t in only] == [(tuple(range(n, 0, -1)),)]
    assert len(list(enumerate_standard_comts((2, 1)))) == 1


def test_standard_walk_is_the_filtered_reverse_tableaux():
    # every standard reverse tableau of size <= 7 once, each with the
    # bitmask of its descent set, in the order of the public enumerator
    for n in range(8):
        for lam in enumerate_partitions(n):
            walked = [(top_justify(cols), mask) for cols, mask in _standard_walk(lam)]
            tableaux = [t for t, _ in walked]
            standard = [t for t in enumerate_reverse_tableaux(lam, n) if t.is_standard()]
            assert len(set(tableaux)) == len(tableaux) == len(standard)
            assert set(tableaux) == set(standard)
            assert list(enumerate_standard_reverse_tableaux(lam)) == tableaux
            for t, mask in walked:
                assert mask == sum(1 << (i - 1) for i in rt_descents(t))


def test_weights():
    assert tuple(AugmentedFilling((1, 0, 2), [[1], [], [3, 3]]).weight()) == (1, 0, 2)
    assert tuple(CompositionTableau([[1], [2, 2]]).weight()) == (1, 2)
    t = CompositionTableau([[1], [3, 2]])
    assert tuple(t.weight()) == (1, 1, 1)


def test_standardize():
    assert standardize(ReverseTableau([[2, 2], [1]])) == ReverseTableau([[3, 2], [1]])
    std = ReverseTableau([[3, 1], [2]])
    assert standardize(std) == std
    seen = set()
    for t in enumerate_reverse_tableaux((2, 1), 3):
        if tuple(t.weight()) == (1, 1, 1):
            seen.add(standardize(t).rows)
    assert seen == {((3, 2), (1,)), ((3, 1), (2,))}


def test_ssaf_enumeration_matches_shape():
    for g in [(1, 0, 2), (0, 2), (2, 0, 1), (0, 0, 3)]:
        for f in enumerate_ssafs(g):
            assert tuple(f.shape) == g
            assert is_ssaf_filling(f)
    assert len(list(enumerate_ssafs((1, 0, 2)))) == 2


def test_standardization_fibers_are_fundamental():
    # the tie-breaking convention of standardize is pinned by the
    # requirement that each fiber's monomial sum is a fundamental
    # quasisymmetric polynomial indexed by the descent composition
    N = 4
    for n_cells in range(1, 6):
        for lam in enumerate_partitions(n_cells):
            classes = {}
            for t in enumerate_reverse_tableaux(lam, N):
                s = standardize(t)
                assert is_reversetableau(s) and s.is_standard()
                assert standardize(s) == s
                classes.setdefault(s, []).append(t)
            for s, members in classes.items():
                beta = composition_of(rt_descents(s), n_cells)
                total = XPoly.zero(N)
                for t in members:
                    w = tuple(t.weight())
                    total += XPoly.monomial(N, w + (0,) * (N - len(w)))
                assert total == fundamental_qsym_poly(beta, N)


def test_standardization_preserves_refilled_shape():
    # a tableau and its standardization land on fillings of the same
    # collapsed shape, which is what makes descent-grouping well defined
    for m in range(1, 6):
        for lam in enumerate_partitions(m):
            for t in enumerate_reverse_tableaux(lam, 5):
                f1 = rt_to_ssaf(t)
                f2 = rt_to_ssaf(standardize(t))
                assert collapse(f1.shape) == collapse(f2.shape)
