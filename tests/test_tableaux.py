from collections import Counter

import pytest

from qschur.compositions import (
    collapse,
    composition_of,
    compositions_of_partition,
    enumerate_compositions,
    enumerate_partitions,
)
from qschur.fillings import AugmentedFilling, is_ssaf_filling
from qschur.insertion import canonical_descent_tableau
from qschur.polynomial import XPoly
from qschur.qsym import fundamental_qsym_poly, transition_matrix
from qschur.tableaux import (
    CompositionTableau,
    ReverseTableau,
    comt_descents,
    columns,
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
)
from qschur.tableaux import _refill, _standard_walk


def test_is_reversetableau():
    assert is_reversetableau(ReverseTableau([[3, 1], [2]]))
    assert not is_reversetableau(ReverseTableau([[1, 2]]))
    assert not is_reversetableau(ReverseTableau([[2, 2], [2]]))
    assert not is_reversetableau(ReverseTableau([[3], [2, 1]]))  # not a partition
    # an entry below 1 is refused by the constructor, not the predicate
    with pytest.raises(ValueError, match="positive integers"):
        ReverseTableau([[2, 0]])
    # a partition diagram has no empty row
    assert not is_reversetableau(ReverseTableau([[]]))
    assert not is_reversetableau(ReverseTableau([[2], []]))


def test_entries_are_positive_integers():
    # entries were converted with int() and no sign was checked, so 2.5
    # and "7" were stored truncated or parsed and 0 and -3 were kept;
    # the constructor now applies the insertions' letter rule
    for kind in (ReverseTableau, CompositionTableau):
        for bad in ([[2.5]], [["7"]], [[0, -3]], [[3, 1], [2.0]], [[1, -1]]):
            with pytest.raises(ValueError, match="positive integers"):
                kind(bad)
        t = kind([(3, True), [2]])
        assert t.rows == ((3, 1), (2,))
        assert all(type(v) is int for r in t.rows for v in r)


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
    with pytest.raises(ValueError, match="descent set requires a standard tableau"):
        rt_descents(ReverseTableau([[2, 2], [1]]))


def test_is_comt():
    assert is_comt(CompositionTableau([[5, 4, 3, 1], [6], [8, 7, 2]]))
    assert is_comt(CompositionTableau([[1], [3, 2]]))
    assert is_comt(CompositionTableau([[1], [3, 3]]))
    assert not is_comt(CompositionTableau([[2], [1]]))
    # the triple condition on the padded rectangle
    assert not is_comt(CompositionTableau([[2], [3, 2]]))
    assert not is_comt(CompositionTableau([[1, 2]]))  # a row that increases
    assert is_comt(CompositionTableau())
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
    # a pinned first column of the wrong length, or with an entry above
    # max_entry, admits no tableau
    for first_column in ((1,), (1, 4)):
        assert list(enumerate_comts((2, 1), 3, first_column=first_column)) == []
    assert len(list(enumerate_comts((2, 1), 3, first_column=(1, 3)))) == 1


def test_enumerate_standard_comts():
    std = list(enumerate_standard_comts((1, 2)))
    assert [t.rows for t in std] == [((1,), (3, 2))]
    for n in range(1, 6):
        only = list(enumerate_standard_comts((n,)))
        assert [t.rows for t in only] == [(tuple(range(n, 0, -1)),)]
    assert len(list(enumerate_standard_comts((2, 1)))) == 1


def _walk(n, shape=None):
    """The leaves of the walk, each as (row lengths, descent mask, the
    column of each entry), copied out of the live lists."""
    leaves = []
    _standard_walk(n, shape, lambda lengths, mask, cols: leaves.append(
        (tuple(lengths), mask, tuple(cols))))
    return leaves


def _refilled(cols, n):
    """The nonempty rows of the column refill of the tableau whose entry v
    the walk placed in column ``cols[v]``, each column largest first."""
    by_column = [[v for v in range(n, 0, -1) if cols[v] == k] for k in range(n)]
    return tuple(tuple(r) for r in _refill(by_column, n) if r)


def test_standard_walk_is_the_filtered_reverse_tableaux():
    # every standard reverse tableau of size <= 7 once, read back from the
    # column refill of the columns the degree walk places, each with the
    # bitmask of its descent set; the row lengths the walk keeps are those
    # rows' lengths; the public enumerator yields the tableaux shape by
    # shape, largest shape first in the triangle order, each in walk order
    for n in range(8):
        walked = [(_refilled(cols, n), lengths, mask) for lengths, mask, cols in _walk(n)]
        tableaux = [ssaf_to_rt(comt_to_ssaf(CompositionTableau(rows))) for rows, _, _ in walked]
        standard = [t for lam in enumerate_partitions(n)
                    for t in enumerate_reverse_tableaux(lam, n) if t.is_standard()]
        assert len(set(tableaux)) == len(tableaux) == len(standard)
        assert set(tableaux) == set(standard)
        for lam in enumerate_partitions(n):
            assert list(enumerate_standard_reverse_tableaux(lam)) == [
                t for a in compositions_of_partition(lam)
                for t, (_, lengths, _) in zip(tableaux, walked) if lengths == a
            ]
        for t, (rows, lengths, mask) in zip(tableaux, walked):
            assert lengths == tuple(map(len, rows))
            assert mask == sum(1 << (i - 1) for i in rt_descents(t))


def test_shape_walks_split_the_degree_walk():
    # for every composition a with |a| <= 8, the walk held to a reaches the
    # degree walk's tableaux of shape a, each once, in the same order and
    # with the same masks; every composition is the shape of some tableau
    for n in range(9):
        by_shape = {}
        for leaf in _walk(n):
            by_shape.setdefault(leaf[0], []).append(leaf)
        assert sorted(by_shape) == sorted(enumerate_compositions(n))
        for a in enumerate_compositions(n):
            walked = _walk(n, a)
            assert walked == by_shape[a], a
            assert len(set(walked)) == len(walked), a


def _standard_reverse_rows(lam):
    """The rows of every standard reverse tableau of partition shape lam:
    n, n - 1, ..., 1 each placed in a cell whose left and upper
    neighbours are filled, with neither the walk nor a filter."""
    rows = [[] for _ in lam]
    out = []

    def place(v):
        if not v:
            out.append([list(r) for r in rows])
            return
        for i, row in enumerate(rows):
            if len(row) < lam[i] and (i == 0 or len(rows[i - 1]) > len(row)):
                row.append(v)
                place(v - 1)
                row.pop()

    place(sum(lam))
    return out


def test_shape_counts_are_the_refill_counts_by_descent_set():
    # for every composition a with |a| <= 8, the walk held to a counts its
    # tableaux by descent mask as the degree walk counts those of shape a,
    # and as the definition does: refill every standard reverse tableau of
    # the sorted shape (_refill) and count the refills of shape a by the
    # descent set of the reverse tableau
    for n in range(9):
        degree = {}
        for lengths, mask, _ in _walk(n):
            degree.setdefault(lengths, Counter())[mask] += 1
        refilled = {}
        for lam in enumerate_partitions(n):
            for rows in _standard_reverse_rows(lam):
                shape = tuple(len(r) for r in _refill(columns(rows), n) if r)
                mask = sum(1 << (i - 1) for i in rt_descents(ReverseTableau(rows)))
                refilled.setdefault(shape, Counter())[mask] += 1
        for a in enumerate_compositions(n):
            walked = Counter(mask for _, mask, _ in _walk(n, a))
            assert walked == degree[a] == refilled[a], a


def test_standard_comts_keep_their_walk_order():
    # the order of enumerate_standard_comts and
    # enumerate_standard_reverse_tableaux, recorded when the walk still
    # kept each tableau's rows; replaying each tableau from its columns
    # keeps it
    assert [t.rows for t in enumerate_standard_comts((2, 1, 2))] == [((2, 1), (3,), (5, 4))]
    assert [t.rows for t in enumerate_standard_comts((3, 1, 1, 2))] == [
        ((3, 2, 1), (4,), (5,), (7, 6))]
    assert [t.rows for t in enumerate_standard_comts((1, 3, 2))] == [
        ((1,), (4, 3, 2), (6, 5)), ((2,), (4, 3, 1), (6, 5)), ((1,), (5, 4, 3), (6, 2)),
        ((1,), (5, 4, 2), (6, 3)), ((2,), (5, 4, 1), (6, 3))]
    assert [t.rows for t in enumerate_standard_comts((2, 2, 2))] == [
        ((2, 1), (4, 3), (6, 5)), ((3, 2), (4, 1), (6, 5)), ((2, 1), (5, 4), (6, 3)),
        ((3, 2), (5, 4), (6, 1)), ((4, 3), (5, 2), (6, 1))]
    assert [t.rows for t in enumerate_standard_comts((1, 1, 4))] == [
        ((1,), (2,), (6, 5, 4, 3)), ((1,), (3,), (6, 5, 4, 2)), ((2,), (3,), (6, 5, 4, 1)),
        ((1,), (4,), (6, 5, 3, 2)), ((2,), (4,), (6, 5, 3, 1)), ((3,), (4,), (6, 5, 2, 1))]
    assert [t.rows for t in enumerate_standard_reverse_tableaux((3, 2))] == [
        ((5, 4, 1), (3, 2)), ((5, 3, 2), (4, 1)), ((5, 3, 1), (4, 2)),
        ((5, 4, 3), (2, 1)), ((5, 4, 2), (3, 1))]
    assert [t.rows for t in enumerate_standard_reverse_tableaux((2, 2, 1))] == [
        ((5, 3), (4, 1), (2,)), ((5, 2), (4, 1), (3,)), ((5, 4), (3, 1), (2,)),
        ((5, 4), (3, 2), (1,)), ((5, 3), (4, 2), (1,))]


def test_standard_comts_are_the_standard_composition_tableaux():
    # the composition tableaux with entries 1..n, each once, enumerated
    # cell by cell with neither the walk nor the column refill
    for n in range(8):
        for a in enumerate_compositions(n):
            walked = list(enumerate_standard_comts(a))
            standard = [t for t in enumerate_comts(a, n) if t.is_standard()]
            assert len(set(walked)) == len(walked) == len(standard), a
            assert set(walked) == set(standard), a


def test_standard_walks_of_the_empty_shape():
    # the walk of the empty partition yields one empty tableau, and the
    # matrices of degrees 0 and 1 are the 1 x 1 identity
    assert list(enumerate_standard_comts(())) == [CompositionTableau([])]
    assert list(enumerate_standard_reverse_tableaux(())) == [ReverseTableau([])]
    assert _walk(0) == _walk(0, ()) == [((), 0, (0,))]
    for b in "MF":
        transition_matrix.cache_clear()
        assert transition_matrix(b, 0) == transition_matrix(b, 1) == ((1,),)
    transition_matrix.cache_clear()


def test_basement_sizes_are_integers():
    # a basement size of 2.0, 2.5 or "2" raised TypeError; it now follows
    # the integer rule of compositions._integers
    calls = (
        lambda n: comt_to_ssaf(CompositionTableau([[1], [2, 2]]), n),
        lambda n: rt_to_ssaf(ReverseTableau([[2, 1]]), n),
    )
    for call in calls:
        assert call(2).nvars == 2
        for bad in (2.0, 2.5, "2"):
            with pytest.raises(ValueError, match="variable counts are integers"):
                call(bad)


def test_entry_bounds_are_integers():
    # an entry bound of 2.5 or 2.0 reached range() and raised TypeError;
    # it now follows the integer rule of compositions._integers
    calls = (
        lambda m: list(enumerate_comts((1,), m)),
        lambda m: list(enumerate_reverse_tableaux((1,), m)),
    )
    for call in calls:
        assert len(call(2)) == 2
        for bad in (2.0, 2.5, "2", None):
            with pytest.raises(ValueError, match="entry bounds are integers"):
                call(bad)


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
    # an empty shape has one filling, its basement alone
    for g in ((), (0, 0)):
        assert list(enumerate_ssafs(g)) == [AugmentedFilling(g, [()] * len(g))]


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
