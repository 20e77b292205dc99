import itertools
import math

import pytest

from qschur import compositions
from qschur.compositions import (
    Composition,
    Partition,
    WeakComposition,
    coarsens,
    collapse,
    composition_of,
    compositions_of_partition,
    enumerate_compositions,
    enumerate_partitions,
    enumerate_weak_compositions,
    expand_to_weak,
    format_composition,
    foundation,
    parse_composition,
    parse_weak_composition,
    quasi_shuffles,
    refinements,
    reversal,
    subset_of,
    to_partition,
    triangle_cmp,
)


def test_collapse():
    assert collapse((3, 2, 0, 4, 2, 0)) == (3, 2, 4, 2)
    assert collapse((0, 0, 0)) == ()
    assert collapse((1, 0, 2)) == (1, 2)


def test_to_partition():
    assert to_partition((3, 2, 0, 4, 2, 0)) == (4, 3, 2, 2)
    assert to_partition(()) == ()
    assert to_partition((1, 3)) == (3, 1)


def test_foundation():
    assert foundation((3, 2, 0, 4, 2, 0)) == {1, 2, 4, 5}
    assert foundation((0, 0)) == frozenset()
    assert foundation((1, 1)) == {1, 2}


def test_reversal():
    assert reversal((1, 3, 2)) == (2, 3, 1)
    assert reversal(()) == ()
    assert reversal((2, 2)) == (2, 2)


def test_subset_of():
    assert subset_of((1, 3, 2), 6) == {1, 4}
    assert subset_of((6,), 6) == frozenset()
    assert subset_of((1, 1, 1), 3) == {1, 2}
    with pytest.raises(ValueError):
        subset_of((1, 2), 4)


def test_composition_of():
    assert composition_of({1, 4}, 6) == (1, 3, 2)
    assert composition_of(set(), 5) == (5,)
    assert composition_of({2}, 3) == (2, 1)
    assert composition_of(frozenset(), 0) == Composition()
    with pytest.raises(ValueError):
        composition_of({5}, 4)


def test_subset_composition_round_trips():
    for n in range(1, 11):
        for b in enumerate_compositions(n):
            assert composition_of(subset_of(b, n), n) == b
    for n in range(1, 9):
        for r in range(n):
            for s in itertools.combinations(range(1, n), r):
                assert subset_of(composition_of(s, n), n) == frozenset(s)


def test_coarsens():
    assert coarsens((3, 2, 4, 2), (3, 1, 1, 1, 2, 1, 2))
    assert coarsens((2, 1), (2, 1))
    assert not coarsens((1, 2), (2, 1))


def test_coarsens_partial_order():
    for n in range(1, 7):
        comps = enumerate_compositions(n)
        for a in comps:
            assert coarsens(a, a)
        for a, b in itertools.permutations(comps, 2):
            if coarsens(a, b) and coarsens(b, a):
                assert a == b
        for a, b, c in itertools.permutations(comps, 3):
            if coarsens(a, b) and coarsens(b, c):
                assert coarsens(a, c)


def test_triangle_order_chain():
    chain = [(4,), (3, 1), (1, 3), (2, 2), (2, 1, 1), (1, 2, 1), (1, 1, 2), (1, 1, 1, 1)]
    assert [tuple(c) for c in enumerate_compositions(4)] == chain
    assert triangle_cmp((1, 3), (2, 2)) == 1
    assert triangle_cmp((2, 2), (1, 3)) == -1
    assert triangle_cmp((2, 2), (2, 2)) == 0
    with pytest.raises(ValueError, match="only compares compositions of equal size"):
        triangle_cmp((1,), (2,))


def test_enumerate_compositions_counts():
    assert enumerate_compositions(0) == [()]
    assert len(enumerate_compositions(5)) == 16


def test_enumerations_hand_out_fresh_lists():
    # the enumerations are cached per process; a caller's edits stay its own
    for enumerate_ in (enumerate_compositions, enumerate_partitions):
        first = enumerate_(5)
        expected = list(first)
        first.append(Composition((9,)))
        first.reverse()
        assert enumerate_(5) == expected
    with pytest.raises(ValueError):
        enumerate_compositions(-1)


def test_enumerate_partitions():
    assert enumerate_partitions(0) == [()]
    assert enumerate_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [len(enumerate_partitions(n)) for n in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for n in range(8):
        parts = enumerate_partitions(n)
        assert all(isinstance(p, Partition) and p.size == n for p in parts)
        assert parts == sorted(set(parts), reverse=True)


def test_enumerate_weak_compositions():
    assert enumerate_weak_compositions(0, 0) == [()]
    assert enumerate_weak_compositions(1, 0) == []
    assert enumerate_weak_compositions(2, 2) == [(0, 2), (1, 1), (2, 0)]
    for total in range(5):
        for parts in range(1, 5):
            weak = enumerate_weak_compositions(total, parts)
            assert len(weak) == len(set(weak)) == math.comb(total + parts - 1, parts - 1)
            assert all(len(g) == parts and g.size == total for g in weak)


def test_expand_to_weak():
    assert set(expand_to_weak((1, 2), 3)) == {(1, 2, 0), (1, 0, 2), (0, 1, 2)}
    assert expand_to_weak((7,), 1) == [(7,)]
    assert len(expand_to_weak((1, 1), 3)) == 3
    for m in range(1, 7):
        for a in enumerate_compositions(m):
            for n in range(len(a), 9):
                assert len(expand_to_weak(a, n)) == math.comb(n, len(a))
    with pytest.raises(ValueError):
        expand_to_weak((1, 1), 1)


def test_refinements():
    assert set(map(tuple, refinements((2, 1)))) == {(2, 1), (1, 1, 1)}
    assert refinements(()) == [()]


def test_refinements_are_the_coarsening_order():
    for n in range(9):
        comps = enumerate_compositions(n)
        for a in comps:
            assert set(refinements(a)) == {b for b in comps if coarsens(a, b)}


def test_validation():
    with pytest.raises(ValueError):
        Composition((1, 0, 2))
    with pytest.raises(ValueError):
        WeakComposition((1, -1))
    with pytest.raises(ValueError):
        Partition((1, 2))
    assert Partition((3, 1, 1)).size == 5


def test_parsing_and_formatting():
    assert parse_composition("(1,2,3)") == (1, 2, 3)
    assert parse_composition("1,2,3") == (1, 2, 3)
    assert parse_composition("()") == ()
    assert parse_weak_composition("(1,0,2)") == (1, 0, 2)
    assert format_composition((1, 3)) == "(1,3)"
    assert format_composition(()) == "()"
    with pytest.raises(ValueError):
        parse_composition("(1,x)")


def test_compositions_of_partition():
    assert [tuple(c) for c in compositions_of_partition((2, 1))] == [(2, 1), (1, 2)]
    assert compositions_of_partition((2, 2)) == [(2, 2)]
    assert compositions_of_partition((1, 2)) == [(2, 1), (1, 2)]
    assert compositions_of_partition(()) == [()]
    for n in range(10):
        for lam in enumerate_partitions(n):
            reference = sorted(set(itertools.permutations(lam)), reverse=True)
            assert compositions_of_partition(lam) == reference


def _delannoy(k: int, l: int) -> int:
    return sum(math.comb(k, i) * math.comb(l, i) * 2**i for i in range(min(k, l) + 1))


def test_quasi_shuffles(monkeypatch):
    # quasi_shuffles takes compositions of any size, up to 36 below, so it
    # must build no degree table (2^35 compositions at 36)
    def forbidden(*args, **kwargs):
        raise AssertionError("quasi_shuffles built a degree table")

    monkeypatch.setattr(compositions, "_degree", forbidden)
    assert quasi_shuffles((1,), (1,)) == {(1, 1): 2, (2,): 1}
    assert quasi_shuffles((), (2, 1)) == {(2, 1): 1}
    assert quasi_shuffles((), ()) == {(): 1}
    assert all(type(z) is Composition for z in quasi_shuffles((1, 2), (3,)))
    # the quasi-shuffles of a k-part and an l-part composition, counted
    # with multiplicity, are the Delannoy number D(k, l)
    for k in range(5):
        for l in range(5):
            x, y = tuple(range(1, k + 1)), tuple(range(k + 1, k + l + 1))
            shuffles = quasi_shuffles(x, y)
            assert sum(shuffles.values()) == _delannoy(k, l), (k, l)
            assert all(z.size == sum(x) + sum(y) for z in shuffles)
