import itertools
import math

import pytest

from qschur import compositions
from qschur.fillings import AugmentedFilling, leg
from qschur.insertion import skyline_uninsert
from qschur.pieri import col_op, pieri_col, pieri_row, rem, row_op
from qschur.polynomial import QtPoly, XPoly
from qschur.qsym import transition_matrix
from qschur.tableaux import CompositionTableau
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
    triangle_key,
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


def test_parts_are_integers():
    # parts were converted with int(), so 1.5 and "2" were truncated or
    # parsed; they now raise ValueError, and a non-iterable stays TypeError
    for kind in (WeakComposition, Composition, Partition):
        for bad in ((1.5, 2), ("2", 1), "21", (2, None)):
            with pytest.raises(ValueError, match="integers"):
                kind(bad)
        with pytest.raises(TypeError):
            kind(2)
        c = kind([True, 1])
        assert c == (1, 1) and all(type(p) is int for p in c)
    assert WeakComposition(p for p in (2, 0, 1)) == (2, 0, 1)


def test_triangle_order_chain():
    chain = [(4,), (3, 1), (1, 3), (2, 2), (2, 1, 1), (1, 2, 1), (1, 1, 2), (1, 1, 1, 1)]
    assert [tuple(c) for c in enumerate_compositions(4)] == chain
    assert sorted(reversed(chain), key=triangle_key, reverse=True) == chain
    assert triangle_key((1, 3)) == ((3, 1), (1, 3))
    with pytest.raises(ValueError, match="zero part"):
        triangle_key((1, 0))
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


def test_enumerate_weak_compositions(forbid):
    # the cut sets give only the compositions that fit the parts, so few
    # parts of a large total build no table of its 2^(total-1) compositions
    forbid(compositions, ["_degree"], "weak compositions built a degree table")
    assert enumerate_weak_compositions(40, 1) == [(40,)]
    assert enumerate_weak_compositions(30, 2) == [(k, 30 - k) for k in range(31)]
    assert enumerate_weak_compositions(0, 0) == [()]
    assert enumerate_weak_compositions(1, 0) == []
    assert enumerate_weak_compositions(2, 2) == [(0, 2), (1, 1), (2, 0)]
    for total in range(5):
        for parts in range(1, 5):
            weak = enumerate_weak_compositions(total, parts)
            assert len(weak) == len(set(weak)) == math.comb(total + parts - 1, parts - 1)
            assert all(len(g) == parts and g.size == total for g in weak)
            assert weak == sorted(weak)
    assert enumerate_weak_compositions(-1, 2) == []


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


def test_unchecked_placements_stay_typed():
    # expand_to_weak checks its input once and builds each placement
    # unchecked; the placements still are weak compositions, in the
    # order of their nonzero positions
    for m in range(7):
        for a in enumerate_compositions(m):
            for n in range(len(a), len(a) + 3):
                expected = []
                for positions in itertools.combinations(range(n), len(a)):
                    parts = [0] * n
                    for pos, val in zip(positions, a):
                        parts[pos] = val
                    expected.append(WeakComposition(parts))
                placed = expand_to_weak(a, n)
                assert all(type(w) is WeakComposition and w == WeakComposition(w) for w in placed)
                assert placed == expected, (a, n)


def test_remaining_integer_inputs_follow_the_rule():
    # each input below was used as given: a float or a string raised
    # TypeError from range(), indexing or a comparison, or was taken as
    # the int it equals (subset_of, leg, entry, a warm transition_matrix),
    # or made rem and its chains return None; each now raises ValueError
    transition_matrix("F", 3)  # a cached ("F", 3) must not answer ("F", 3.0)
    filling = AugmentedFilling((2,), [(1, 1)])
    tableau = CompositionTableau(((1,), (2,)))
    assert skyline_uninsert(tableau, 1) == (CompositionTableau([[1]]), 2)
    table = [
        ("pieri_row", lambda: pieri_row((1,), 2.0)),
        ("pieri_row string", lambda: pieri_row((1,), "2")),
        ("pieri_col", lambda: pieri_col((1,), 2.0)),
        ("rem", lambda: rem((2,), 2.5)),
        ("row_op", lambda: row_op((2, 1), [2.5])),
        ("col_op", lambda: col_op((2,), [2.5])),
        ("XPoly.variable", lambda: XPoly.variable(2, 1.0)),
        ("swap_variables", lambda: XPoly.variable(2, 1).swap_variables(1, 2.0)),
        ("QtPoly power", lambda: QtPoly.q() ** 2.0),
        ("XPoly power", lambda: XPoly.variable(1, 1) ** 2.0),
        ("enumerate_compositions", lambda: enumerate_compositions(3.0)),
        ("enumerate_partitions", lambda: enumerate_partitions(2.5)),
        ("enumerate_weak_compositions", lambda: enumerate_weak_compositions(2.0, 2)),
        ("expand_to_weak", lambda: expand_to_weak((1,), 2.0)),
        ("subset_of", lambda: subset_of((1, 2), 3.0)),
        ("leg", lambda: leg((2,), (1, 1.0))),
        ("entry", lambda: filling.entry(1, 1.0)),
        ("transition_matrix", lambda: transition_matrix("F", 3.0)),
        # 1.0 uninserted, 2.0 raised TypeError from range, and 1.5 and "1"
        # raised "no row of length"
        *((f"skyline_uninsert {bad!r}", lambda bad=bad: skyline_uninsert(tableau, bad))
          for bad in (1.0, 2.0, 1.5, "1")),
    ]
    for name, call in table:
        with pytest.raises(ValueError, match="are integers"):
            call()
            pytest.fail(f"{name} accepted a non-integer")
    assert transition_matrix.cache_info().currsize >= 1
    # a bool is an int under operator.index
    assert pieri_row((1,), True) == pieri_row((1,), 1)
    assert QtPoly.q() ** True == QtPoly.q()


def test_refinements():
    assert set(map(tuple, refinements((2, 1)))) == {(2, 1), (1, 1, 1)}
    assert refinements(()) == [()]


def test_refinements_are_the_coarsening_order():
    for n in range(9):
        comps = enumerate_compositions(n)
        for a in comps:
            assert set(refinements(a)) == {b for b in comps if coarsens(a, b)}


def test_refinements_and_rearrangements_read_only_their_parts_tables(monkeypatch):
    # a refinement concatenates one composition of each part, so only the
    # tables of the part sizes are read; rearrangements read none, so
    # (10, 10) builds no table of the 2^19 compositions of 20
    read = []
    degree = compositions._degree

    def spy(n):
        read.append(n)
        return degree(n)

    monkeypatch.setattr(compositions, "_degree", spy)
    assert compositions_of_partition((10, 10)) == [(10, 10)]
    assert len(compositions_of_partition((1,) * 20)) == 1
    assert len(compositions_of_partition((3, 2, 2, 1, 1))) == 30
    assert read == []
    for a in ((1,) * 18, (3, 1, 2), (2, 5, 2), (9, 9), ()):
        read.clear()
        refined = refinements(a)
        assert sorted(read) == sorted(a), a
        assert len(refined) == 2 ** (sum(a) - len(a)), a


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


def test_quasi_shuffles(forbid):
    # quasi_shuffles takes compositions of any size, up to 36 below, so it
    # must build no degree table (2^35 compositions at 36)
    forbid(compositions, ["_degree"], "quasi_shuffles built a degree table")
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
