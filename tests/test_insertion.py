import pytest
from hypothesis import given, settings, strategies as st

from qschur import tableaux
from qschur.compositions import composition_of, enumerate_compositions, enumerate_partitions
from qschur.insertion import (
    canonical_descent_tableau,
    commutation_check,
    plactic_product,
    row_reading_word,
    schensted_insert,
    skyline_insert,
    skyline_uninsert,
)
from qschur.tableaux import (
    CompositionTableau,
    ReverseTableau,
    enumerate_comts,
    enumerate_reverse_tableaux,
    enumerate_standard_reverse_tableaux,
    is_comt,
    is_reversetableau,
    rt_descents,
    rt_to_comt,
)


def test_schensted_worked_example():
    t = ReverseTableau([[7, 5, 4, 2], [6, 4, 3], [3, 2, 2], [1, 1]])
    res = schensted_insert(t, 5)
    assert res.new_cell == (4, 0)


def test_schensted_trivial():
    assert schensted_insert(ReverseTableau(), 1).result == ReverseTableau([[1]])
    res = schensted_insert(ReverseTableau([[3, 2]]), 2)
    assert res.result == ReverseTableau([[3, 2, 2]])
    assert len(res.path) == 1


def test_row_reading_word():
    t = ReverseTableau([[7, 5, 4, 2], [6, 4, 3], [3, 2, 2], [1, 1]])
    assert row_reading_word(t) == (1, 1, 3, 2, 2, 6, 4, 3, 7, 5, 4, 2)
    assert row_reading_word(ReverseTableau()) == ()
    assert row_reading_word(ReverseTableau([[3, 1]])) == (3, 1)


def test_plactic_product_monoid():
    t = ReverseTableau([[3, 1], [2]])
    e = ReverseTableau()
    assert plactic_product(t, e) == t
    assert plactic_product(e, t) == t
    u = ReverseTableau([[2, 2], [1]])
    prod = plactic_product(t, u)
    assert prod.size == t.size + u.size
    assert is_reversetableau(prod)


def test_single_row_product_adds_horizontal_strip():
    t = ReverseTableau([[3, 2], [1]])
    row = ReverseTableau([[3, 2]])
    cur = t
    cols = []
    for w in row_reading_word(row):
        res = schensted_insert(cur, w)
        cols.append(res.new_cell[1])
        cur = res.result
    assert cols == sorted(cols)
    assert len(set(cols)) == len(cols)


def test_skyline_worked_example():
    f = CompositionTableau([[1, 1], [3, 2, 2, 2], [6, 5, 4], [7, 4, 3]])
    res = skyline_insert(f, 5)
    assert res.new_cell == (1, 0)
    back, k = skyline_uninsert(res.result, 1)
    assert back == f and k == 5


def test_skyline_grows_an_existing_row():
    # the new cell ends the row the carried value settles on
    res = skyline_insert(CompositionTableau([[3]]), 2)
    assert res.result == CompositionTableau([[3, 2]])
    assert (res.new_cell, res.path, res.augmented_row) == ((0, 1), ((0, 1),), 0)
    res = skyline_insert(CompositionTableau([[1], [3, 2]]), 1)
    assert res.result == CompositionTableau([[1], [3, 2, 1]])
    assert (res.new_cell, res.augmented_row) == ((1, 2), 1)


def test_skyline_trivial():
    res = skyline_insert(CompositionTableau(), 7)
    assert res.result == CompositionTableau([[7]])
    assert skyline_uninsert(res.result, 1) == (CompositionTableau(), 7)
    with pytest.raises(ValueError):
        skyline_uninsert(CompositionTableau([[1]]), 2)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=6, max_size=12))
def test_skyline_round_trip_of_a_word(word):
    # words past the insertion suite's five-cell tableaux: insert every
    # letter from the empty tableau, then uninsert them all, each at the
    # length of the row its insertion augmented
    t, steps = CompositionTableau(), []
    for k in word:
        res = skyline_insert(t, k)
        assert is_comt(res.result) and res.result.size == t.size + 1
        steps.append((t, k, len(res.result.rows[res.augmented_row])))
        t = res.result
    for before, k, length in reversed(steps):
        t, letter = skyline_uninsert(t, length)
        assert (t, letter) == (before, k)
    assert t == CompositionTableau()


def test_non_tableau_inputs_raise_value_error():
    # [[1], [2, 1]] breaks the triple condition: inserting 2 bumps a 1
    # out of column 2, and the first column already holds a 1
    with pytest.raises(ValueError, match="not a composition tableau"):
        skyline_insert(CompositionTableau([[1], [2, 1]]), 2)
    # [[1, 2]] increases along its row, so no insertion produces it
    with pytest.raises(ValueError, match="not the result of an insertion"):
        skyline_uninsert(CompositionTableau([[1, 2]]), 2)
    # letters are positive
    with pytest.raises(ValueError, match="positive"):
        schensted_insert(ReverseTableau([[1]]), 0)
    with pytest.raises(ValueError, match="positive"):
        skyline_insert(CompositionTableau([[1]]), 0)


def test_letters_are_positive_integers():
    # a float letter was compared as given and stored truncated, so
    # inserting 2.5 into [[2]] returned the non-tableau ((2,), (2,));
    # each letter is now converted once, and 2.0 raises too
    for bad in (2.5, 2.0, "2", 0, -1):
        with pytest.raises(ValueError, match="positive integers"):
            schensted_insert(ReverseTableau([[2]]), bad)
        with pytest.raises(ValueError, match="positive integers"):
            skyline_insert(CompositionTableau([[2]]), bad)
    with pytest.raises(ValueError, match="positive integers"):
        plactic_product(ReverseTableau([[2]]), ReverseTableau([[1, 0]]))


def test_uninsert_then_insert_is_the_identity():
    # every composition tableau with at most 7 cells and entries at most
    # 5, at every row length it has: the uninsertion's letter, inserted
    # into the smaller tableau, augments a row of that length and gives
    # the tableau back
    pairs = 0
    for m in range(1, 8):
        for a in enumerate_compositions(m):
            lengths = set(a)
            for t in enumerate_comts(a, 5):
                for length in lengths:
                    smaller, k = skyline_uninsert(t, length)
                    res = skyline_insert(smaller, k)
                    assert res.result == t, (t.rows, length)
                    assert len(t.rows[res.augmented_row]) == length
                    pairs += 1
    assert pairs == 15485


def test_insertion_wraps_its_rows_unchecked(forbid):
    # the kernels run on lists and wrap each result once, so no public
    # insertion re-validates its rows through the tableau constructor
    t = CompositionTableau([[1], [3, 2, 2], [4, 3]])
    rt = ReverseTableau([[4, 3, 1], [2, 2]])
    u = ReverseTableau([[3, 1], [2]])
    calls = [
        lambda: skyline_insert(t, 2).result,
        lambda: skyline_uninsert(t, 3)[0],
        lambda: schensted_insert(rt, 3).result,
        lambda: plactic_product(rt, u),
    ]
    expected = [call() for call in calls]
    forbid(tableaux, ["_freeze"], "an insertion re-validated its rows")
    for call, want in zip(calls, expected):
        got = call()
        assert type(got) is type(want) and got == want
        assert all(type(r) is tuple and all(type(v) is int for v in r) for r in got.rows)


def test_commutation_trivial():
    assert commutation_check(CompositionTableau(), 3)


def test_schensted_output_valid_exhaustive():
    for m in range(1, 7):
        for lam in enumerate_partitions(m):
            for t in enumerate_reverse_tableaux(lam, 6):
                for k in range(1, 8):
                    res = schensted_insert(t, k)
                    assert is_reversetableau(res.result)
                    assert res.result.size == t.size + 1


def test_descent_tableau():
    t = canonical_descent_tableau((1, 3, 2))
    assert canonical_descent_tableau((4,)) == ReverseTableau([[4, 3, 2, 1]])
    assert rt_to_comt(t) == CompositionTableau([[1], [4, 3, 2], [6, 5]])


def test_descent_tableau_unique():
    for n in range(1, 7):
        for a in enumerate_compositions(n):
            t = canonical_descent_tableau(a)
            assert composition_of(rt_descents(t), n) == a
            lam = t.shape()
            matches = [
                s
                for s in enumerate_standard_reverse_tableaux(lam)
                if composition_of(rt_descents(s), n) == a
            ]
            assert matches == [t]
