"""Row insertion for reverse tableaux and the analogue for composition
tableaux, with first-class insertion paths.

Paths are returned because several structural facts (row bumping
behaviour, uniqueness of the augmented row) are statements about the
cells an insertion touches, and the test suite asserts them directly.
"""
from __future__ import annotations

from dataclasses import dataclass

from .compositions import Composition
from .tableaux import (
    CompositionTableau,
    ReverseTableau,
    columns,
    comt_to_ssaf,
    ssaf_to_rt,
    top_justify,
)

Cell = tuple[int, int]  # (row, column), 0-based


@dataclass(frozen=True)
class InsertionResult:
    result: object
    path: tuple[Cell, ...]
    new_cell: Cell
    augmented_row: int | None = None


def schensted_insert(t: ReverseTableau, k: int) -> InsertionResult:
    """Insert ``k`` by row bumping.

    In each row, ``k`` lands at the end if it is weakly smaller than the
    last entry; otherwise it replaces the leftmost entry strictly
    smaller than it and the displaced value moves to the next row.
    """
    if k < 1:
        raise ValueError("entries are positive integers")
    rows = [list(r) for r in t.rows]
    path: list[Cell] = []
    cur = k
    i = 0
    while True:
        if i == len(rows):
            rows.append([cur])
            path.append((i, 0))
            break
        row = rows[i]
        if cur <= row[-1]:
            row.append(cur)
            path.append((i, len(row) - 1))
            break
        for j, v in enumerate(row):
            if v < cur:
                row[j], cur = cur, v
                path.append((i, j))
                break
        i += 1
    return InsertionResult(ReverseTableau(rows), tuple(path), path[-1])


def row_reading_word(t: ReverseTableau) -> tuple[int, ...]:
    """Entries left to right, bottom row first."""
    out: list[int] = []
    for row in reversed(t.rows):
        out.extend(row)
    return tuple(out)


def plactic_product(t: ReverseTableau, u: ReverseTableau) -> ReverseTableau:
    """Insert the reading word of ``u`` into ``t``; the empty tableau is
    the identity."""
    cur = t
    for w in row_reading_word(u):
        cur = schensted_insert(cur, w).result
    return cur


def skyline_insert(t: CompositionTableau, k: int) -> InsertionResult:
    """Insert ``k`` into a composition tableau.

    Positions are scanned column by column from column r+1 (r the
    longest row) down to column 2, each column top to bottom.  An empty
    position at the end of a row one shorter than the scanned column
    absorbs the carried value if the row stays weakly decreasing; a
    filled position bumps when its entry is smaller than the carried
    value and the carried value fits under the entry to its left.  A
    value carried past column 2 starts a new row of length one, placed
    so the first column stays strictly increasing (ValueError if it
    cannot: the input was not a composition tableau).
    """
    if k < 1:
        raise ValueError("entries are positive integers")
    rows = [list(r) for r in t.rows]
    longest = max((len(r) for r in rows), default=0)
    cur = k
    touched: list[Cell] = []
    placed: Cell | None = None
    for j in range(longest + 1, 1, -1):
        for i, row in enumerate(rows):
            if len(row) == j - 1 and cur <= row[-1]:
                row.append(cur)
                placed = (i, j - 1)
                break
            if len(row) >= j and row[j - 1] < cur <= row[j - 2]:
                row[j - 1], cur = cur, row[j - 1]
                touched.append((i, j - 1))
        if placed is not None:
            break
    if placed is None:
        pos = 0
        while pos < len(rows) and rows[pos][0] < cur:
            pos += 1
        if pos < len(rows) and rows[pos][0] == cur:
            raise ValueError("not a composition tableau: the new row would break the first column")
        rows.insert(pos, [cur])
        placed = (pos, 0)
        touched = [(i if i < pos else i + 1, j) for i, j in touched]
    touched.append(placed)
    return InsertionResult(
        CompositionTableau(rows), tuple(touched), placed, augmented_row=placed[0]
    )


def skyline_uninsert(t: CompositionTableau, length: int) -> tuple[CompositionTableau, int]:
    """Undo an insertion whose augmented row has the given length.

    The last cell of the lowest row of that length is removed and the
    bumping chain is rewound; returns the smaller tableau and the value
    whose insertion reproduces the input (ValueError if it does not).
    """
    rows = [list(r) for r in t.rows]
    i0 = None
    for i, row in enumerate(rows):
        if len(row) == length:
            i0 = i
    if i0 is None:
        raise ValueError(f"no row of length {length}")
    cur = rows[i0].pop()
    if length == 1:
        del rows[i0]

    def positions():
        if length > 1:
            for i in range(i0 - 1, -1, -1):
                if len(rows[i]) >= length:
                    yield (i, length - 1)
        longest = max((len(r) for r in rows), default=0)
        for j in range(length + 1, longest + 2):
            for i in range(len(rows) - 1, -1, -1):
                if len(rows[i]) >= j:
                    yield (i, j - 1)

    for i, j in positions():
        x = rows[i][j]
        if x > cur and (len(rows[i]) == j + 1 or cur >= rows[i][j + 1]):
            rows[i][j], cur = cur, x
    smaller = CompositionTableau(rows)
    redo = skyline_insert(smaller, cur)
    if redo.result != t:
        raise ValueError("not the result of an insertion: re-inserting does not give the input")
    return smaller, cur


def canonical_descent_tableau(a) -> ReverseTableau:
    """The unique standard reverse tableau of shape sorted(a) whose
    descent set encodes ``a``.

    Built by writing consecutive blocks of 1..n into the rows of the
    reversed shape, decreasing within rows, bottom row first, then
    pushing every cell to the top of its column.
    """
    a = Composition(a)
    blocks: list[list[int]] = []
    start = 1
    for part in a:
        blocks.append(list(range(start + part - 1, start - 1, -1)))
        start += part
    # row i from the bottom holds block i
    return top_justify(columns(blocks[::-1]))


def commutation_check(t: CompositionTableau, k: int) -> bool:
    """Inserting then flattening agrees with flattening then inserting."""
    left = ssaf_to_rt(comt_to_ssaf(skyline_insert(t, k).result))
    right = schensted_insert(ssaf_to_rt(comt_to_ssaf(t)), k).result
    return left == right


def row_bumping_check(t: ReverseTableau, x: int, xp: int) -> bool:
    """Both clauses of the row bumping statement on concrete paths."""
    r1 = schensted_insert(t, x)
    r2 = schensted_insert(r1.result, xp)
    path1, new1 = r1.path, r1.new_cell
    path2, new2 = r2.path, r2.new_cell
    col1 = {i: j for i, j in path1}
    col2 = {i: j for i, j in path2}
    shared = set(col1) & set(col2)
    if x >= xp:
        if not all(col1[i] < col2[i] for i in shared):
            return False
        return new1[1] < new2[1] and new1[0] >= new2[0]
    if not all(col2[i] <= col1[i] for i in shared):
        return False
    return new2[1] <= new1[1] and new2[0] > new1[0]


def augmented_row_uniqueness_check(t: CompositionTableau, k: int) -> bool:
    """After insertion, no lower row shares the augmented row's length."""
    res = skyline_insert(t, k)
    rows = res.result.rows
    i = res.augmented_row
    return all(len(rows[r]) != len(rows[i]) for r in range(i + 1, len(rows)))
