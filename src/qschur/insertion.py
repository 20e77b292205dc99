"""Row insertion for reverse tableaux and the analogue for composition
tableaux, with first-class insertion paths.

Paths are returned because several structural facts (row bumping
behaviour, uniqueness of the augmented row) are statements about the
cells an insertion touches; suite ``insertion`` of ``qschur.verify``
checks them on the paths directly.

Each insertion has one kernel, ``_schensted`` and ``_skyline``, which
bumps in place on a list of row lists and returns the path.  The public
functions check the letter, copy the rows once, run the kernel and wrap
the result once, unchecked; ``plactic_product`` runs the whole reading
word through one copy.  ``skyline_uninsert`` rewinds on lists too, and
re-runs ``_skyline`` on the smaller rows: its ``ValueError`` for a
tableau that no insertion produces comes from that re-run.
"""
from __future__ import annotations

from dataclasses import dataclass

from .compositions import Composition, _count
from .tableaux import (
    CompositionTableau,
    ReverseTableau,
    _letter,
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


def _schensted(rows: list[list[int]], k: int) -> list[Cell]:
    """Row-insert ``k`` into ``rows`` in place; returns the path, whose
    last cell is the new one."""
    path: list[Cell] = []
    cur = k
    for i, row in enumerate(rows):
        if cur <= row[-1]:
            row.append(cur)
            path.append((i, len(row) - 1))
            return path
        for j, v in enumerate(row):
            if v < cur:
                row[j], cur = cur, v
                path.append((i, j))
                break
    path.append((len(rows), 0))
    rows.append([cur])
    return path


def schensted_insert(t: ReverseTableau, k: int) -> InsertionResult:
    """Insert ``k`` by row bumping.

    In each row, ``k`` lands at the end if it is weakly smaller than the
    last entry; otherwise it replaces the leftmost entry strictly
    smaller than it and the displaced value moves to the next row.
    """
    k = _letter(k)
    rows = [list(r) for r in t.rows]
    path = _schensted(rows, k)
    return InsertionResult(ReverseTableau._trusted(rows), tuple(path), path[-1])


def row_reading_word(t: ReverseTableau) -> tuple[int, ...]:
    """Entries left to right, bottom row first."""
    out: list[int] = []
    for row in reversed(t.rows):
        out.extend(row)
    return tuple(out)


def plactic_product(t: ReverseTableau, u: ReverseTableau) -> ReverseTableau:
    """Insert the reading word of ``u`` into ``t``; the empty tableau is
    the identity."""
    rows = [list(r) for r in t.rows]
    for w in row_reading_word(u):
        _schensted(rows, _letter(w))
    return ReverseTableau._trusted(rows)


def _skyline(rows: list[list[int]], k: int) -> tuple[list[Cell], Cell]:
    """Skyline-insert ``k`` into ``rows`` in place; returns the path,
    whose last cell is the new one, and the new cell."""
    longest = max(map(len, rows), default=0)
    cur = k
    path: list[Cell] = []
    for j in range(longest, 0, -1):  # the scanned column, 0-based
        for i, row in enumerate(rows):
            n = len(row)
            if n == j and cur <= row[-1]:
                row.append(cur)
                path.append((i, j))
                return path, (i, j)
            if n > j and row[j] < cur <= row[j - 1]:
                row[j], cur = cur, row[j]
                path.append((i, j))
    pos = 0
    while pos < len(rows) and rows[pos][0] < cur:
        pos += 1
    if pos < len(rows) and rows[pos][0] == cur:
        raise ValueError("not a composition tableau: the new row would break the first column")
    rows.insert(pos, [cur])
    path = [(i if i < pos else i + 1, j) for i, j in path]
    path.append((pos, 0))
    return path, (pos, 0)


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
    k = _letter(k)
    rows = [list(r) for r in t.rows]
    path, new = _skyline(rows, k)
    return InsertionResult(
        CompositionTableau._trusted(rows), tuple(path), new, augmented_row=new[0]
    )


def skyline_uninsert(t: CompositionTableau, length: int) -> tuple[CompositionTableau, int]:
    """Undo an insertion whose augmented row has the given length.

    The last cell of the lowest row of that length is removed and the
    bumping chain is rewound; returns the smaller tableau and the value
    whose insertion reproduces the input (ValueError if it does not,
    raised when the insertion kernel is re-run on the smaller rows).
    The length follows the integer rule: ``1.0`` or ``"1"`` raises
    ValueError.
    """
    length = _count(length, "row lengths")
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
    longest = max(map(len, rows), default=0)
    # columns left to right from the removed cell's (never the first),
    # each bottom to top; the removed cell's own column only above its row
    for j in range(max(length - 1, 1), longest):
        for i in range(i0 - 1 if j < length else len(rows) - 1, -1, -1):
            row = rows[i]
            if len(row) > j:
                x = row[j]
                # x >= cur would be equivalent: swapping equal values is a no-op
                if x > cur and (len(row) == j + 1 or cur >= row[j + 1]):
                    row[j], cur = cur, x
    smaller = CompositionTableau._trusted(rows)
    redo = [list(r) for r in smaller.rows]
    _skyline(redo, cur)
    if tuple(map(tuple, redo)) != t.rows:
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

