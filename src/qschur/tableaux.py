"""Reverse tableaux, composition tableaux, and the maps between them.

A reverse tableau fills a partition diagram with rows weakly decreasing
and columns strictly decreasing.  A composition tableau fills a
composition diagram with weakly decreasing rows, a strictly increasing
first column, and a triple condition on the zero-padded rectangle.
Composition tableaux correspond to augmented fillings with identity
basement by deleting the basement and the empty rows.  Both kinds share
one body: storage, equality, rendering, JSON and the descent set.
"""
from __future__ import annotations

import operator
from typing import Callable, Iterable, Iterator

from .compositions import (
    Composition,
    Partition,
    WeakComposition,
    _count,
    collapse,
    compositions_of_partition,
    content,
    foundation,
)
from .fillings import AugmentedFilling

Rows = tuple[tuple[int, ...], ...]


def _letter(k) -> int:
    """``k`` as an int (ValueError unless it is an integer >= 1): the one
    rule for a tableau entry and for a letter inserted into a tableau."""
    try:
        k = operator.index(k)
    except TypeError:
        k = 0
    if k < 1:
        raise ValueError("entries are positive integers")
    return k


def _freeze(rows: Iterable[Iterable[int]]) -> Rows:
    """The rows as tuples of ints under the rule of :func:`_letter`.  A
    row of valid entries converts at C speed (``operator.index``, then its
    least entry checked); any other row is read through ``_letter``, which
    raises at its first bad entry."""
    frozen = []
    for r in map(tuple, rows):
        try:
            ints = tuple(map(operator.index, r))
        except TypeError:
            ints = (0,)
        frozen.append(ints if min(ints, default=1) >= 1 else tuple(map(_letter, r)))
    return tuple(frozen)


class _Tableau:
    """Rows of positive entries, and the statistics read off them.  A
    tableau equals only a tableau of its own kind with the same rows."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]] = ()):
        self.rows = _freeze(rows)

    @classmethod
    def _trusted(cls, rows):
        """A tableau from valid rows of ints, unchecked."""
        self = object.__new__(cls)
        self.rows = tuple(map(tuple, rows))
        return self

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def entries(self) -> list[int]:
        return [v for r in self.rows for v in r]

    def is_standard(self) -> bool:
        e = sorted(self.entries())
        return e == list(range(1, len(e) + 1))

    def weight(self) -> WeakComposition:
        return content(self.entries())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __str__(self):
        return "\n".join(" ".join(str(v) for v in r) for r in self.rows)

    def __repr__(self):
        return f"{type(self).__name__}({list(map(list, self.rows))})"

    def to_json(self) -> dict:
        return {"shape": [len(r) for r in self.rows], "rows": [list(r) for r in self.rows]}


class ReverseTableau(_Tableau):
    """Rows weakly decreasing, columns strictly decreasing."""

    __slots__ = ()

    def shape(self) -> Partition:
        return Partition(len(r) for r in self.rows)


def is_reversetableau(t: ReverseTableau) -> bool:
    """Check the two defining conditions (rows weak, columns strict) on a
    partition diagram, which has no empty row; the constructor has made
    every entry a positive integer."""
    lengths = [len(r) for r in t.rows]
    if 0 in lengths or any(a < b for a, b in zip(lengths, lengths[1:])):
        return False
    for r in t.rows:
        if any(a < b for a, b in zip(r, r[1:])):
            return False
    return all(a > b for above, below in zip(t.rows, t.rows[1:]) for a, b in zip(above, below))


def _descents(t: _Tableau) -> frozenset[int]:
    """Values i such that i+1 is not strictly left of i (standard input)."""
    if not t.is_standard():
        raise ValueError("descent set requires a standard tableau")
    col = {v: j for row in t.rows for j, v in enumerate(row)}
    return frozenset(i for i in range(1, t.size) if not col[i + 1] < col[i])


# the column refill keeps every entry in its column, so a standard reverse
# tableau and its composition tableau have one descent set
rt_descents = comt_descents = _descents


def standardize(t: ReverseTableau) -> ReverseTableau:
    """Relabel with 1..n, breaking equal entries by reading order.

    Reading order is right to left within rows, top row first; the
    entry read first in its value class receives the smaller label.
    """
    cells = [
        (v, i, -j, (i, j))
        for i, row in enumerate(t.rows)
        for j, v in enumerate(row)
    ]
    cells.sort()
    labels = {cell: k + 1 for k, (_, _, _, cell) in enumerate(cells)}
    rows = [
        [labels[(i, j)] for j in range(len(row))] for i, row in enumerate(t.rows)
    ]
    return ReverseTableau(rows)


# -- composition tableaux ----------------------------------------------


class CompositionTableau(_Tableau):
    """Filling of a composition diagram by rows."""

    __slots__ = ()

    def __init__(self, rows: Iterable[Iterable[int]] = ()):
        super().__init__(rows)
        if not all(self.rows):  # an empty row is an empty tuple
            raise ValueError("composition tableau rows must be nonempty")

    def shape(self) -> Composition:
        return Composition(len(r) for r in self.rows)


def is_comt(t: CompositionTableau) -> bool:
    """Weakly decreasing rows, strict first column, triple condition; the
    constructor has made every entry a positive integer."""
    rows = t.rows
    if not rows:
        return True
    for r in rows:
        if any(a < b for a, b in zip(r, r[1:])):
            return False
    first = [r[0] for r in rows]
    if any(a >= b for a, b in zip(first, first[1:])):
        return False
    m = max(len(r) for r in rows)

    def padded(i: int, k: int) -> int:
        # 1-based row/column on the zero-padded rectangle
        row = rows[i - 1]
        return row[k - 1] if k <= len(row) else 0

    l = len(rows)
    for i in range(1, l + 1):
        for j in range(i + 1, l + 1):
            for k in range(2, m + 1):
                vjk = padded(j, k)
                if vjk != 0 and vjk >= padded(i, k) and vjk <= padded(i, k - 1):
                    return False
    return True


# -- correspondence with augmented fillings -----------------------------


def comt_to_ssaf(t: CompositionTableau, n: int | None = None) -> AugmentedFilling:
    """Place each row beside the basement entry matching its first entry."""
    if t.rows:
        tallest = max(r[0] for r in t.rows)
    else:
        tallest = 0
    n = tallest if n is None else _count(n)
    if n < tallest:
        raise ValueError(f"basement of {n} rows cannot hold first column {tallest}")
    rows: list[tuple[int, ...]] = [()] * n
    for r in t.rows:
        if rows[r[0] - 1]:
            raise ValueError("two rows share a first entry")
        rows[r[0] - 1] = r
    shape = WeakComposition(len(r) for r in rows)
    return AugmentedFilling(shape, rows, rule="id", nvars=n)


def ssaf_to_comt(f: AugmentedFilling) -> CompositionTableau:
    """Delete the basement and the empty rows."""
    return CompositionTableau([r for r in f.rows if r])


# -- the column-filling bijection with reverse tableaux ------------------


def rt_to_ssaf(t: ReverseTableau, n: int | None = None) -> AugmentedFilling:
    """Refill the columns of a reverse tableau against a basement.

    Entries of column k are taken top to bottom and placed in column k,
    each in the highest row whose previous column is filled and where
    the placement keeps the row weakly decreasing.  Column multisets
    are preserved.
    """
    n = max(t.entries(), default=0) if n is None else _count(n)
    rows = _refill(columns(t.rows), n)
    shape = WeakComposition(len(r) for r in rows)
    return AugmentedFilling(shape, rows, rule="id", nvars=n)


def _refill(cols: list[list[int]], n: int) -> list[list[int]]:
    """The column refill of :func:`rt_to_ssaf` on plain lists: ``cols[k]``
    lists column k top to bottom, and the n rows beside the basement
    1..n are returned."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for k, column in enumerate(cols):
        for v in column:
            # basement entry i + 1 admits a first entry v only when i + 1 >= v,
            # and a strictly decreasing first column leaves row v free
            for i in range(max(v - 1, 0) if k == 0 else 0, n):
                row = rows[i]
                if len(row) == k and v <= (i + 1 if k == 0 else row[k - 1]):
                    row.append(v)
                    break
            else:
                raise ValueError(f"no admissible row for entry {v} in column {k + 1}")
    return rows


def rt_to_comt(t: ReverseTableau) -> CompositionTableau:
    return ssaf_to_comt(rt_to_ssaf(t))


def columns(rows) -> list[list[int]]:
    """Column k lists, top to bottom, the k-th entries of the rows that
    reach column k."""
    width = max((len(r) for r in rows), default=0)
    return [[r[k] for r in rows if len(r) > k] for k in range(width)]


def top_justify(cols) -> ReverseTableau:
    """The tableau whose column k holds cols[k], pushed to the top."""
    return ReverseTableau(columns(cols))


def ssaf_to_rt(f: AugmentedFilling) -> ReverseTableau:
    """Sort each column decreasingly and top-justify."""
    return top_justify([sorted(c, reverse=True) for c in columns(f.rows)])


# -- enumeration ---------------------------------------------------------


def enumerate_comts(
    a: Iterable[int],
    max_entry: int,
    first_column: Iterable[int] | None = None,
) -> Iterator[CompositionTableau]:
    """All composition tableaux of shape ``a`` with entries in [max_entry].

    ``first_column`` pins the (strictly increasing) first-column values.
    Cells are filled column by column with incremental triple checks,
    so invalid prefixes are pruned early.
    """
    shape = Composition(a)
    max_entry = _count(max_entry, "entry bounds")
    if not shape:
        if max_entry >= 0:
            yield CompositionTableau()
        return
    l = len(shape)
    m = max(shape)
    # row i's first entry lies in [low[i], high[i]]: its pin, or [max_entry]
    low, high = ([1] * l, [max_entry] * l) if first_column is None else (sorted(first_column),) * 2
    if len(low) != l:
        return
    grid: list[list[int]] = [[0] * g for g in shape]

    def cell_value(i: int, k: int) -> int:
        # zero-padded access, 0-based indices
        return grid[i][k] if shape[i] > k else 0

    def fill(positions: list[tuple[int, int]], pos: int) -> Iterator[CompositionTableau]:
        if pos == len(positions):
            yield CompositionTableau([tuple(r) for r in grid])
            return
        i, k = positions[pos]
        if k == 0:
            lo = grid[i - 1][0] + 1 if i > 0 else 1
            candidates = range(max(lo, low[i]), min(max_entry, high[i]) + 1)
        else:
            candidates = range(1, grid[i][k - 1] + 1)
        for v in candidates:
            if k >= 1:
                # triple condition against every higher row; lower rows in
                # this column are not placed yet (column-major order), so
                # their checks run when they are placed
                ok = True
                for ii in range(i):
                    if v >= cell_value(ii, k) and v <= cell_value(ii, k - 1):
                        ok = False
                        break
                if not ok:
                    continue
            grid[i][k] = v
            yield from fill(positions, pos + 1)
        grid[i][k] = 0

    positions = [(i, k) for k in range(m) for i in range(l) if shape[i] > k]
    yield from fill(positions, 0)


def enumerate_standard_comts(a: Iterable[int]) -> Iterator[CompositionTableau]:
    """All composition tableaux of shape ``a`` using 1..n exactly once, in
    walk order: the column refill (:func:`_refill`) of the columns the
    walk of the S expansions places (:func:`_walked_columns`), held to
    shape ``a``, so no tableau of another shape is built.

    The walk runs in full before the first yield and holds the columns
    of every tableau of shape ``a`` (n + 1 ints each) until the last."""
    a = Composition(a)
    for cols in _walked_columns(a):
        yield CompositionTableau([r for r in _refill(cols, a.size) if r])


def enumerate_ssafs(g: Iterable[int]) -> Iterator[AugmentedFilling]:
    """All valid augmented fillings of the given weak shape."""
    g = WeakComposition(g)
    n = len(g)
    # the pinned first column puts each row beside its basement entry,
    # so every tableau has shape g; an empty shape has one empty tableau
    for t in enumerate_comts(collapse(g), n, first_column=foundation(g)):
        yield comt_to_ssaf(t, n=n)


def enumerate_reverse_tableaux(
    shape: Iterable[int], max_entry: int
) -> Iterator[ReverseTableau]:
    """All reverse tableaux of a partition shape with entries in [max_entry]."""
    shape = Partition(shape)
    max_entry = _count(max_entry, "entry bounds")
    rows: list[list[int]] = [[0] * g for g in shape]
    cells = [(i, j) for i, g in enumerate(shape) for j in range(g)]

    def fill(pos: int) -> Iterator[ReverseTableau]:
        if pos == len(cells):
            yield ReverseTableau([tuple(r) for r in rows])
            return
        i, j = cells[pos]
        hi = max_entry
        if j > 0:
            hi = min(hi, rows[i][j - 1])
        if i > 0:
            hi = min(hi, rows[i - 1][j] - 1)
        for v in range(hi, 0, -1):
            rows[i][j] = v
            yield from fill(pos + 1)
        rows[i][j] = 0

    yield from fill(0)


def enumerate_standard_reverse_tableaux(shape: Iterable[int]) -> Iterator[ReverseTableau]:
    """All reverse tableaux of a partition shape using 1..n exactly once:
    the walks held to each rearrangement of the shape in turn, largest
    first in the triangle order, each in walk order, with the columns
    the walk places (:func:`_walked_columns`) pushed to the top, as
    :func:`ssaf_to_rt` reads them back from the refill.

    Each rearrangement's walk runs in full before its first tableau is
    yielded and holds the columns of all its tableaux (n + 1 ints each)
    until its last."""
    for a in compositions_of_partition(Partition(shape)):
        for cols in _walked_columns(a):
            yield top_justify(cols)


def _walked_columns(shape: Composition) -> Iterator[list[list[int]]]:
    """The columns of every standard composition tableau of ``shape``, in
    walk order (:func:`_standard_walk`): column k lists, largest first,
    the entries the walk placed in column k."""
    walked: list[list[int]] = []
    _standard_walk(shape.size, shape, lambda lengths, mask, cols: walked.append(cols[:]))
    width = max(shape, default=0)
    for placed in walked:
        cols: list[list[int]] = [[] for _ in range(width)]
        for v in range(shape.size, 0, -1):
            cols[placed[v]].append(v)
        yield cols


def _standard_walk(n: int, shape: Iterable[int] | None,
                   leaf: Callable[[list[int], int, list[int]], object]) -> None:
    """Place n, n-1, ..., 1 in turn where the column refill of
    :func:`rt_to_ssaf` puts them, keeping only the row lengths, and call
    ``leaf(lengths, mask, cols)`` once per standard composition tableau
    of size n, or only per one of composition ``shape`` (of size n; None
    for all): its row lengths top to bottom, its descent mask, with bit
    i - 1 set when col(i+1) >= col(i), and ``cols[v]``, the column where
    v was placed.  Both lists are live: the walk changes them after the
    call.

    Every entry placed before v is larger, so v ends the highest row of
    length c, where c = 0 opens a new top row.  Column c admits v when
    c = 0 or some row has length c (``c in lengths``); c runs from the
    longest row down to 0, the row order of the standard reverse
    tableaux.  Rows are only ever inserted on top, so with a ``shape``
    the row at index r of k rows ends as row r + len(shape) - k: it
    grows past length c only if that final length exceeds c, and a new
    row opens only while there are fewer than len(shape) rows."""
    # with no shape, n rows of length n bind nothing
    final = (n,) * n if shape is None else tuple(shape)
    tall = len(final)
    lengths: list[int] = []
    cols = [0] * (n + 1)

    def place(v: int, above: int, mask: int, width: int) -> None:
        # above is the column of v + 1; width is the longest row's length
        offset = tall - len(lengths)  # row r ends as row r + offset
        for c in range(width, -1, -1):
            if c:
                if c not in lengths:
                    continue
                r = lengths.index(c)
                if final[r + offset] <= c:
                    continue
                lengths[r] = c + 1
            elif len(lengths) < tall:
                lengths.insert(0, 1)
            else:
                continue
            cols[v] = c
            m = mask | (1 << (v - 1)) if above >= c else mask
            if v == 1:  # every row is full
                leaf(lengths, m, cols)
            else:
                place(v - 1, c, m, width if c < width else c + 1)
            if c:
                lengths[r] = c
            else:
                del lengths[0]

    if n:
        place(n, -1, 0, 0)
    else:
        leaf(lengths, 0, cols)  # one empty tableau
