"""Augmented diagrams and their fillings.

An augmented diagram for a weak composition ``shape`` with n parts has
``shape[i-1]`` cells in row i (1-based) plus a fixed basement cell in
column 0 of every row.  The basement entries are set by a rule:

* ``"id"``    -- row i holds i,
* ``"rev"``   -- row i holds n - i + 1,
* ``"const"`` -- every row holds nvars + 1.

The attack relation, triple types, the inversion test with its
tie-break, and the arm/leg cell statistics are shared by every
consumer (validity of augmented fillings, the combinatorial formulas
with general basements, and their specializations).
"""
from __future__ import annotations

from typing import Iterator

from .compositions import WeakComposition, content

Cell = tuple[int, int]  # (row, column), 1-based; column 0 is the basement

BASEMENT_RULES = ("id", "rev", "const")


def basement_entry(rule: str, i: int, n: int, nvars: int) -> int:
    if rule == "id":
        return i
    if rule == "rev":
        return n - i + 1
    if rule == "const":
        return nvars + 1
    raise ValueError(f"unknown basement rule: {rule!r}")


class AugmentedFilling:
    """A filling of an augmented diagram.

    ``rows[i-1]`` lists the entries of row i left to right, excluding
    the basement.  ``nvars`` is the size of the entry alphabet [nvars];
    it defaults to the number of rows.
    """

    __slots__ = ("shape", "rows", "rule", "nvars")

    def __init__(self, shape, rows, rule: str = "id", nvars: int | None = None):
        self.shape = WeakComposition(shape)
        self.rows = tuple(tuple(int(v) for v in r) for r in rows)
        if len(self.rows) != len(self.shape):
            raise ValueError("row count does not match shape")
        for g, r in zip(self.shape, self.rows):
            if len(r) != g:
                raise ValueError(f"row {r} does not have length {g}")
        if rule not in BASEMENT_RULES:
            raise ValueError(f"unknown basement rule: {rule!r}")
        self.rule = rule
        self.nvars = len(self.shape) if nvars is None else int(nvars)

    @property
    def n(self) -> int:
        return len(self.shape)

    def entry(self, i: int, j: int) -> int:
        if j == 0:
            return basement_entry(self.rule, i, self.n, self.nvars)
        return self.rows[i - 1][j - 1]

    def cells(self) -> list[Cell]:
        return [(i, j) for i in range(1, self.n + 1) for j in range(1, self.shape[i - 1] + 1)]

    def weight(self) -> WeakComposition:
        """Entry multiplicities (basement excluded), up to the largest entry."""
        return content(v for row in self.rows for v in row)

    def exponents(self) -> tuple[int, ...]:
        """Entry multiplicities padded to nvars slots."""
        counts = [0] * self.nvars
        for row in self.rows:
            for v in row:
                counts[v - 1] += 1
        return tuple(counts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AugmentedFilling):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.rows == other.rows
            and self.rule == other.rule
            and self.nvars == other.nvars
        )

    def __hash__(self):
        return hash((self.shape, self.rows, self.rule, self.nvars))

    def __str__(self) -> str:
        lines = []
        for i in range(1, self.n + 1):
            b = self.entry(i, 0)
            body = " ".join(str(v) for v in self.rows[i - 1])
            lines.append(f"{b}|" + (f" {body}" if body else ""))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"AugmentedFilling({tuple(self.shape)}, {self.rows}, rule={self.rule!r})"


# -- cell statistics --------------------------------------------------


def leg(shape, cell: Cell) -> int:
    """Number of cells in the same row strictly right of the cell."""
    shape = tuple(shape)
    i, j = cell
    if not (1 <= i <= len(shape) and 1 <= j <= shape[i - 1]):
        raise ValueError(f"cell {cell} outside shape {shape}")
    return shape[i - 1] - j


def arm(shape, cell: Cell) -> int:
    """Two-part arm statistic of a cell in an augmented diagram.

    Counts cells below in the same column whose row is not longer, plus
    cells of the augmented diagram (basement included) in the column
    immediately left, above, in a strictly shorter row.
    """
    shape = tuple(shape)
    i, j = cell
    if not (1 <= i <= len(shape) and 1 <= j <= shape[i - 1]):
        raise ValueError(f"cell {cell} outside shape {shape}")
    below = sum(
        1
        for ii in range(i + 1, len(shape) + 1)
        if shape[ii - 1] >= j and shape[ii - 1] <= shape[i - 1]
    )
    above = sum(
        1
        for ii in range(1, i)
        if (j - 1 == 0 or shape[ii - 1] >= j - 1) and shape[ii - 1] < shape[i - 1]
    )
    return below + above


# -- attack relation ---------------------------------------------------


def attack_pairs(shape) -> list[tuple[Cell, Cell]]:
    """All attacking pairs involving at least one non-basement cell.

    Two cells attack when they share a column, or when they sit in
    adjacent columns with the right one strictly lower.  Pairs of two
    basement cells are not constrained (the basement is fixed data).
    """
    shape = tuple(shape)
    n = len(shape)
    pairs: list[tuple[Cell, Cell]] = []
    for i in range(1, n + 1):
        for j in range(1, shape[i - 1] + 1):
            # same column, lower rows
            for ii in range(i + 1, n + 1):
                if shape[ii - 1] >= j:
                    pairs.append(((i, j), (ii, j)))
            # this cell attacks cells one column left in higher rows
            for ii in range(1, i):
                if j - 1 == 0 or shape[ii - 1] >= j - 1:
                    pairs.append(((i, j), (ii, j - 1)))
    return pairs


def is_non_attacking(f: AugmentedFilling) -> bool:
    for a, b in attack_pairs(f.shape):
        if f.entry(*a) == f.entry(*b):
            return False
    return True


# -- descents ----------------------------------------------------------


def descent_cells(f: AugmentedFilling) -> list[Cell]:
    """Cells whose entry exceeds the entry immediately to the left."""
    return [(i, j) for (i, j) in f.cells() if f.entry(i, j) > f.entry(i, j - 1)]


def maj(f: AugmentedFilling) -> int:
    """Sum of leg+1 over the descent cells."""
    return sum(leg(f.shape, s) + 1 for s in descent_cells(f))


# -- triples -----------------------------------------------------------


def triples(shape) -> list[tuple[Cell, Cell, Cell]]:
    """All type A and type B triples ``(a, b, c)`` of the diagram.

    ``a`` sits above ``b`` in one column; ``c`` is next to ``a`` (type A,
    immediately left, rows satisfying len(a-row) >= len(b-row)) or next
    to ``b`` (type B, immediately right, len(b-row) > len(a-row)).
    Exactly one basement cell may participate.
    """
    shape = tuple(shape)
    n = len(shape)
    out: list[tuple[Cell, Cell, Cell]] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            gi, gj = shape[i - 1], shape[j - 1]
            if gi >= gj:
                for k in range(1, min(gi, gj) + 1):
                    out.append(((i, k), (j, k), (i, k - 1)))
            else:
                # k = 0 would put two basement cells in one triple
                for k in range(1, min(gi, gj - 1) + 1):
                    out.append(((i, k), (j, k), (j, k + 1)))
    return out


def _tie_key(f: AugmentedFilling, cell: Cell) -> tuple[int, int, int]:
    # reading order top to bottom, right to left breaks ties: the entry
    # read first counts as the smaller one
    i, j = cell
    return (f.entry(i, j), i, -j)


def is_inversion_triple(f: AugmentedFilling, a: Cell, b: Cell, c: Cell) -> bool:
    """Orientation test shared by both triple types.

    With the tie-break applied, the triple is an inversion exactly when
    at least two of a<c, c<b, b<a hold.
    """
    ka, kb, kc = _tie_key(f, a), _tie_key(f, b), _tie_key(f, c)
    count = (ka < kc) + (kc < kb) + (kb < ka)
    return count >= 2


def coinv(f: AugmentedFilling) -> int:
    """Number of triples that are not inversion triples."""
    return sum(
        0 if is_inversion_triple(f, a, b, c) else 1 for a, b, c in triples(f.shape)
    )


# -- enumeration -------------------------------------------------------


def enumerate_fillings(
    shape, rule: str = "id", nvars: int | None = None, descentless: bool = False
) -> Iterator[AugmentedFilling]:
    """All non-attacking fillings with entries in [nvars].

    With ``descentless=True`` only fillings whose rows weakly decrease
    (reading off the basement) are produced.
    """
    shape = WeakComposition(shape)
    n = len(shape)
    nv = n if nvars is None else int(nvars)
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, shape[i - 1] + 1)]
    order = {c: idx for idx, c in enumerate(cells)}

    # per cell: earlier cells it must differ from, and basement values to avoid
    mates: list[list[int]] = [[] for _ in cells]
    fixed: list[set[int]] = [set() for _ in cells]
    for a, b in attack_pairs(shape):
        if b[1] == 0:
            fixed[order[a]].add(basement_entry(rule, b[0], n, nv))
            continue
        ia, ib = order[a], order[b]
        if ia < ib:
            mates[ib].append(ia)
        else:
            mates[ia].append(ib)

    values: list[int] = [0] * len(cells)

    def rec(pos: int) -> Iterator[AugmentedFilling]:
        if pos == len(cells):
            rows = []
            it = iter(values)
            for g in shape:
                rows.append(tuple(next(it) for _ in range(g)))
            yield AugmentedFilling(shape, rows, rule=rule, nvars=nv)
            return
        i, j = cells[pos]
        if descentless:
            left = (
                basement_entry(rule, i, n, nv) if j == 1 else values[order[(i, j - 1)]]
            )
            top = min(nv, left)
        else:
            top = nv
        banned = fixed[pos]
        for v in range(1, top + 1):
            if v in banned:
                continue
            if any(values[m] == v for m in mates[pos]):
                continue
            values[pos] = v
            yield from rec(pos + 1)
        values[pos] = 0

    yield from rec(0)


def is_ssaf_filling(f: AugmentedFilling) -> bool:
    """Non-attacking, descent-free, all triples inversion triples."""
    if f.rule != "id":
        return False
    if not is_non_attacking(f):
        return False
    if descent_cells(f):
        return False
    return all(is_inversion_triple(f, a, b, c) for a, b, c in triples(f.shape))
