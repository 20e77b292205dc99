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
with general basements, and their specializations).  Each shape's
geometry is built once into a table over the diagram's positions, row
by row with each row's basement first; a filling keeps its entries by
position, and every statistic reads them through that table.

One placement walk places the entries of every non-attacking filling
cell by cell.  ``enumerate_fillings`` builds a filling at each of its
leaves; the filling sums instead count the packed statistics the walk
adds up as it places entries (``_counts``), and build no filling.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterator, NamedTuple

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

    __slots__ = ("shape", "rows", "rule", "nvars", "_vec")

    def __init__(self, shape, rows, rule: str = "id", nvars: int | None = None):
        self.shape = WeakComposition(shape)
        self.rows = tuple(tuple(map(int, r)) for r in rows)
        if len(self.rows) != len(self.shape):
            raise ValueError("row count does not match shape")
        for g, r in zip(self.shape, self.rows):
            if len(r) != g:
                raise ValueError(f"row {r} does not have length {g}")
        if rule not in BASEMENT_RULES:
            raise ValueError(f"unknown basement rule: {rule!r}")
        self.rule = rule
        self.nvars = len(self.shape) if nvars is None else int(nvars)
        entries = [v for r in self.rows for v in r]
        if entries and not (min(entries) >= 1 and max(entries) <= self.nvars):
            raise ValueError(f"an entry of {self.rows} is outside [1, {self.nvars}]")
        self._vec = None

    @classmethod
    def _trusted(cls, shape: WeakComposition, rows, rule: str, nvars: int, vec=None):
        """A filling from valid parts; ``vec`` holds its entries by
        position, or is None to build them on first read."""
        self = object.__new__(cls)
        self.shape, self.rows, self.rule, self.nvars, self._vec = shape, rows, rule, nvars, vec
        return self

    def _values(self) -> tuple[int, ...]:
        """Entries by diagram position, basement cells included."""
        if self._vec is None:
            n = self.n
            self._vec = tuple(
                v
                for i, row in enumerate(self.rows, start=1)
                for v in (basement_entry(self.rule, i, n, self.nvars), *row)
            )
        return self._vec

    @property
    def n(self) -> int:
        return len(self.shape)

    def entry(self, i: int, j: int) -> int:
        p = _diagram(self.shape).pos.get((i, j))
        if p is None:
            raise ValueError(f"cell {(i, j)} outside the augmented diagram of {tuple(self.shape)}")
        return self._values()[p]

    def cells(self) -> list[Cell]:
        return list(_diagram(self.shape).cells)

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


# -- the diagram table ---------------------------------------------------


class _Diagram(NamedTuple):
    pos: dict[Cell, int]  # every cell, basement included
    basements: tuple[int, ...]  # position of each row's basement cell
    cells: tuple[Cell, ...]  # the non-basement cells in row order
    cell_pos: tuple[int, ...]
    leg1: tuple[int, ...]  # leg+1 of each cell
    arm1: tuple[int, ...]  # arm+1 of each cell
    attacks: tuple[tuple[int, int], ...]
    triples: tuple[tuple[int, int, int], ...]
    rank: tuple[int, ...]  # tie-break rank of each position
    mates: tuple[tuple[int, ...], ...]  # per cell, the earlier positions it attacks
    closing: tuple[tuple[tuple[int, int, int], ...], ...]  # per cell, the triples it ends


@lru_cache(maxsize=1024)
def _diagram(shape: tuple[int, ...]) -> _Diagram:
    """The geometry of the augmented diagram of ``shape``, by position.

    Positions run over the rows in order, each row starting with its
    basement cell, so a cell's left neighbour is the position before it.
    """
    every = [(i, j) for i, g in enumerate(shape, start=1) for j in range(g + 1)]
    pos = {c: p for p, c in enumerate(every)}
    cells = tuple(c for c in every if c[1])
    cell_pos = tuple(pos[c] for c in cells)
    attacks = tuple((pos[a], pos[b]) for a, b in attack_pairs(shape))
    triple_pos = tuple((pos[a], pos[b], pos[c]) for a, b, c in triples(shape))
    # a basement cell is never the later one of an attacking pair nor the
    # last position of a triple, so each pair and triple is listed at a cell
    return _Diagram(
        pos=pos,
        basements=tuple(pos[(i, 0)] for i in range(1, len(shape) + 1)),
        cells=cells,
        cell_pos=cell_pos,
        leg1=tuple(leg(shape, c) + 1 for c in cells),
        arm1=tuple(arm(shape, c) + 1 for c in cells),
        attacks=attacks,
        triples=triple_pos,
        # reading order top to bottom, right to left breaks ties: the
        # entry read first counts as the smaller one
        rank=tuple(pos[(i, 0)] + shape[i - 1] - j for i, j in every),
        mates=tuple(tuple(min(a, b) for a, b in attacks if max(a, b) == p) for p in cell_pos),
        closing=tuple(tuple(t for t in triple_pos if max(t) == p) for p in cell_pos),
    )


# -- statistics --------------------------------------------------------


def is_non_attacking(f: AugmentedFilling) -> bool:
    v = f._values()
    return all(v[a] != v[b] for a, b in _diagram(f.shape).attacks)


def maj(f: AugmentedFilling) -> int:
    """Sum of leg+1 over the descent cells, the cells whose entry exceeds
    the entry immediately to the left."""
    d = _diagram(f.shape)
    v = f._values()
    return sum(l1 for p, l1 in zip(d.cell_pos, d.leg1) if v[p] > v[p - 1])


def is_inversion_triple(f: AugmentedFilling, a: Cell, b: Cell, c: Cell) -> bool:
    """Orientation test shared by both triple types.

    With the tie-break applied, the triple is an inversion exactly when
    at least two of a<c, c<b, b<a hold.
    """
    d = _diagram(f.shape)
    ka, kb, kc = (f.entry(*s) * len(d.rank) + d.rank[d.pos[s]] for s in (a, b, c))
    return (ka < kc) + (kc < kb) + (kb < ka) >= 2


def coinv(f: AugmentedFilling) -> int:
    """Number of triples that are not inversion triples."""
    d = _diagram(f.shape)
    # entry first, then tie-break rank, as one integer
    k = [v * len(d.rank) + r for v, r in zip(f._values(), d.rank)]
    return sum((k[a] < k[c]) + (k[c] < k[b]) + (k[b] < k[a]) < 2 for a, b, c in d.triples)


# -- the placement walk ------------------------------------------------


def _radices(d: _Diagram) -> tuple[int, int, int]:
    """How the walk packs a filling's tallies into one integer, lowest
    first: q^maj t^coinv as ``maj * span + coinv``, the repeat mask (cell
    k is bit k) in units of ``mask_w``, and the content, one digit to the
    base ``base`` per entry value.  ``span`` exceeds every t exponent of
    a weighed term, coinv plus the cell factors' (``macdonald._weigh``),
    so the low field is already the key of the term's q,t monomial.  Each
    unit exceeds the largest sum of the tallies below it."""
    span = len(d.triples) + len(d.cells) + sum(d.arm1) + 1
    return span, span * (sum(d.leg1) + 1), len(d.cells) + 1


def _walk(d: _Diagram, values: list[int], nv: int, descentless: bool) -> Iterator[int]:
    """Place the entries of every non-attacking filling with entries in
    [nv], cell by cell in position order, and yield once per filling while
    ``values``, which comes with the basement entries set, holds it.

    A filling's maj, coinv, repeat set and content are sums over its
    cells, so each placement adds its share to one packed integer
    (:func:`_radices`), and the filling's yield is that integer: leg+1
    when the entry exceeds its left neighbour, the cell's bit when it
    equals it, the entry's content digit, and one for each triple the
    cell ends that is not an inversion triple, scored with the
    ``entry * len(rank) + rank`` key of :func:`coinv`.  With
    ``descentless`` no entry exceeds its left neighbour.
    """
    free, rank, leg1, mates, closing = d.cell_pos, d.rank, d.leg1, d.mates, d.closing
    last = len(free) - 1
    span, mask_w, base = _radices(d)
    width = len(rank)
    keys = [v * width + r for v, r in zip(values, rank)]
    digit = [(mask_w << len(free)) * base ** (v - 1) for v in range(nv + 1)]

    def place(k: int, below: int) -> Iterator[int]:
        # below: the tallies of the cells before cell k
        p = free[k]
        left, r = values[p - 1], rank[p]
        descent, repeat = leg1[k] * span, mask_w << k
        banned = {values[m] for m in mates[k]}
        for v in range(1, (min(nv, left) if descentless else nv) + 1):
            if v in banned:
                continue
            values[p] = v
            keys[p] = v * width + r
            add = below + digit[v] + (descent if v > left else repeat if v == left else 0)
            for a, b, c in closing[k]:
                ka, kb, kc = keys[a], keys[b], keys[c]
                add += (ka < kc) + (kc < kb) + (kb < ka) < 2
            if k < last:
                yield from place(k + 1, add)
            else:
                yield add

    return place(0, 0) if free else iter((0,))


def _start(shape, rule: str, nvars: int | None) -> tuple[WeakComposition, int, _Diagram, list[int]]:
    """The shape, alphabet size, diagram and basement-preset entry
    vector of a walk."""
    shape = WeakComposition(shape)
    n = len(shape)
    nv = n if nvars is None else int(nvars)
    if rule not in BASEMENT_RULES:
        raise ValueError(f"unknown basement rule: {rule!r}")
    d = _diagram(shape)
    values = [0] * len(d.rank)
    for i, p in enumerate(d.basements, start=1):
        values[p] = basement_entry(rule, i, n, nv)
    return shape, nv, d, values


def enumerate_fillings(
    shape, rule: str = "id", nvars: int | None = None, descentless: bool = False
) -> Iterator[AugmentedFilling]:
    """All non-attacking fillings with entries in [nvars], in the order of
    the placement walk (:func:`_walk`), each built unchecked.

    With ``descentless=True`` only fillings whose rows weakly decrease
    (reading off the basement) are produced.
    """
    shape, nv, d, values = _start(shape, rule, nvars)
    spans = [(p + 1, p + 1 + g) for p, g in zip(d.basements, shape)]
    for _ in _walk(d, values, nv, descentless):
        vec = tuple(values)
        yield AugmentedFilling._trusted(shape, tuple(vec[a:b] for a, b in spans), rule, nv, vec)


def _counts(shape, rule: str, nvars: int | None = None, descentless: bool = False,
            keep=None) -> Counter:
    """The walk's fillings counted by their packed tallies
    (:func:`_radices`), with no filling built; with ``keep``, only those
    whose packed tallies it accepts."""
    _, nv, d, values = _start(shape, rule, nvars)
    leaves = _walk(d, values, nv, descentless)
    return Counter(leaves if keep is None else filter(keep, leaves))


def _group(fillings) -> Counter:
    """Fillings counted in the packed layout of :func:`_walk`, each
    tally taken from its per-filling definition: the cells repeating
    their left neighbour, ``exponents``, :func:`maj` and :func:`coinv`."""
    counts: Counter = Counter()
    for f in fillings:
        d = _diagram(f.shape)
        span, mask_w, base = _radices(d)
        v = f._values()
        mask = sum(1 << k for k, p in enumerate(d.cell_pos) if v[p] == v[p - 1])
        content = sum(e * base ** i for i, e in enumerate(f.exponents()))
        counts[((content << len(d.cells)) + mask) * mask_w + maj(f) * span + coinv(f)] += 1
    return counts


def is_ssaf_filling(f: AugmentedFilling) -> bool:
    """Non-attacking, descent-free, all triples inversion triples."""
    return f.rule == "id" and is_non_attacking(f) and maj(f) == 0 and coinv(f) == 0
