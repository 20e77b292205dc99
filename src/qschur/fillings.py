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
cell by cell, one plain recursion that calls a leaf once per filling
with the packed statistics it added up as it placed the entries.
``enumerate_fillings`` keeps each filling's entry vector at its leaf
and builds the fillings after the walk; the filling sums instead count
the packed statistics in a dict (``_counts``), build no filling, and
weigh the counts into terms in one pass (``_weigh``): a count's packed
key holds its content, its repeat mask and its q,t monomial, and the
cell factors are built from the mask, once per mask.  The walk can be
given a content, a budget of uses per entry value, and then visits
only the fillings of that content.  ``_terms`` is the one entry point:
no other module reads the packed layout.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

from .compositions import WeakComposition, _count, _integers, content
from .polynomial import QtPoly

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
        self.rows = tuple(map(_integers, rows))
        if len(self.rows) != len(self.shape):
            raise ValueError("row count does not match shape")
        for g, r in zip(self.shape, self.rows):
            if len(r) != g:
                raise ValueError(f"row {r} does not have length {g}")
        if rule not in BASEMENT_RULES:
            raise ValueError(f"unknown basement rule: {rule!r}")
        self.rule = rule
        self.nvars = len(self.shape) if nvars is None else _count(nvars)
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
        p = _diagram(self.shape).pos.get(_integers((i, j), "cell coordinates"))
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
    shape = _integers(shape)
    i, j = _integers(cell, "cell coordinates")
    if not (1 <= i <= len(shape) and 1 <= j <= shape[i - 1]):
        raise ValueError(f"cell {cell} outside shape {shape}")
    return shape[i - 1] - j


def arm(shape, cell: Cell) -> int:
    """Two-part arm statistic of a cell in an augmented diagram.

    Counts cells below in the same column whose row is not longer, plus
    cells of the augmented diagram (basement included) in the column
    immediately left, above, in a strictly shorter row.
    """
    shape = _integers(shape)
    i, j = _integers(cell, "cell coordinates")
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
    rank: tuple[int, ...]  # tie-break rank of each position
    mates: tuple[tuple[int, ...], ...]  # per cell, the earlier positions it attacks
    closing: tuple[tuple[tuple[int, int, int], ...], ...]  # per cell, the triples it ends
    # How the walk packs a filling's tallies into one integer, lowest
    # first: q^maj t^coinv as ``maj * span + coinv``, the repeat mask (cell
    # k is bit k) in units of ``mask_w``, and the content, one digit to the
    # base ``base`` per entry value.  ``span`` exceeds every t exponent of
    # a weighed term, coinv plus the cell factors' (:func:`_weigh`), so the
    # low field is already the key of the term's q,t monomial.  Each unit
    # exceeds the largest sum of the tallies below it.
    span: int
    mask_w: int
    base: int


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
    leg1 = tuple(leg(shape, c) + 1 for c in cells)
    arm1 = tuple(arm(shape, c) + 1 for c in cells)
    span = len(triple_pos) + len(cells) + sum(arm1) + 1
    # a basement cell is never the later one of an attacking pair nor the
    # last position of a triple, so each pair and triple is listed at a cell
    return _Diagram(
        pos=pos,
        basements=tuple(pos[(i, 0)] for i in range(1, len(shape) + 1)),
        cells=cells,
        cell_pos=cell_pos,
        leg1=leg1,
        arm1=arm1,
        # reading order top to bottom, right to left breaks ties: the
        # entry read first counts as the smaller one
        rank=tuple(pos[(i, 0)] + shape[i - 1] - j for i, j in every),
        mates=tuple(tuple(min(a, b) for a, b in attacks if max(a, b) == p) for p in cell_pos),
        closing=tuple(tuple(t for t in triple_pos if max(t) == p) for p in cell_pos),
        span=span,
        mask_w=span * (sum(leg1) + 1),
        base=len(cells) + 1,
    )


# -- statistics --------------------------------------------------------


def is_non_attacking(f: AugmentedFilling) -> bool:
    d = _diagram(f.shape)
    v = f._values()
    return all(v[p] != v[m] for p, mates in zip(d.cell_pos, d.mates) for m in mates)


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
    return sum((k[a] < k[c]) + (k[c] < k[b]) + (k[b] < k[a]) < 2
               for ends in d.closing for a, b, c in ends)


# -- the placement walk ------------------------------------------------


def _walk(d: _Diagram, values: list[int], nv: int, descentless: bool,
          leaf: Callable[[int], object], budget: list[int] | None = None) -> None:
    """Place the entries of every non-attacking filling with entries in
    [nv], cell by cell in position order, and call ``leaf(packed)`` once
    per filling while ``values``, which comes with the basement entries
    set, holds it.

    A filling's maj, coinv, repeat set and content are sums over its
    cells, so each placement adds its share to one packed integer (laid
    out as the ``_Diagram`` fields say), and the leaf is passed that
    integer: leg+1 when the entry exceeds its left neighbour, the cell's
    bit when it equals it, the entry's content digit, and one for each
    triple the cell ends that is not an inversion triple, scored with the
    ``entry * len(rank) + rank`` key of :func:`coinv`.  With
    ``descentless`` no entry exceeds its left neighbour.

    ``budget[v]`` is how many more cells may take the value v: a value
    whose budget is spent is skipped, and a placement gives its use back
    when the walk backtracks past it.  Without a budget no use is
    counted.
    """
    free, rank, leg1, mates, closing = d.cell_pos, d.rank, d.leg1, d.mates, d.closing
    last = len(free) - 1
    span, mask_w = d.span, d.mask_w
    width = len(rank)
    keys = [v * width + r for v, r in zip(values, rank)]
    # the content digit of each entry value; entries start at 1
    digit = [0, *((mask_w << len(free)) * d.base ** i for i in range(nv))]

    def place(k: int, below: int) -> None:
        # below: the tallies of the cells before cell k
        p = free[k]
        left, r = values[p - 1], rank[p]
        descent, repeat = leg1[k] * span, mask_w << k
        banned = {values[m] for m in mates[k]}
        ends = closing[k]
        for v in range(1, (min(nv, left) if descentless else nv) + 1):
            if v in banned or budget and not budget[v]:
                continue
            values[p] = v
            keys[p] = v * width + r
            add = below + digit[v] + (descent if v > left else repeat if v == left else 0)
            for a, b, c in ends:
                ka, kb, kc = keys[a], keys[b], keys[c]
                add += (ka < kc) + (kc < kb) + (kb < ka) < 2
            if k == last:
                leaf(add)
            elif budget:
                budget[v] -= 1
                place(k + 1, add)
                budget[v] += 1
            else:
                place(k + 1, add)

    if free:
        place(0, 0)
    else:
        leaf(0)


def _start(shape, rule: str, nvars: int | None) -> tuple[WeakComposition, int, _Diagram, list[int]]:
    """The shape, alphabet size, diagram and basement-preset entry
    vector of a walk."""
    shape = WeakComposition(shape)
    n = len(shape)
    nv = n if nvars is None else _count(nvars)
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
    (reading off the basement) are produced.  The walk runs to its end
    and keeps each filling's entry vector before the first filling is
    built, so the first item costs the whole walk: for (2,2,2,1) with a
    constant basement in 6 variables, 23,040 fillings, the first item
    took about 60 ms instead of 0.4 ms and peak memory grew from 16 to
    19 MB, while all of them took about 8% less time (2 vCPUs, Python
    3.11).
    """
    shape, nv, d, values = _start(shape, rule, nvars)
    spans = [(p + 1, p + 1 + g) for p, g in zip(d.basements, shape)]
    walked: list[tuple[int, ...]] = []
    _walk(d, values, nv, descentless, lambda _: walked.append(tuple(values)))
    for vec in walked:
        yield AugmentedFilling._trusted(shape, tuple(vec[a:b] for a, b in spans), rule, nv, vec)


def _counts(d: _Diagram, values: list[int], nv: int, descentless: bool, contents) -> dict:
    """The fillings of a started walk (:func:`_start`) counted by their
    packed tallies (the ``_Diagram`` layout), with no filling built: the
    walk's leaf adds one to the count of its key.

    With ``contents`` the walk runs once per content, with that content
    as its budget (:func:`_walk`): the value v fills at most
    ``content[v-1]`` cells, so a content that sums to the number of
    cells keeps exactly the fillings of that content.  The packed
    content field keeps the walks apart, so one dict counts them all."""
    counts: dict = {}

    def leaf(key: int) -> None:
        counts[key] = counts.get(key, 0) + 1

    if contents is None:
        _walk(d, values, nv, descentless, leaf)
    else:
        for c in contents:
            _walk(d, values, nv, descentless, leaf, [0, *c, *[0] * (nv - len(c))])
    return counts


# -- the weight ----------------------------------------------------------


def _one_minus_t_power(k: int) -> dict:
    """(1 - t)^k, a signed binomial row keyed by t exponent: with no q
    term that is also its packed key ``q_exp * span + t_exp``."""
    return {j: (-1) ** j * math.comb(k, j) for j in range(k + 1)}


def _cell_factors(d: _Diagram, mask: int) -> dict:
    """Product over the cells of (1 - q^(leg+1) t^(arm+1)) for cell k
    when bit k of ``mask`` is set (it repeats its left neighbour) and
    (1 - t) otherwise, as an integer dict keyed by ``q_exp * span +
    t_exp``, the packed key of the walk's low field."""
    span = d.span
    w = _one_minus_t_power(len(d.cells) - mask.bit_count())
    for k, (l1, a1) in enumerate(zip(d.leg1, d.arm1)):
        if mask >> k & 1:
            step = l1 * span + a1
            shifted = dict(w)
            for key, c in w.items():
                shifted[key + step] = shifted.get(key + step, 0) - c
            w = shifted
    return w


def _weigh(d: _Diagram, counts, nv: int, descentless: bool = False) -> list:
    """The ``(exponents, coefficient)`` terms of a filling sum in ``nv``
    variables, from its fillings' counts in the walk's packed layout
    (:func:`_counts`): x^exponents q^maj t^coinv times the cell factors
    of the repeat set.

    One pass splits each count's key into its content, repeat mask and
    low field.  The factors depend on the mask alone, so each mask
    builds them the first time it appears and reuses them after.  A
    descentless sum is taken at q = 0, where every repeat factor is 1,
    so its factor is (1 - t) per cell that is not a repeat.  A count's
    low field and the factors' keys are both packed as ``q_exp * span +
    t_exp``, so a product term's key is their sum: counts times factor
    terms are added straight into one integer dict per content, which
    is read as an exponent vector and wrapped as a ``QtPoly`` once at
    the end, its keys split and its zero coefficients dropped.
    """
    span, mask_w, base = d.span, d.mask_w, d.base
    cells = len(d.cells)
    factors: dict = {}
    sums: dict = {}
    for packed, count in counts.items():
        high, low = divmod(packed, mask_w)
        content, mask = divmod(high, 1 << cells)
        factor = factors.get(mask)
        if factor is None:
            factor = factors[mask] = (
                _one_minus_t_power(cells - mask.bit_count()) if descentless
                else _cell_factors(d, mask)
            )
        acc = sums.setdefault(content, {})
        for shift, v in factor.items():
            key = low + shift
            acc[key] = acc.get(key, 0) + count * v
    return [
        (tuple(content // base ** i % base for i in range(nv)), QtPoly._packed(acc, span))
        for content, acc in sums.items()
    ]


def _terms(shape, rule: str, nvars: int | None = None, descentless: bool = False,
           contents=None) -> list:
    """The weighed ``(exponents, coefficient)`` terms of the filling sum
    in ``nvars`` variables: the walk's counts (:func:`_counts`, with
    ``contents`` as its budgets) weighed as one sum (:func:`_weigh`)."""
    _, nv, d, values = _start(shape, rule, nvars)
    return _weigh(d, _counts(d, values, nv, descentless, contents), nv, descentless)


def is_ssaf_filling(f: AugmentedFilling) -> bool:
    """Non-attacking, descent-free, all triples inversion triples."""
    return f.rule == "id" and is_non_attacking(f) and maj(f) == 0 and coinv(f) == 0
