"""Compositions, weak compositions, partitions, and the orders on them.

Values are immutable tuples, so they hash and compare like plain tuples and
can index sparse coefficient maps directly.
"""
from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import Iterable, NamedTuple


def _integers(values: Iterable[int], what: str = "parts and entries") -> tuple[int, ...]:
    """``values`` as a tuple of ints, converted at C speed with
    ``operator.index``: 2.5 and "2" raise ValueError (an object that is
    not iterable still raises TypeError).  The one integer rule of
    compositions, of the rows of an augmented filling and of polynomial
    exponents; ``what`` names the values in the message."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} are integers: {values}") from None


def _count(n, what: str = "variable counts") -> int:
    """One integer ``n`` (a variable count, an entry bound or a
    coefficient) under the rule of :func:`_integers`: 2.0, 2.5 and "2"
    raise ValueError."""
    try:
        return operator.index(n)
    except TypeError:
        raise ValueError(f"{what} are integers: {n!r}") from None


class WeakComposition(tuple):
    """A finite sequence of nonnegative integers.

    Trailing zeros are significant: ``(1, 2, 0)`` and ``(1, 2)`` are
    different weak compositions (the number of parts is data).
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        parts = _integers(parts)
        if parts and min(parts) < 0:
            raise ValueError(f"negative part in weak composition: {parts}")
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({tuple(self)})"


class Composition(WeakComposition):
    """A finite sequence of strictly positive integers."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        self = super().__new__(cls, parts)
        if 0 in self:
            raise ValueError(f"zero part in composition: {tuple(self)}")
        return self


class Partition(Composition):
    """A weakly decreasing composition."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        self = super().__new__(cls, parts)
        for a, b in zip(self, self[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {tuple(self)}")
        return self


def collapse(g: Iterable[int]) -> Composition:
    """Drop all zero parts, preserving the order of the rest."""
    return Composition(p for p in g if p != 0)


def to_partition(g: Iterable[int]) -> Partition:
    """Sort the positive parts weakly decreasing."""
    return Partition(sorted((p for p in g if p != 0), reverse=True))


def foundation(g: Iterable[int]) -> frozenset[int]:
    """Positions (1-based) of the nonzero parts."""
    return frozenset(i + 1 for i, p in enumerate(g) if p != 0)


def content(values: Iterable[int]) -> WeakComposition:
    """Multiplicities of 1, 2, ..., max among positive integer values."""
    counts: dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    m = max(counts, default=0)
    return WeakComposition(counts.get(i, 0) for i in range(1, m + 1))


def reversal(a: Iterable[int]) -> Composition:
    return Composition(reversed(tuple(a)))


def subset_of(b: Iterable[int], n: int) -> frozenset[int]:
    """The partial-sum subset of [n-1] encoding a composition of n."""
    b, n = Composition(b), _count(n, "sizes")
    if b.size != n:
        raise ValueError(f"composition {tuple(b)} does not have size {n}")
    sums = itertools.accumulate(b[:-1])
    return frozenset(sums)


def composition_of(s: Iterable[int], n: int) -> Composition:
    """Inverse of :func:`subset_of`: successive differences padded to n."""
    elems = sorted(set(s))
    if any(e < 1 or e > n - 1 for e in elems):
        raise ValueError(f"subset {elems} not contained in [{n - 1}]")
    parts = []
    prev = 0
    for e in elems:
        parts.append(e - prev)
        prev = e
    if n:
        parts.append(n - prev)
    return Composition(parts)


def coarsens(a: Iterable[int], b: Iterable[int]) -> bool:
    """True iff ``a`` can be obtained by summing adjacent parts of ``b``."""
    a, b = Composition(a), Composition(b)
    return a.size == b.size and subset_of(a, a.size) <= subset_of(b, a.size)


def refinements(a: Iterable[int]) -> list[Composition]:
    """All compositions obtained by splitting parts of ``a``: one
    composition of each part, concatenated."""
    return [tuple.__new__(Composition, itertools.chain.from_iterable(pieces))
            for pieces in itertools.product(*(_degree(p).order for p in Composition(a)))]


def triangle_key(a: Iterable[int]) -> tuple:
    """Sort key whose descending order is the triangle order.

    Compositions of equal size are compared first by the lexicographic
    order of their sorted partitions, then lexicographically.
    """
    return _triangle(Composition(a))


def _triangle(parts: tuple[int, ...]) -> tuple:
    """:func:`triangle_key` of the parts of a valid composition."""
    return (tuple(sorted(parts, reverse=True)), tuple(parts))


def triangle_cmp(a: Iterable[int], b: Iterable[int]) -> int:
    """Return +1, 0, -1 as ``a`` is above, equal to, or below ``b``."""
    a, b = Composition(a), Composition(b)
    if a.size != b.size:
        raise ValueError("triangle order only compares compositions of equal size")
    ka, kb = _triangle(a), _triangle(b)
    if ka > kb:
        return 1
    if ka < kb:
        return -1
    return 0


def enumerate_compositions(n: int) -> list[Composition]:
    """All 2^(n-1) compositions of n, largest first in the triangle order.

    Each degree is built and sorted once per process (:func:`_degree`);
    every call returns a fresh list."""
    return list(_degree(_count(n, "sizes")).order)


class _Degree(NamedTuple):
    """The compositions of one n: ``order`` lists them largest first in
    the triangle order, ``position`` maps each to its place there, and
    ``by_mask[m]`` is the place of the one whose cut set is the bits of
    m (bit i - 1 for the partial sum i)."""

    order: tuple[Composition, ...]
    position: dict[Composition, int]
    by_mask: tuple[int, ...]


@lru_cache(maxsize=None)
def _degree(n: int) -> _Degree:
    if n < 0:
        raise ValueError("n must be nonnegative")
    # plain (parts, cut mask) pairs: those of k + 1 are those of k with a
    # new last part 1 (a new cut at k) or with the last part grown
    level = [((1,), 0)] if n else [((), 0)]
    for k in range(1, n):
        level = [pair for parts, m in level
                 for pair in ((parts + (1,), m | 1 << (k - 1)), (parts[:-1] + (parts[-1] + 1,), m))]
    # sorted once by the triangle key; each composition is then wrapped
    # once, unchecked, as every one is valid by construction
    rows = sorted(((_triangle(parts), m) for parts, m in level), reverse=True)
    order = tuple(tuple.__new__(Composition, parts) for (_, parts), _ in rows)
    by_mask = [0] * len(rows)
    for j, (_, m) in enumerate(rows):
        by_mask[m] = j
    return _Degree(order, {c: j for j, c in enumerate(order)}, tuple(by_mask))


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n, lexicographically decreasing.

    Each n is enumerated once per process; every call returns a fresh
    list."""
    return list(_partitions(_count(n, "sizes")))


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple[Partition, ...]:
    out: list[Partition] = []

    def rec(rest: int, largest: int, cur: list[int]):
        if rest == 0:
            out.append(Partition(cur))
            return
        for p in range(min(rest, largest), 0, -1):
            cur.append(p)
            rec(rest - p, p, cur)
            cur.pop()

    rec(n, n, [])
    return tuple(out)


def enumerate_weak_compositions(total: int, parts: int) -> list[WeakComposition]:
    """All weak compositions of ``total`` with exactly ``parts`` parts,
    lexicographically increasing: the placements (:func:`expand_to_weak`)
    of the compositions of ``total`` with at most ``parts`` parts, read
    off their cut sets (:func:`composition_of`) with no degree table."""
    total, parts = _count(total, "sizes"), _count(parts, "part counts")
    cut_counts = range(parts if total else 1) if total >= 0 else ()
    return sorted(w for k in cut_counts for s in itertools.combinations(range(1, total), k)
                  for w in expand_to_weak(composition_of(s, total), parts))


def compositions_of_partition(l: Iterable[int]) -> list[Composition]:
    """All distinct rearrangements of the parts of ``l``, largest first in
    the triangle order, which among rearrangements of one partition is
    the lexicographic order: each part is inserted at every place of the
    rearrangements of the parts before it."""
    words = {()}
    for p in to_partition(l):
        words = {w[:i] + (p,) + w[i:] for w in words for i in range(len(w) + 1)}
    return [tuple.__new__(Composition, w) for w in sorted(words, reverse=True)]


def expand_to_weak(a: Iterable[int], n: int) -> list[WeakComposition]:
    """All weak compositions with n parts that collapse to ``a``, in the
    order of their nonzero positions: the input is checked once and each
    placement is built unchecked."""
    a, n = Composition(a), _count(n, "part counts")
    if n < len(a):
        raise ValueError(f"cannot place {len(a)} parts into {n} slots")
    out = []
    for positions in itertools.combinations(range(n), len(a)):
        parts = [0] * n
        for pos, val in zip(positions, a):
            parts[pos] = val
        out.append(tuple.__new__(WeakComposition, parts))
    return out


def quasi_shuffles(x: Iterable[int], y: Iterable[int]) -> dict[Composition, int]:
    """The quasi-shuffles of ``x`` and ``y`` with their multiplicities.

    Each step takes the next part of ``x``, the next part of ``y``, or
    their sum, so M_x * M_y is the sum of k * M_z over the returned
    ``{z: k}``.
    """
    counts = _quasi_shuffles(Composition(x), Composition(y))
    return {Composition(z): k for z, k in counts.items()}


def _quasi_shuffles(x: tuple[int, ...], y: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """:func:`quasi_shuffles` of two valid compositions, keyed by plain
    tuples (equal and hashing equal to the compositions they spell)."""
    counts: dict[tuple[int, ...], int] = {}

    def rec(i: int, j: int, prefix: tuple[int, ...]):
        if i == len(x) or j == len(y):
            z = prefix + x[i:] + y[j:]
            counts[z] = counts.get(z, 0) + 1
            return
        rec(i + 1, j, prefix + (x[i],))
        rec(i, j + 1, prefix + (y[j],))
        rec(i + 1, j + 1, prefix + (x[i] + y[j],))

    rec(0, 0, ())
    return counts


def _parse_parts(text: str, kind: str) -> list[int]:
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    body = body.strip().rstrip(",")
    if not body:
        return []
    try:
        return [int(tok) for tok in body.split(",")]
    except ValueError:
        raise ValueError(f"malformed {kind}: {text!r}") from None


def parse_composition(text: str) -> Composition:
    """Parse ``"(1,2,3)"`` or ``"1,2,3"`` (empty composition: ``"()"``)."""
    return Composition(_parse_parts(text, "composition"))


def parse_weak_composition(text: str) -> WeakComposition:
    """Like :func:`parse_composition` but zero parts are allowed."""
    return WeakComposition(_parse_parts(text, "weak composition"))


def format_composition(a: Iterable[int]) -> str:
    return "(" + ",".join(str(p) for p in a) + ")"
