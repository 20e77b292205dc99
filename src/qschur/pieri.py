"""Row and column multiplication rules for the quasisymmetric Schur basis.

``rem`` subtracts one from the rightmost part of a given size, or
signals failure; ``row_op``/``col_op`` chain it over a set (largest
first) or a multiset (smallest first).  The Pieri expansions sum over
compositions whose sorted shape grows by a horizontal or vertical
strip and which contract back under the matching operator.  Failure of
``rem`` is ``None``, distinct from the empty composition, which is a
legitimate result of removing the last cell.
"""
from __future__ import annotations

from typing import Iterable

from .compositions import (
    Composition,
    Partition,
    compositions_of_partition,
    to_partition,
)
from .qsym import (
    QSymExpr,
    express_in_qschur,
    qschur_polynomial,
    qsym_unit,
    xpoly_to_monomial,
)


def rem(a, s: int) -> Composition | None:
    """Subtract 1 from the rightmost part equal to s, or return None."""
    a = Composition(a)
    if s < 1:
        raise ValueError("part size must be positive")
    for i in range(len(a) - 1, -1, -1):
        if a[i] == s:
            parts = list(a)
            parts[i] = s - 1
            return Composition(p for p in parts if p)
    return None


def row_op(a, s: Iterable[int]) -> Composition | None:
    """Apply rem for each element of the set, largest first."""
    cur = Composition(a)
    for v in sorted(set(s), reverse=True):
        cur = rem(cur, v)
        if cur is None:
            return None
    return cur


def col_op(a, ms: Iterable[int]) -> Composition | None:
    """Apply rem for each element of the multiset, smallest first."""
    cur = Composition(a)
    for v in sorted(ms):
        cur = rem(cur, v)
        if cur is None:
            return None
    return cur


# -- strip generation -------------------------------------------------------


def horizontal_strips_over(lam, n: int) -> list[Partition]:
    """Partitions obtained from ``lam`` by adding an n-cell horizontal strip."""
    lam = Partition(lam)
    out = []
    rows = len(lam) + 1
    padded = tuple(lam) + (0,)

    def rec(i: int, remaining: int, cur: list[int]):
        if i == rows:
            if remaining == 0:
                out.append(Partition(p for p in cur if p))
            return
        lo = padded[i]
        hi = padded[i - 1] if i > 0 else padded[i] + remaining
        hi = min(hi, padded[i] + remaining)
        for v in range(lo, hi + 1):
            cur.append(v)
            rec(i + 1, remaining - (v - lo), cur)
            cur.pop()

    rec(0, n, [])
    return out


def vertical_strips_over(lam, n: int) -> list[Partition]:
    """Partitions obtained from ``lam`` by adding an n-cell vertical strip."""
    lam = Partition(lam)
    out = []
    rows = len(lam) + n
    padded = tuple(lam) + (0,) * n

    def rec(i: int, remaining: int, cur: list[int]):
        if remaining == 0:
            cand = list(cur) + list(padded[i:rows])
            if all(a >= b for a, b in zip(cand, cand[1:])):
                out.append(Partition(p for p in cand if p))
            return
        if i == rows:
            return
        for add in (0, 1):
            v = padded[i] + add
            if cur and v > cur[-1]:
                continue
            cur.append(v)
            rec(i + 1, remaining - add, cur)
            cur.pop()

    # the recursion stops as soon as the strip is placed, so no partition
    # is reached twice
    rec(0, n, [])
    return out


def strip_column_set(mu, lam) -> frozenset[int]:
    """Columns (1-based) occupied by the cells of mu/lam."""
    return frozenset(strip_column_multiset(mu, lam))


def strip_column_multiset(mu, lam) -> tuple[int, ...]:
    """Columns of mu/lam with multiplicity, sorted."""
    mu, lam = Partition(mu), Partition(lam)
    padded = tuple(lam) + (0,) * (len(mu) - len(lam))
    cols = []
    for m, l in zip(mu, padded):
        cols.extend(range(l + 1, m + 1))
    return tuple(sorted(cols))


# -- Pieri expansions --------------------------------------------------------


def pieri_row(a, n: int) -> QSymExpr:
    """Expansion of (single row of size n) times the S element of ``a``."""
    a = Composition(a)
    if n < 1:
        raise ValueError("n must be positive")
    lam = to_partition(a)
    terms = {}
    for mu in horizontal_strips_over(lam, n):
        cols = strip_column_set(mu, lam)
        for b in compositions_of_partition(mu):
            if row_op(b, cols) == a:
                terms[b] = 1
    return QSymExpr("S", terms)


def pieri_col(a, n: int) -> QSymExpr:
    """Expansion of (single column of size n) times the S element of ``a``."""
    a = Composition(a)
    if n < 1:
        raise ValueError("n must be positive")
    lam = to_partition(a)
    terms = {}
    for mu in vertical_strips_over(lam, n):
        cols = strip_column_multiset(mu, lam)
        for b in compositions_of_partition(mu):
            if col_op(b, cols) == a:
                terms[b] = 1
    return QSymExpr("S", terms)


def product_qschur(a, b) -> QSymExpr:
    """Product of two S elements, computed through polynomials.

    Multiplies the two polynomials in |a|+|b| variables (enough for
    faithful extraction of the homogeneous product), reads the result
    off the monomial basis, and converts back.  Structure constants can
    be negative.
    """
    a, b = Composition(a), Composition(b)
    n = a.size + b.size
    if n == 0:
        return qsym_unit("S", ())
    p = qschur_polynomial(a, n) * qschur_polynomial(b, n)
    if not p:
        return QSymExpr("S")
    return express_in_qschur(xpoly_to_monomial(p))


def cover_relation(a, b) -> bool:
    """True iff ``b`` covers ``a`` in the poset induced by single-cell
    row multiplication."""
    return Composition(b) in pieri_row(Composition(a), 1).terms
