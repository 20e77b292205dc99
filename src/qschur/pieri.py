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

from itertools import zip_longest
from typing import Iterable

from .compositions import (
    Composition,
    Partition,
    _degree,
    _quasi_shuffles,
    compositions_of_partition,
    enumerate_partitions,
    to_partition,
)
from .polynomial import QtPoly
from .qsym import (
    QSymExpr,
    _peel,
    express_in_qschur,
    qschur_polynomial,
    qsym_unit,
    transition_matrix,
    xpoly_to_monomial,
)


def rem(a, s: int) -> Composition | None:
    """Subtract 1 from the rightmost part equal to s, or return None."""
    return _removed(a, (s,))


def row_op(a, s: Iterable[int]) -> Composition | None:
    """Apply rem for each element of the set, largest first."""
    return _removed(a, sorted(set(s), reverse=True))


def col_op(a, ms: Iterable[int]) -> Composition | None:
    """Apply rem for each element of the multiset, smallest first."""
    return _removed(a, sorted(ms))


def _removed(a, sizes: Iterable[int]) -> Composition | None:
    parts = _remove_cells(Composition(a), sizes)
    return None if parts is None else Composition(parts)


def _remove_cells(parts: tuple[int, ...], sizes: Iterable[int]) -> tuple[int, ...] | None:
    """rem for each size in turn on a plain tuple of positive parts; a
    part that reaches 0 is dropped, and a missing size gives None."""
    for s in sizes:
        if s < 1:
            raise ValueError("part size must be positive")
        for i in range(len(parts) - 1, -1, -1):
            if parts[i] == s:
                parts = parts[:i] + ((s - 1,) if s > 1 else ()) + parts[i + 1:]
                break
        else:
            return None
    return parts


# -- strip generation -------------------------------------------------------


def _strips_over(lam, n: int, horizontal: bool) -> list[tuple[Partition, tuple[int, ...]]]:
    """Partitions mu of |lam| + n that contain ``lam`` and whose cells
    mu/lam share no column (horizontal) or no row (vertical), each with
    the sorted columns of mu/lam."""
    lam = Partition(lam)
    strips = []
    for mu in enumerate_partitions(lam.size + n):
        grown = [m - l for m, l in zip(mu, tuple(lam) + (0,) * len(mu))]
        if len(mu) < len(lam) or min(grown, default=0) < 0:
            continue
        columns = strip_column_multiset(mu, lam)
        if (len(set(columns)) == n) if horizontal else (max(grown, default=0) <= 1):
            strips.append((mu, columns))
    return strips


def horizontal_strips_over(lam, n: int) -> list[Partition]:
    """Partitions obtained from ``lam`` by adding an n-cell horizontal strip."""
    return [mu for mu, _ in _strips_over(lam, n, True)]


def vertical_strips_over(lam, n: int) -> list[Partition]:
    """Partitions obtained from ``lam`` by adding an n-cell vertical strip."""
    return [mu for mu, _ in _strips_over(lam, n, False)]


def strip_column_multiset(mu, lam) -> tuple[int, ...]:
    """Columns of mu/lam with multiplicity, sorted; ValueError if mu does
    not contain lam."""
    mu, lam = Partition(mu), Partition(lam)
    cols = []
    for m, l in zip_longest(mu, lam, fillvalue=0):
        if m < l:
            raise ValueError(f"{tuple(mu)} does not contain {tuple(lam)}")
        cols.extend(range(l + 1, m + 1))
    return tuple(sorted(cols))


# -- Pieri expansions --------------------------------------------------------


def _pieri(a, n: int, horizontal: bool) -> QSymExpr:
    """Sum of the compositions whose sorted shape is a strip over that of
    ``a`` and which rem, applied along the strip's columns (largest first
    for a row, whose columns are distinct), takes back to ``a``."""
    a = Composition(a)
    if n < 1:
        raise ValueError("n must be positive")
    lam = to_partition(a)
    terms = []
    for mu, columns in _strips_over(lam, n, horizontal):
        sizes = columns[::-1] if horizontal else columns
        terms += [b for b in compositions_of_partition(mu) if _remove_cells(b, sizes) == a]
    return QSymExpr._trusted("S", ((b, QtPoly.one()) for b in terms))


def pieri_row(a, n: int) -> QSymExpr:
    """Expansion of (single row of size n) times the S element of ``a``."""
    return _pieri(a, n, True)


def pieri_col(a, n: int) -> QSymExpr:
    """Expansion of (single column of size n) times the S element of ``a``."""
    return _pieri(a, n, False)


def product_qschur(a, b) -> QSymExpr:
    """Product of two S elements, computed inside QSym.

    Reads both factors' monomial expansions off their rows of the cached
    ``transition_matrix("M", n)``, multiplies the monomial functions by
    quasi-shuffle, and converts back.  The expansions and the structure
    constants are integers, so ``cx * cy * k`` is summed over the
    quasi-shuffles into one integer vector keyed by plain tuples and
    peeled over M; a ``Composition`` and a ``QtPoly`` are built only for
    each S term of the result.  The matrices and triangle orders are
    cached, so a cold ``qschur product`` process builds the M matrices
    of |a|, |b| and |a|+|b| once.  Structure constants can be negative.
    """
    a, b = Composition(a), Composition(b)
    if a.size + b.size == 0:
        return qsym_unit("S", ())
    in_m_b = _monomial_row(b)
    vector: dict[tuple[int, ...], int] = {}
    for x, cx in _monomial_row(a):
        for y, cy in in_m_b:
            for z, k in _quasi_shuffles(x, y).items():
                vector[z] = vector.get(z, 0) + cx * cy * k
    return QSymExpr._trusted("S", (
        (comp, QtPoly.const(c)) for comp, c in _peel("M", a.size + b.size, vector)
    ))


def _monomial_row(a: Composition) -> list[tuple[Composition, int]]:
    """The nonzero entries of row ``a`` of the M transition matrix."""
    table = _degree(a.size)
    row = transition_matrix("M", a.size)[table.position[a]]
    return [(c, k) for c, k in zip(table.order, row) if k]


def product_qschur_oracle(a, b) -> QSymExpr:
    """Product of two S elements, computed through polynomials.

    Multiplies the two polynomials in |a|+|b| variables (enough for
    faithful extraction of the homogeneous product), reads the result
    off the monomial basis, and converts back.  An oracle for
    :func:`product_qschur`, which never builds a polynomial.
    """
    a, b = Composition(a), Composition(b)
    n = a.size + b.size
    if n == 0:
        return qsym_unit("S", ())
    p = qschur_polynomial(a, n) * qschur_polynomial(b, n)
    return express_in_qschur(xpoly_to_monomial(p))
