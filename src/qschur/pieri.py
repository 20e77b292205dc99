"""Row and column multiplication rules for the quasisymmetric Schur basis.

``rem`` subtracts one from the rightmost part of a given size, or
signals failure; ``row_op``/``col_op`` chain it over a set (largest
first) or a multiset (smallest first).  The Pieri expansions sum over
the preimages of a composition under those operators, grown from it
one cell at a time by inverting ``rem``.  Failure of ``rem`` is
``None``, distinct from the empty composition, which is a legitimate
result of removing the last cell.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import compress
from typing import Iterable

from .compositions import Composition, _count, _degree, _integers, _quasi_shuffles
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
    return _removed(a, (_count(s, "part sizes"),))


def row_op(a, s: Iterable[int]) -> Composition | None:
    """Apply rem for each element of the set, largest first."""
    return _removed(a, sorted(set(_integers(s, "part sizes")), reverse=True))


def col_op(a, ms: Iterable[int]) -> Composition | None:
    """Apply rem for each element of the multiset, smallest first."""
    return _removed(a, sorted(_integers(ms, "part sizes")))


def _removed(a, sizes: Iterable[int]) -> Composition | None:
    """rem for each size in turn; a part that reaches 0 is dropped, and a
    missing size gives None."""
    parts = Composition(a)
    for s in sizes:
        if s < 1:
            raise ValueError("part size must be positive")
        for i in range(len(parts) - 1, -1, -1):
            if parts[i] == s:
                parts = parts[:i] + ((s - 1,) if s > 1 else ()) + parts[i + 1:]
                break
        else:
            return None
    return Composition(parts)


# -- Pieri expansions --------------------------------------------------------


def _added(parts: tuple[int, ...], c: int):
    """The compositions that rem(., c) takes to ``parts``: a part c - 1
    raised to c, or a part 1 inserted when c = 1, at a position with no
    part c to its right."""
    for i in range(len(parts), -1, -1):
        if i < len(parts):
            if parts[i] == c:
                return
            if parts[i] == c - 1:
                yield parts[:i] + (c,) + parts[i + 1:]
        if c == 1:
            yield parts[:i] + (1,) + parts[i:]


def _pieri(a, n: int, horizontal: bool) -> QSymExpr:
    """Sum of the compositions b with row_op(b, S) = a over n-sets S
    (horizontal) or col_op(b, M) = a over n-multisets M.

    Each b is grown from ``a`` by undoing the removals one cell at a
    time: a row adds its columns strictly rising from 1, a column adds
    them weakly falling from max(a) + 1, and no column exceeds the
    largest part + 1.  Removals at distinct columns take a horizontal
    strip off the sorted shape, and removals at weakly rising columns
    a vertical one; the columns of that strip fix the path, so each b
    is reached once, with coefficient 1.  Each b is grown from a valid
    composition, so it is wrapped unchecked.
    """
    a, n = Composition(a), _count(n, "factor sizes")
    if n < 1:
        raise ValueError("n must be positive")
    level = [(a, 0 if horizontal else max(a, default=0) + 1)]
    for _ in range(n):
        grown = []
        for parts, last in level:
            top = max(parts, default=0) + 1
            columns = range(last + 1, top + 1) if horizontal else range(last, 0, -1)
            grown += [(b, c) for c in columns for b in _added(parts, c)]
        level = grown
    return QSymExpr._from_ints("S", ((tuple.__new__(Composition, b), 1) for b, _ in level))


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
    constants are integers, so ``cx * cy * k`` is added into one dense
    integer vector indexed by the triangle order of degree |a|+|b|, at
    the positions the cached table :func:`_shuffle_positions` gives for
    each pair of monomials, and the vector is peeled over M; a
    ``Composition`` and a constant ``QtPoly`` are built only for each S
    term of the result (``QSymExpr._from_ints``), and degree 0 takes the
    same path.  The matrices, triangle orders and monomial pairs are
    cached, so a cold ``qschur product`` process builds the M matrices
    of |a|, |b| and |a|+|b| once.  Structure constants can be negative.
    """
    a, b = Composition(a), Composition(b)
    n = a.size + b.size
    in_m_b = _monomial_row(b)
    vector = [0] * len(_degree(n).order)
    for x, cx in _monomial_row(a):
        for y, cy in in_m_b:
            c = cx * cy
            for j, k in _shuffle_positions(x, y):
                vector[j] += c * k
    return QSymExpr._from_ints("S", _peel("M", n, vector))


@lru_cache(maxsize=None)
def _shuffle_positions(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The M-basis multiplication table: M_x * M_y as (position of z in
    the triangle order of degree |x|+|y|, multiplicity) pairs, one per
    quasi-shuffle z of x and y.  Keyed by the pair of monomials, which
    many different products share."""
    position = _degree(sum(x) + sum(y)).position
    return tuple((position[z], k) for z, k in _quasi_shuffles(x, y).items())


def _monomial_row(a: Composition) -> list[tuple[Composition, int]]:
    """The nonzero entries of row ``a`` of the M transition matrix."""
    table = _degree(a.size)
    row = transition_matrix("M", a.size)[table.position[a]]
    return list(zip(compress(table.order, row), filter(None, row)))


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
