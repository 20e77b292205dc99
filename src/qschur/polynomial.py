"""Exact sparse polynomial arithmetic over Z[q,t].

``QtPoly`` is a two-parameter integer polynomial; ``XPoly`` is a sparse
polynomial in x_1..x_n whose coefficients are ``QtPoly`` values.  All
arithmetic is exact; division is supported only when it is exact and
raises otherwise.

Terms are checked only by the public constructors ``QtPoly(terms)`` and
``XPoly(n, terms)``, which take a mapping or ``(key, coefficient)`` pairs
and sum equal keys; arithmetic builds its results through the private
``_trusted`` constructors, which sum without checking.  Exponents and
coefficients follow the integer rule of compositions (``operator.index``):
2.5 or "3" raises ValueError, in ``QtPoly.const`` too, which builds its
one term directly.

Integer coefficients are summed by ``_accumulate`` and ``QtPoly``
coefficients by ``_accumulate_qt``, which keeps a key's first
coefficient as it is and merges the term dicts of the later ones into
one integer dict, wrapped once.  ``XPoly`` multiplies and divides on
flat integer coefficients keyed by x exponents followed by the q and t
exponents (``_flat``), an int or ``QtPoly`` factor taken as a constant
polynomial; ``XPoly.div_exact`` divides through the same ``_divide``
as ``QtPoly.div_exact``.
"""
from __future__ import annotations

from itertools import chain
from operator import add, lt, sub
from typing import Iterable, Mapping

from .compositions import _count, _integers


def _accumulate(pairs) -> dict:
    """Sum the coefficients of equal keys and drop the zero sums."""
    acc: dict = {}
    for k, c in pairs:
        if k in acc:
            acc[k] += c
        else:
            acc[k] = c
    return {k: c for k, c in acc.items() if c}


def _accumulate_qt(pairs) -> dict:
    """Sum the ``QtPoly`` coefficients of equal keys and drop the zero sums.

    A key's first coefficient is kept as it is; from its second on, the
    term dicts are merged into one integer dict, wrapped once at the end.
    """
    acc: dict = {}
    merged: dict = {}
    for k, c in pairs:
        if k in acc:
            m = merged.get(k)
            if m is None:
                m = merged[k] = dict(acc[k]._terms)
            for qt, v in c._terms.items():
                m[qt] = m.get(qt, 0) + v
        else:
            acc[k] = c
    for k, m in merged.items():
        acc[k] = QtPoly._trusted(m.items())
    return {k: c for k, c in acc.items() if c._terms}


def _pairs(terms) -> Iterable:
    if terms is None:
        return ()
    return terms.items() if isinstance(terms, Mapping) else terms


def _signed_join(parts: list[str]) -> str:
    """Join rendered terms with " + ", writing a leading minus as " - "."""
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _pow(base, e: int, one):
    e = _count(e, "exponents")
    if e < 0:
        raise ValueError("negative power")
    out = one
    while e:
        if e & 1:
            out = out * base
        base = base * base
        e >>= 1
    return out


def _divide(num: dict, den: dict) -> list:
    """Quotient pairs of ``num`` by ``den`` (exponent tuple -> int maps) by
    leading-term elimination in lex order.

    The remainder is a dict updated in place: each step pops its leading
    term, which the quotient term times the divisor's leading term
    cancels, and subtracts the quotient term times the divisor's other
    terms.  Raises ValueError if the division is not exact.
    """
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    dk = max(den)
    dc = den[dk]
    rest = [(ek, ec) for ek, ec in den.items() if ek != dk]
    rem = dict(num)
    quot = []
    while rem:
        rk = max(rem)
        c, r = divmod(rem.pop(rk), dc)
        if r or any(map(lt, rk, dk)):
            raise ValueError("polynomial division is not exact")
        k = tuple(map(sub, rk, dk))
        quot.append((k, c))
        for ek, ec in rest:
            key = tuple(map(add, k, ek))
            v = rem.pop(key, 0) - c * ec
            if v:
                rem[key] = v
    return quot


def _qt_exponents(qe, te) -> tuple[int, int]:
    qe, te = _integers((qe, te), "exponents")
    if qe < 0 or te < 0:
        raise ValueError(f"negative exponent in q^{qe}*t^{te}")
    return qe, te


class QtPoly:
    """Sparse polynomial in q and t with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | Iterable | None = None):
        self._terms = _accumulate(
            (_qt_exponents(qe, te), _count(c, "coefficients")) for (qe, te), c in _pairs(terms)
        )

    @classmethod
    def _trusted(cls, pairs) -> "QtPoly":
        """Sum already valid ``((q_exp, t_exp), int)`` pairs unchecked."""
        self = object.__new__(cls)
        self._terms = _accumulate(pairs)
        return self

    @classmethod
    def _packed(cls, terms: dict, span: int) -> "QtPoly":
        """Wrap ``{q_exp * span + t_exp: int}`` unchecked: the keys are
        already distinct, so each is split once and zeros are dropped."""
        self = object.__new__(cls)
        self._terms = {divmod(k, span): c for k, c in terms.items() if c}
        return self

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "QtPoly":
        return cls._trusted(())

    @classmethod
    def one(cls) -> "QtPoly":
        return cls.const(1)

    @classmethod
    def const(cls, c: int) -> "QtPoly":
        """The constant c: one term, or none for 0, built directly."""
        self = object.__new__(cls)
        c = _count(c, "coefficients")
        self._terms = {(0, 0): c} if c else {}
        return self

    @classmethod
    def q(cls, k: int = 1) -> "QtPoly":
        return cls({(k, 0): 1})

    @classmethod
    def t(cls, k: int = 1) -> "QtPoly":
        return cls({(0, k): 1})

    @classmethod
    def coerce(cls, value) -> "QtPoly":
        if isinstance(value, QtPoly):
            return value
        if isinstance(value, int):
            return cls.const(value)
        raise TypeError(f"cannot coerce {value!r} to QtPoly")

    # -- inspection --------------------------------------------------

    def items(self):
        return self._terms.items()

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self._terms)

    def constant(self) -> int:
        """The constant term."""
        return self._terms.get((0, 0), 0)

    def coefficient(self, qe: int, te: int) -> int:
        return self._terms.get((qe, te), 0)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "QtPoly":
        if not isinstance(other, (int, QtPoly)):
            return NotImplemented
        other = QtPoly.coerce(other)
        return QtPoly._trusted(chain(self._terms.items(), other._terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "QtPoly":
        return QtPoly._trusted((k, -c) for k, c in self._terms.items())

    def __sub__(self, other) -> "QtPoly":
        if not isinstance(other, (int, QtPoly)):
            return NotImplemented
        return self + (-QtPoly.coerce(other))

    def __rsub__(self, other) -> "QtPoly":
        if not isinstance(other, (int, QtPoly)):
            return NotImplemented
        return QtPoly.coerce(other) + (-self)

    def __mul__(self, other) -> "QtPoly":
        if not isinstance(other, (int, QtPoly)):
            return NotImplemented
        other = QtPoly.coerce(other)
        return QtPoly._trusted(
            ((q1 + q2, t1 + t2), c1 * c2)
            for (q1, t1), c1 in self._terms.items()
            for (q2, t2), c2 in other._terms.items()
        )

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "QtPoly":
        return _pow(self, e, QtPoly.one())

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = QtPoly.const(other)
        if not isinstance(other, QtPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._terms.keys() <= {(0, 0)}:  # equal to an int, so hashed as one
            return hash(self.constant())
        return hash(frozenset(self._terms.items()))

    # -- specialization and division -----------------------------------

    def specialize(self, q: int | None = None, t: int | None = None) -> "QtPoly":
        """Substitute integer values for q and/or t; 2.5 raises ValueError."""
        q, t = (None if v is None else _count(v, "specialized values") for v in (q, t))

        def specialized():
            for (qe, te), c in self._terms.items():
                if q is not None:
                    c *= q ** qe
                    qe = 0
                if t is not None:
                    c *= t ** te
                    te = 0
                yield (qe, te), c

        return QtPoly._trusted(specialized())

    def div_exact(self, other) -> "QtPoly":
        """Exact division; raises ValueError if the division is not exact."""
        other = QtPoly.coerce(other)
        return QtPoly._trusted(_divide(self._terms, other._terms))

    # -- rendering -----------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for (qe, te) in sorted(self._terms, key=lambda k: (k[0] + k[1], k[0], k[1])):
            c = self._terms[(qe, te)]
            mono = "*".join(s for s in (_power("q", qe), _power("t", te)) if s)
            if mono:
                if c == 1:
                    body = mono
                elif c == -1:
                    body = f"-{mono}"
                else:
                    body = f"{c}*{mono}"
            else:
                body = str(c)
            parts.append(body)
        return _signed_join(parts)

    def __repr__(self) -> str:
        return f"QtPoly({self})"


def _power(name: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return name
    return f"{name}^{e}"


def _check_index(n: int, i) -> int:
    """The variable index ``i`` as an int in 1..n."""
    i = _count(i, "variable indices")
    if not 1 <= i <= n:
        raise ValueError(f"variable index {i} is outside 1..{n}")
    return i


def _flat(terms: dict) -> dict:
    """``exponents -> QtPoly`` terms as ``exponents + (q_exp, t_exp) -> int``."""
    return {e + qt: c for e, poly in terms.items() for qt, c in poly._terms.items()}


def _unflat(n: int, flat) -> "XPoly":
    """The ``XPoly`` in n variables of a flat polynomial's
    ``(exponents + (q_exp, t_exp), int)`` pairs or mapping."""
    grouped: dict = {}
    for k, c in _pairs(flat):
        grouped.setdefault(k[:-2], []).append((k[-2:], c))
    return XPoly._trusted(n, ((e, QtPoly._trusted(p)) for e, p in grouped.items()))


class XPoly:
    """Sparse polynomial in x_1..x_n with QtPoly coefficients."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], QtPoly] | Iterable | None = None):
        self.n = _count(n)
        if self.n < 0:
            raise ValueError(f"negative variable count {self.n}")
        self._terms = _accumulate_qt(
            (self._exponents(exps), QtPoly.coerce(c)) for exps, c in _pairs(terms)
        )

    def _exponents(self, exps) -> tuple[int, ...]:
        exps = _integers(exps, "exponents")
        if len(exps) != self.n:
            raise ValueError(f"exponent vector {exps} has wrong length")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        return exps

    @classmethod
    def _trusted(cls, n: int, pairs) -> "XPoly":
        """Sum already valid ``(exponents, QtPoly)`` pairs unchecked."""
        self = object.__new__(cls)
        self.n = n
        self._terms = _accumulate_qt(pairs)
        return self

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "XPoly":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "XPoly":
        return cls(n, {(0,) * n: QtPoly.one()})

    @classmethod
    def variable(cls, n: int, i: int) -> "XPoly":
        """The variable x_i (1-based)."""
        n = _count(n)
        i = _check_index(n, i)
        exps = [0] * n
        exps[i - 1] = 1
        return cls(n, {tuple(exps): QtPoly.one()})

    @classmethod
    def monomial(cls, n: int, exps: Iterable[int], coeff=1) -> "XPoly":
        return cls(n, {tuple(exps): QtPoly.coerce(coeff)})

    # -- inspection --------------------------------------------------

    def items(self):
        return self._terms.items()

    def __bool__(self) -> bool:
        return bool(self._terms)

    def coefficient(self, exps: Iterable[int]) -> QtPoly:
        return self._terms.get(tuple(exps), QtPoly.zero())

    def total_degree(self) -> int:
        return max((sum(e) for e in self._terms), default=0)

    # -- ring operations ----------------------------------------------

    def _coerce(self, other) -> "XPoly | None":
        """``other`` as an XPoly in the same variables, or None when it is
        not an int, a ``QtPoly`` or an ``XPoly``, so that an operator can
        return NotImplemented."""
        if isinstance(other, (int, QtPoly)):
            return XPoly._trusted(self.n, [((0,) * self.n, QtPoly.coerce(other))])
        if not isinstance(other, XPoly):
            return None
        if self.n != other.n:
            raise ValueError(f"variable counts differ: {self.n} vs {other.n}")
        return other

    def __add__(self, other) -> "XPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return XPoly._trusted(self.n, chain(self._terms.items(), other._terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "XPoly":
        return XPoly._trusted(self.n, ((k, -c) for k, c in self._terms.items()))

    def __sub__(self, other) -> "XPoly":
        other = self._coerce(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other) -> "XPoly":
        other = self._coerce(other)
        return NotImplemented if other is None else -self + other

    def __mul__(self, other) -> "XPoly":
        """Multiply the flat integer terms (:func:`_flat`); wrap once."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = _flat(self._terms), _flat(other._terms)
        return _unflat(self.n, _accumulate(
            (tuple(map(add, k1, k2)), c1 * c2) for k1, c1 in a.items() for k2, c2 in b.items()
        ))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "XPoly":
        return _pow(self, e, XPoly.one(self.n))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, QtPoly)):
            other = self._coerce(other)
        if not isinstance(other, XPoly):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self):
        if self.total_degree() == 0:  # equal to its coefficient, so hashed as it
            return hash(self.coefficient((0,) * self.n))
        return hash((self.n, frozenset((k, hash(v)) for k, v in self._terms.items())))

    # -- specialization, symmetry, division ----------------------------

    def specialize(self, q: int | None = None, t: int | None = None) -> "XPoly":
        return XPoly._trusted(
            self.n, ((k, c.specialize(q=q, t=t)) for k, c in self._terms.items())
        )

    def swap_variables(self, i: int, j: int) -> "XPoly":
        """Exchange x_i and x_j (1-based)."""
        i, j = _check_index(self.n, i), _check_index(self.n, j)

        def swapped():
            for exps, c in self._terms.items():
                e = list(exps)
                e[i - 1], e[j - 1] = e[j - 1], e[i - 1]
                yield tuple(e), c

        return XPoly._trusted(self.n, swapped())

    def div_scalar_exact(self, d) -> "XPoly":
        d = QtPoly.coerce(d)
        return XPoly._trusted(self.n, ((k, c.div_exact(d)) for k, c in self._terms.items()))

    def div_exact(self, other: "XPoly") -> "XPoly":
        """Exact division by another XPoly.

        Both sides are flattened to integer coefficients keyed by x
        exponents followed by (q_exp, t_exp) and divided by lex
        leading-term elimination; lex order is a monomial order on
        Z[x, q, t], so an exact quotient is the same one.
        """
        divisor = self._coerce(other)
        if divisor is None:
            raise TypeError(f"cannot divide an XPoly by {type(other).__name__}")
        return _unflat(self.n, _divide(_flat(self._terms), _flat(divisor._terms)))

    # -- rendering -----------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for exps in sorted(self._terms, reverse=True):
            c = self._terms[exps]
            mono = "*".join(
                _power(f"x{i + 1}", e) for i, e in enumerate(exps) if e
            )
            cs = str(c)
            if not mono:
                parts.append(f"({cs})" if ("+" in cs or " - " in cs) else cs)
            elif c == QtPoly.one():
                parts.append(mono)
            elif c.is_constant():
                v = c.constant()
                parts.append(f"{v}*{mono}" if v != -1 else f"-{mono}")
            else:
                parts.append(f"({cs})*{mono}")
        return _signed_join(parts)

    def __repr__(self) -> str:
        return f"XPoly[{self.n}]({self})"
