"""Bases of quasisymmetric functions and the expansions between them.

A ``QSymExpr`` is a basis-tagged sparse map from compositions to
coefficients in Z[q,t].  Supported bases: monomial (M), fundamental
(F), and the quasisymmetric Schur basis (S).  Transition matrices
between S and M/F are upper unitriangular in the triangle order, so
an expression is rewritten over S exactly by peeling leading terms.
"""
from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import chain
from typing import Iterable, Mapping

from .compositions import (
    Composition,
    Partition,
    WeakComposition,
    _degree,
    _supersets,
    compositions_of_partition,
    enumerate_partitions,
    expand_to_weak,
    format_composition,
    refinements,
    reversal,
    to_partition,
)
from .polynomial import QtPoly, XPoly, _accumulate_qt, _pairs, _signed_join
from .tableaux import (
    _refill, _standard_walk, enumerate_comts, enumerate_reverse_tableaux, enumerate_ssafs,
)

BASES = ("M", "F", "S")


class NotQuasisymmetricError(ValueError):
    """Raised when a polynomial fails the quasisymmetry test.

    ``witness`` holds two exponent vectors that should carry equal
    coefficients but do not.
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            f"not quasisymmetric: monomials {witness[0]} and {witness[1]} differ"
        )


class QSymExpr:
    """A finite linear combination of basis elements."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis: str, terms: Mapping | Iterable | None = None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self.terms = _accumulate_qt(
            (Composition(comp), QtPoly.coerce(c)) for comp, c in _pairs(terms)
        )

    @classmethod
    def _trusted(cls, basis: str, pairs) -> "QSymExpr":
        """Sum already valid ``(Composition, QtPoly)`` pairs unchecked."""
        self = object.__new__(cls)
        self.basis = basis
        self.terms = _accumulate_qt(pairs)
        return self

    # -- algebra -------------------------------------------------------

    def __add__(self, other: "QSymExpr") -> "QSymExpr":
        if self.basis != other.basis:
            raise ValueError("cannot add expressions in different bases")
        return QSymExpr._trusted(self.basis, chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "QSymExpr") -> "QSymExpr":
        return self + other.scale(-1)

    def scale(self, c) -> "QSymExpr":
        c = QtPoly.coerce(c)
        return QSymExpr._trusted(self.basis, ((k, v * c) for k, v in self.terms.items()))

    def coefficient(self, comp) -> QtPoly:
        return self.terms.get(Composition(comp), QtPoly.zero())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSymExpr):
            return NotImplemented
        return self.basis == other.basis and self.terms == other.terms

    def __hash__(self):
        return hash((self.basis, frozenset((k, hash(v)) for k, v in self.terms.items())))

    # -- deterministic views --------------------------------------------

    def sorted_terms(self) -> list[tuple[Composition, QtPoly]]:
        """Terms by degree, then descending triangle order: by place in
        the degree's composition table."""
        return sorted(self.terms.items(), key=lambda item: (
            item[0].size, _degree(item[0].size).position[item[0]]))

    def __str__(self) -> str:
        parts = []
        for comp, c in self.sorted_terms():
            name = f"{self.basis}{format_composition(comp)}" if comp else ""
            if not name:
                body = str(c) if c.is_constant() else f"({c})"
            elif c == QtPoly.one():
                body = name
            elif c == QtPoly.const(-1):
                body = f"-{name}"
            elif c.is_constant():
                body = f"{c.constant()}{name}"
            else:
                body = f"({c}){name}"
            parts.append(body)
        return _signed_join(parts)

    def __repr__(self) -> str:
        return f"QSymExpr[{self.basis}]({self})"

    def to_json(self) -> dict:
        return {
            "basis": self.basis,
            "terms": [
                {
                    "composition": list(comp),
                    "coeff": [[qe, te, c] for (qe, te), c in sorted(coeff.items())],
                }
                for comp, coeff in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data) -> "QSymExpr":
        """Read the ``to_json`` schema; a missing or mistyped field raises
        ValueError naming it."""
        basis = _json_field(data, "basis", str, "expression")
        pairs = []
        for i, item in enumerate(_json_field(data, "terms", list, "expression")):
            where = f"terms[{i}]"
            comp = _json_field(item, "composition", list, where)
            coeff = _json_field(item, "coeff", list, where)
            if not all(isinstance(p, int) for p in comp):
                raise ValueError(f"{where}: 'composition' must be a list of integers")
            if not all(isinstance(e, list) and len(e) == 3
                       and all(isinstance(v, int) for v in e) for e in coeff):
                raise ValueError(f"{where}: 'coeff' must be a list of [q, t, c] integer triples")
            pairs.append((comp, QtPoly(((qe, te), c) for qe, te, c in coeff)))
        return cls(basis, pairs)


def _json_field(obj, name: str, kind: type, where: str):
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(obj).__name__}")
    if name not in obj:
        raise ValueError(f"{where} has no {name!r} field")
    if not isinstance(obj[name], kind):
        raise ValueError(f"{where}: {name!r} must be a {kind.__name__}")
    return obj[name]


def qsym_unit(basis: str, comp=(), coeff=1) -> QSymExpr:
    return QSymExpr(basis, {Composition(comp): QtPoly.coerce(coeff)})


# -- concrete polynomials -------------------------------------------------


def monomial_qsym_poly(a, n: int) -> XPoly:
    """The monomial quasisymmetric function cut to n variables."""
    return qsym_to_poly(qsym_unit("M", a), n)


def fundamental_qsym_poly(a, n: int) -> XPoly:
    """The fundamental quasisymmetric function cut to n variables."""
    return qsym_to_poly(qsym_unit("F", a), n)


def qsym_to_poly(expr: QSymExpr, n: int) -> XPoly:
    """Evaluate an M- or F-expression in n variables: an F-expression is
    rewritten over M (:func:`f_to_m`), and each M coefficient goes to every
    placement of its composition in n slots (:func:`expand_to_weak`), which
    no other composition shares, so each term is made once and final."""
    if expr.basis == "F":
        expr = f_to_m(expr)
    elif expr.basis != "M":
        raise ValueError("evaluate S-expressions via qschur_polynomial")
    if n < 0:
        raise ValueError(f"negative variable count {n}")
    return XPoly._trusted(n, (
        (tuple(w), c) for comp, c in expr.terms.items() if len(comp) <= n
        for w in expand_to_weak(comp, n)
    ))


# -- basis conversions ----------------------------------------------------


def f_to_m(expr: QSymExpr) -> QSymExpr:
    """Rewrite an F-expression over the monomial basis (refinement sum)."""
    if expr.basis != "F":
        raise ValueError("expected an F-expression")
    return QSymExpr._trusted(
        "M", ((b, c) for comp, c in expr.terms.items() for b in refinements(comp))
    )


def m_to_f(expr: QSymExpr) -> QSymExpr:
    """Rewrite an M-expression over the fundamental basis (signed sum)."""
    if expr.basis != "M":
        raise ValueError("expected an M-expression")
    return QSymExpr._trusted("F", (
        (b, c if (len(b) - len(comp)) % 2 == 0 else -c)
        for comp, c in expr.terms.items()
        for b in refinements(comp)
    ))


# -- quasisymmetric Schur expansions ---------------------------------------


def qschur_in_monomial(a) -> QSymExpr:
    """Monomial expansion: a refill of shape a counts at every refinement
    of its descent composition, every superset of its descent mask
    (:func:`_row`)."""
    return _expansion("M", Composition(a))


def qschur_in_fundamental(a) -> QSymExpr:
    """Fundamental expansion: count the standard reverse tableaux of
    λ(a) whose column refill has shape a, by descent composition.

    One pass over those tableaux, as plain lists, reads each one's refill
    shape and descent mask (:func:`_refill_counts`)."""
    return _expansion("F", Composition(a))


def _expansion(basis: str, a: Composition) -> QSymExpr:
    """Row a of ``transition_matrix(basis, |a|)`` as an expression, from
    the refill counts of λ(a) alone."""
    row = _row(basis, a.size, _refill_counts(to_partition(a))[a])
    return QSymExpr._trusted(basis, (
        (c, QtPoly.const(k)) for c, k in zip(_degree(a.size).order, row) if k
    ))


def demazure_atom(g, n: int | None = None) -> XPoly:
    """Generating function of the valid augmented fillings of shape g."""
    g = WeakComposition(g)
    if n is None:
        n = len(g)
    if n < len(g):
        raise ValueError("variable count below the number of rows")
    if n > len(g):
        g = WeakComposition(tuple(g) + (0,) * (n - len(g)))
    return XPoly(n, ((f.exponents(), 1) for f in enumerate_ssafs(g)))


def qschur_polynomial(a, n: int) -> XPoly:
    """The quasisymmetric Schur polynomial in n variables: x^weight summed
    over the composition tableaux of shape a with entries in [n], which
    :func:`tableaux.comt_to_ssaf` maps onto the valid augmented fillings
    of the shapes g with g+ = a, so it sums their Demazure atoms."""
    return XPoly(n, Counter(
        tuple(map(t.entries().count, range(1, n + 1))) for t in enumerate_comts(a, n)
    ).items())


def schur_in_qschur(l) -> QSymExpr:
    """A Schur function as the sum over rearrangements of its parts."""
    l = Partition(l)
    return QSymExpr("S", {b: 1 for b in compositions_of_partition(l)})


def schur_in_monomial_oracle(l) -> QSymExpr:
    """Monomial expansion of a Schur function via reverse tableaux.

    Counts the reverse tableaux of the given shape, enumerated once, by
    weight; this path never touches composition tableaux, so it can
    referee them.
    """
    l = Partition(l)
    n = l.size
    by_content: dict[WeakComposition, int] = {}
    for t in enumerate_reverse_tableaux(l, n):
        w = t.weight()
        by_content[w] = by_content.get(w, 0) + 1
    terms: dict[Composition, int] = {}
    for mu in enumerate_partitions(n):
        k = by_content.get(reversal(mu))
        if k:
            for b in compositions_of_partition(mu):
                terms[b] = k
    return QSymExpr("M", terms)


# -- transition matrices ----------------------------------------------------


def _refill_counts(lam: Partition) -> dict[tuple[int, ...], dict[int, int]]:
    """Count the standard reverse tableaux of shape lam as ``{refill
    shape: {descent mask: count}}``, from the one walk over them
    (:func:`tableaux._standard_walk`).  The refill keeps every
    entry in its column, so the mask is its descent set too."""
    n = lam.size
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    for cols, mask in _standard_walk(lam):
        by_mask = counts.setdefault(tuple(len(r) for r in _refill(cols, n) if r), {})
        by_mask[mask] = by_mask.get(mask, 0) + 1
    return counts


def _row(basis: str, n: int, by_mask: dict[int, int]) -> list[int]:
    """The S row over M or F, indexed by the triangle order of degree n,
    of a shape whose refills count ``by_mask``: each count is added at
    its mask's descent composition over F, and over M at every superset
    of the mask, which is every refinement of that composition."""
    table = _degree(n)
    row = [0] * len(table.order)
    # the cuts a refinement may add: all n - 1 of them over M, none over F
    cuts = len(row) - 1 if basis == "M" else 0
    for mask, k in by_mask.items():
        for m in _supersets(mask, cuts):
            row[table.by_mask[m]] += k
    return row


@lru_cache(maxsize=None)
def transition_matrix(basis_to: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Matrix of S expansions over M or F, indexed by the triangle order.

    The refill counts of each λ ⊢ n (:func:`_refill_counts`) make the
    rows of its shapes (:func:`_row`); every composition of n is the
    refill shape of some tableau, so every row is made once."""
    if basis_to not in ("M", "F"):
        raise ValueError("basis_to must be 'M' or 'F'")
    position = _degree(n).position
    rows = [()] * len(position)
    for lam in enumerate_partitions(n):
        for shape, by_mask in _refill_counts(lam).items():
            rows[position[shape]] = tuple(_row(basis_to, n, by_mask))
    return tuple(rows)


def _peel(basis: str, n: int, vector: list[int]) -> list[tuple[Composition, int]]:
    """The integer S coefficients of a degree-n integer vector over M or F,
    given densely, indexed by the triangle order of the degree's
    composition table; the vector is used up in place.

    Over M and over F alike, S_a is the element of a plus smaller ones in
    the triangle order.  So the vector is peeled from the largest
    composition down: what is left of a coefficient is the S coefficient,
    and that multiple of the matrix row is taken off the rest.
    """
    out = []
    comps = _degree(n).order
    for i, row in enumerate(transition_matrix(basis, n)):
        c = vector[i]
        if c:
            out.append((comps[i], c))
            for j in range(i + 1, len(row)):
                if row[j]:
                    vector[j] -= c * row[j]
    return out


def express_in_qschur(expr: QSymExpr) -> QSymExpr:
    """Rewrite an M- or F-expression over the S basis.

    The change of basis is Z-linear, so the input is split into one dense
    integer vector per degree and (q, t) exponent, indexed by the
    positions of the degree's cached composition table; each vector is
    peeled in the input's own basis by :func:`_peel`, and each S
    coefficient is built as a ``QtPoly`` once, from its integer parts.
    The table sorts the triangle order once per process.
    """
    if expr.basis == "S":
        return expr
    vectors: dict[tuple[int, tuple[int, int]], list[int]] = {}
    for comp, c in expr.terms.items():
        n = comp.size
        table = _degree(n)
        j = table.position[comp]
        for qt, k in c.items():
            vectors.setdefault((n, qt), [0] * len(table.order))[j] = k
    parts: dict[Composition, list[tuple[tuple[int, int], int]]] = {}
    for (n, qt), vector in vectors.items():
        for comp, k in _peel(expr.basis, n, vector):
            parts.setdefault(comp, []).append((qt, k))
    return QSymExpr._trusted("S", ((comp, QtPoly._trusted(p)) for comp, p in parts.items()))


# -- extraction from polynomials --------------------------------------------


def xpoly_to_monomial(p: XPoly) -> QSymExpr:
    """Read a quasisymmetric polynomial off as an M-expression.

    Requires at least as many variables as the total degree, so every
    composition that could appear has an initial monomial.  Verifies
    quasisymmetry and raises :class:`NotQuasisymmetricError` with a
    witness pair otherwise.
    """
    n = p.n
    if n < p.total_degree():
        raise ValueError(
            f"{n} variables cannot faithfully carry degree {p.total_degree()}"
        )
    groups: dict[tuple[int, ...], dict[tuple[int, ...], QtPoly]] = {}
    for exps, c in p.items():
        groups.setdefault(tuple(e for e in exps if e), {})[exps] = c
    terms = []
    for comp, monos in groups.items():
        # a group holds at most the C(n, len) placements of its parts, the
        # leading one first; only a group that fails is placed, for a witness
        leading = comp + (0,) * (n - len(comp))
        lead = monos.get(leading)
        if lead is None:
            raise NotQuasisymmetricError((leading, next(iter(monos))))
        if len(monos) < math.comb(n, len(comp)) or any(c != lead for c in monos.values()):
            wrong = next(e for e in expand_to_weak(comp, n) if monos.get(e) != lead)
            raise NotQuasisymmetricError((leading, tuple(wrong)))
        terms.append((Composition(comp), lead))
    return QSymExpr._trusted("M", terms)


# -- basis coincidence classification ---------------------------------------


def equals_monomial_shape(a) -> bool:
    """Shapes whose S element equals the same-indexed M element."""
    return all(p == 1 for p in Composition(a))


def equals_fundamental_shape(a) -> bool:
    """Shapes whose S element equals the same-indexed F element.

    These are the compositions of the form (m, 1..1, 2, 1..1, 2, ..., 2,
    1..1): an optional first part m >= 2, every other part 1 or 2, and
    at least one 1 before each 2.
    """
    a = Composition(a)
    parts = list(a)
    if not parts:
        return True
    i = 0
    if parts[0] >= 2:
        i = 1
    seen_one = False
    for p in parts[i:]:
        if p == 1:
            seen_one = True
        elif p == 2:
            if not seen_one:
                return False
            seen_one = False
        else:
            return False
    return True
