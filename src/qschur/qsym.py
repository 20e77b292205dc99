"""Bases of quasisymmetric functions and the expansions between them.

A ``QSymExpr`` is a basis-tagged sparse map from compositions to
coefficients in Z[q,t].  Supported bases: monomial (M), fundamental
(F), and the quasisymmetric Schur basis (S).  Transition matrices
between S and M/F are upper unitriangular in the triangle order, so
inversion is exact integer back-substitution.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Mapping

from .compositions import (
    Composition,
    Partition,
    WeakComposition,
    composition_of,
    compositions_of_partition,
    enumerate_compositions,
    enumerate_partitions,
    expand_to_weak,
    format_composition,
    refinements,
    reversal,
    triangle_key,
)
from .polynomial import QtPoly, XPoly
from .tableaux import (
    comt_descents,
    enumerate_comts,
    enumerate_reverse_tableaux,
    enumerate_ssafs,
    enumerate_standard_comts,
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

    def __init__(self, basis: str, terms: Mapping | None = None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        clean: dict[Composition, QtPoly] = {}
        if terms:
            for comp, c in terms.items():
                comp = Composition(comp)
                c = QtPoly.coerce(c)
                if c:
                    prev = clean.get(comp)
                    clean[comp] = prev + c if prev is not None else c
        self.terms = {k: v for k, v in clean.items() if v}

    # -- algebra -------------------------------------------------------

    def __add__(self, other: "QSymExpr") -> "QSymExpr":
        if self.basis != other.basis:
            raise ValueError("cannot add expressions in different bases")
        terms = dict(self.terms)
        for k, c in other.terms.items():
            prev = terms.get(k)
            terms[k] = prev + c if prev is not None else c
        return QSymExpr(self.basis, terms)

    def __sub__(self, other: "QSymExpr") -> "QSymExpr":
        return self + other.scale(-1)

    def scale(self, c) -> "QSymExpr":
        c = QtPoly.coerce(c)
        return QSymExpr(self.basis, {k: v * c for k, v in self.terms.items()})

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
        """Terms by degree, then descending triangle order."""

        def key(item):
            comp, _ = item
            pk = triangle_key(comp)
            return (comp.size, tuple(-p for p in pk[0]), tuple(-p for p in pk[1]))

        return sorted(self.terms.items(), key=key)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
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
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

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
    def from_json(cls, data: dict) -> "QSymExpr":
        terms = {}
        for item in data["terms"]:
            comp = Composition(item["composition"])
            coeff = QtPoly({(qe, te): c for qe, te, c in item["coeff"]})
            terms[comp] = terms.get(comp, QtPoly.zero()) + coeff
        return cls(data["basis"], terms)


def qsym_unit(basis: str, comp=(), coeff=1) -> QSymExpr:
    return QSymExpr(basis, {Composition(comp): QtPoly.coerce(coeff)})


# -- concrete polynomials -------------------------------------------------


def monomial_qsym_poly(a, n: int) -> XPoly:
    """The monomial quasisymmetric function cut to n variables."""
    a = Composition(a)
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = XPoly.zero(n)
    if len(a) > n:
        return out
    for positions in itertools.combinations(range(n), len(a)):
        exps = [0] * n
        for pos, val in zip(positions, a):
            exps[pos] = val
        out += XPoly.monomial(n, exps)
    return out


def fundamental_qsym_poly(a, n: int) -> XPoly:
    """The fundamental quasisymmetric function cut to n variables."""
    out = XPoly.zero(n)
    for b in refinements(Composition(a)):
        out += monomial_qsym_poly(b, n)
    return out


def qsym_to_poly(expr: QSymExpr, n: int) -> XPoly:
    """Evaluate an M- or F-expression in n variables."""
    if expr.basis == "M":
        gen = monomial_qsym_poly
    elif expr.basis == "F":
        gen = fundamental_qsym_poly
    else:
        raise ValueError("evaluate S-expressions via qschur_polynomial")
    out = XPoly.zero(n)
    for comp, c in expr.terms.items():
        out += gen(comp, n) * c
    return out


# -- basis conversions ----------------------------------------------------


def f_to_m(expr: QSymExpr) -> QSymExpr:
    """Rewrite an F-expression over the monomial basis (refinement sum)."""
    if expr.basis != "F":
        raise ValueError("expected an F-expression")
    terms: dict[Composition, QtPoly] = {}
    for comp, c in expr.terms.items():
        for b in refinements(comp):
            prev = terms.get(b)
            terms[b] = prev + c if prev is not None else c
    return QSymExpr("M", terms)


def m_to_f(expr: QSymExpr) -> QSymExpr:
    """Rewrite an M-expression over the fundamental basis (signed sum)."""
    if expr.basis != "M":
        raise ValueError("expected an M-expression")
    terms: dict[Composition, QtPoly] = {}
    for comp, c in expr.terms.items():
        for b in refinements(comp):
            signed = c if (len(b) - len(comp)) % 2 == 0 else -c
            prev = terms.get(b)
            terms[b] = prev + signed if prev is not None else signed
    return QSymExpr("F", terms)


# -- quasisymmetric Schur expansions ---------------------------------------


def qschur_in_monomial(a) -> QSymExpr:
    """Monomial expansion: count composition tableaux by exact weight."""
    a = Composition(a)
    counts: dict[Composition, int] = {}
    for t in enumerate_comts(a, a.size):
        w = t.weight()
        if all(p > 0 for p in w):
            b = Composition(w)
            counts[b] = counts.get(b, 0) + 1
    return QSymExpr("M", counts)


def qschur_in_fundamental(a) -> QSymExpr:
    """Fundamental expansion: count standard composition tableaux by
    descent composition."""
    a = Composition(a)
    n = a.size
    counts: dict[Composition, int] = {}
    for t in enumerate_standard_comts(a):
        b = composition_of(comt_descents(t), n)
        counts[b] = counts.get(b, 0) + 1
    return QSymExpr("F", counts)


def demazure_atom(g, n: int | None = None) -> XPoly:
    """Generating function of the valid augmented fillings of shape g."""
    g = WeakComposition(g)
    if n is None:
        n = len(g)
    if n < len(g):
        raise ValueError("variable count below the number of rows")
    if n > len(g):
        g = WeakComposition(tuple(g) + (0,) * (n - len(g)))
    out = XPoly.zero(n)
    for f in enumerate_ssafs(g):
        out += XPoly.monomial(n, f.exponents())
    return out


def qschur_polynomial(a, n: int) -> XPoly:
    """The quasisymmetric Schur polynomial in n variables."""
    a = Composition(a)
    out = XPoly.zero(n)
    if n < len(a):
        return out
    for g in expand_to_weak(a, n):
        out += demazure_atom(g, n)
    return out


def schur_in_qschur(l) -> QSymExpr:
    """A Schur function as the sum over rearrangements of its parts."""
    l = Partition(l)
    return QSymExpr("S", {b: 1 for b in compositions_of_partition(l)})


def schur_in_monomial_oracle(l) -> QSymExpr:
    """Monomial expansion of a Schur function via reverse tableaux.

    Counts reverse tableaux of the given shape by weight; this path
    never touches composition tableaux, so it can referee them.
    """
    l = Partition(l)
    n = l.size
    kostka: dict[Partition, int] = {}
    for mu in enumerate_partitions(n):
        target = tuple(reversal(mu))
        count = 0
        for t in enumerate_reverse_tableaux(l, len(mu)):
            if tuple(t.weight()) == target:
                count += 1
        if count:
            kostka[mu] = count
    terms: dict[Composition, int] = {}
    for mu, k in kostka.items():
        for b in compositions_of_partition(mu):
            terms[b] = k
    return QSymExpr("M", terms)


# -- transition matrices ----------------------------------------------------


@lru_cache(maxsize=None)
def transition_matrix(basis_to: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Matrix of S expansions over M or F, indexed by the triangle order."""
    if basis_to not in ("M", "F"):
        raise ValueError("basis_to must be 'M' or 'F'")
    comps = enumerate_compositions(n)
    index = {c: i for i, c in enumerate(comps)}
    rows = []
    for a in comps:
        expr = qschur_in_monomial(a) if basis_to == "M" else qschur_in_fundamental(a)
        row = [0] * len(comps)
        for b, c in expr.terms.items():
            row[index[b]] = c.constant()
        rows.append(tuple(row))
    return tuple(rows)


def express_in_qschur(expr: QSymExpr) -> QSymExpr:
    """Rewrite an M- or F-expression over the S basis.

    Works degree by degree; the transition matrix is unitriangular in
    the triangle order, so plain forward substitution stays in Z[q,t].
    """
    if expr.basis == "S":
        return expr
    if expr.basis == "M":
        expr = m_to_f(expr)
    out: dict[Composition, QtPoly] = {}
    by_degree: dict[int, dict[Composition, QtPoly]] = {}
    for comp, c in expr.terms.items():
        by_degree.setdefault(comp.size, {})[comp] = c
    for n, terms in by_degree.items():
        comps = enumerate_compositions(n)
        matrix = transition_matrix("F", n)
        coeffs: list[QtPoly] = []
        for j, comp in enumerate(comps):
            c = terms.get(comp, QtPoly.zero())
            acc = c
            for i in range(j):
                if matrix[i][j]:
                    acc = acc - coeffs[i] * matrix[i][j]
            coeffs.append(acc)
        for comp, c in zip(comps, coeffs):
            if c:
                out[comp] = c
    return QSymExpr("S", out)


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
    groups: dict[Composition, dict[tuple[int, ...], QtPoly]] = {}
    const = QtPoly.zero()
    for exps, c in p.items():
        comp = Composition(e for e in exps if e)
        if not comp:
            const = const + c
            continue
        groups.setdefault(comp, {})[exps] = c
    terms: dict[Composition, QtPoly] = {}
    if const:
        terms[Composition()] = const
    for comp, monos in groups.items():
        expected = _leading_exponents(comp, n)
        lead = monos.get(expected)
        if lead is None:
            witness_other = next(iter(monos))
            raise NotQuasisymmetricError((expected, witness_other))
        for positions in itertools.combinations(range(n), len(comp)):
            exps = _place(comp, positions, n)
            got = monos.get(exps)
            if got is None or got != lead:
                raise NotQuasisymmetricError((expected, exps))
        terms[comp] = lead
    return QSymExpr("M", terms)


def _leading_exponents(comp: Composition, n: int) -> tuple[int, ...]:
    return tuple(comp) + (0,) * (n - len(comp))


def _place(comp, positions, n) -> tuple[int, ...]:
    exps = [0] * n
    for pos, val in zip(positions, comp):
        exps[pos] = val
    return tuple(exps)


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
