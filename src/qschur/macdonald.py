"""Combinatorial formulas with q and t: integral forms over general
basements, nonsymmetric Hall-Littlewood polynomials, their
quasisymmetric sums, the Hall-Littlewood decomposition, and the
fundamental-basis expansion of the symmetric integral form.

Everything is a weighted sum over non-attacking fillings of an
augmented diagram, weighed by one helper: x^f q^maj t^coinv times the
cell factors of the filling's repeat set.  The helper takes the
fillings' counts in the placement walk's packed layout, one integer
per filling holding its maj, coinv, repeat set and content.  The
integral forms and the Hall-Littlewood sums take them from the walk of
``fillings``, which adds the statistics up as it places entries and
builds no filling, and so does the fundamental expansion, read off
the walk in the M basis; the paper's per-permutation construction of
that expansion stays as its referee.  The basement rule selects the
family: identity gives the integral nonsymmetric form, reversed
(applied to the reversed shape) its mirror variant, and a constant
basement gives the symmetric integral form of the sorted shape.  The
diagram's geometry (legs, arms, attacks, triples) is read from
``fillings``.

The Hall-Littlewood oracle shares none of this: it applies the
divided differences of a reduced word of the longest permutation to one
flat integer polynomial, x^l prod_{i<j} (x_i - t x_j), which symmetrizes
it and divides by the Vandermonde in one exact pass.
"""
from __future__ import annotations

import itertools
import math

from .compositions import (
    Composition,
    Partition,
    WeakComposition,
    compositions_of_partition,
    enumerate_compositions,
    expand_to_weak,
)
from .fillings import AugmentedFilling, _counts, _diagram, _group, _radices, is_non_attacking
from .polynomial import QtPoly, XPoly, _unflat
from .qsym import QSymExpr, m_to_f, xpoly_to_monomial


def _one_minus_t_power(k: int) -> dict:
    """(1 - t)^k as a ``{(q_exp, t_exp): int}`` dict: a signed binomial row."""
    return {(0, j): (-1) ** j * math.comb(k, j) for j in range(k + 1)}


def _cell_factors(shape, repeats) -> dict:
    """Product over the cells of (1 - q^(leg+1) t^(arm+1)) for a cell in
    ``repeats`` (it repeats its left neighbour) and (1 - t) otherwise, as
    a ``{(q_exp, t_exp): int}`` dict."""
    d = _diagram(shape)
    w = _one_minus_t_power(shape.size - len(repeats))
    for s, l1, a1 in zip(d.cells, d.leg1, d.arm1):
        if s in repeats:
            shifted = dict(w)
            for (qe, te), c in w.items():
                key = (qe + l1, te + a1)
                shifted[key] = shifted.get(key, 0) - c
            w = shifted
    return w


def _weigh(shape, counts, nv: int, descentless: bool = False) -> list:
    """The ``(exponents, coefficient)`` terms of a filling sum in ``nv``
    variables, from its fillings' counts in the walk's packed layout
    (:func:`fillings._counts` or :func:`fillings._group`): x^exponents
    q^maj t^coinv times the cell factors of the repeat set.

    The counts are grouped by repeat mask, so each repeat set builds its
    factor product once; the factors depend on it alone.  A count's low
    field keys q^maj t^coinv as ``maj * span + coinv``, so counts times
    factor terms are added straight into one integer dict per content,
    read as an exponent vector and wrapped as a ``QtPoly`` once at the
    end.  A descentless sum is taken at q = 0, where every repeat factor
    is 1.
    """
    d = _diagram(shape)
    span, mask_w, base = _radices(d)
    by_mask: dict = {}
    for packed, count in counts.items():
        high, low = divmod(packed, mask_w)
        content, mask = divmod(high, 1 << len(d.cells))
        by_mask.setdefault(mask, []).append((content, low, count))
    sums: dict = {}
    for mask, tallies in by_mask.items():
        repeats = tuple(s for k, s in enumerate(d.cells) if mask >> k & 1)
        if descentless:
            factor = _one_minus_t_power(shape.size - len(repeats))
        else:
            factor = _cell_factors(shape, repeats)
        shifts = [(qe * span + te, v) for (qe, te), v in factor.items()]
        for content, low, count in tallies:
            acc = sums.setdefault(content, {})
            for shift, v in shifts:
                key = low + shift
                acc[key] = acc.get(key, 0) + count * v
    return [
        (tuple(content // base ** i % base for i in range(nv)),
         QtPoly._trusted((divmod(key, span), v) for key, v in acc.items()))
        for content, acc in sums.items()
    ]


def macdonald_integral_form(shape, basement: str = "id", nvars: int | None = None) -> XPoly:
    """Weighted sum over all non-attacking fillings of the shape.

    Each filling contributes its monomial times q^maj t^coinv, times
    (1 - q^(leg+1) t^(arm+1)) for every cell repeating its left
    neighbour and (1 - t) for every other cell.  With the identity
    basement and q = t = 0 only the valid augmented fillings survive,
    so the sum collapses to the Demazure atom; with a constant basement
    and q = t = 0 it collapses to the Schur polynomial of the sorted
    shape.
    """
    shape = WeakComposition(shape)
    n = len(shape)
    nv = n if nvars is None else int(nvars)
    if basement in ("id", "rev") and nv != n:
        raise ValueError("identity/reversed basements need one variable per row")
    return XPoly(nv, _weigh(shape, _counts(shape, basement, nv), nv))


def ns_hall_littlewood(shape, nvars: int | None = None) -> XPoly:
    """Descentless specialization: one t parameter.

    The identity-basement filling sum over descent-free fillings at
    q = 0: each contributes x^f t^coinv times (1 - t) for every cell
    differing from its left neighbour, because such a filling has
    maj = 0 and every repeat factor is 1 at q = 0.  At t = 0 this is the
    Demazure atom.
    """
    shape = WeakComposition(shape)
    n = len(shape)
    nv = n if nvars is None else int(nvars)
    if nv != n:
        raise ValueError("identity basement needs one variable per row")
    return XPoly(nv, _weigh(shape, _counts(shape, "id", nv, True), nv, descentless=True))


def hall_littlewood_qsym(a, n: int) -> XPoly:
    """Sum of the descentless forms over all shapes collapsing to ``a``."""
    a = Composition(a)
    if n < len(a):
        raise ValueError("need at least one variable per part")
    return XPoly(n, (
        term for g in expand_to_weak(a, n) for term in ns_hall_littlewood(g, n).items()
    ))


def hall_littlewood_qsym_m(a, n: int | None = None) -> QSymExpr:
    """Monomial expansion of the quasisymmetric Hall-Littlewood form.

    Reading the polynomial off the monomial basis requires n >= |a|;
    the quasisymmetry check performed during extraction is itself a
    nontrivial structural property of these sums.
    """
    a = Composition(a)
    if n is None:
        n = max(a.size, len(a))
    if n < a.size:
        raise ValueError("need at least |a| variables for faithful extraction")
    return xpoly_to_monomial(hall_littlewood_qsym(a, n))


def hall_littlewood_p(l, n: int) -> XPoly:
    """Hall-Littlewood polynomial as a sum of quasisymmetric pieces."""
    l = Partition(l)
    if n < len(l):
        return XPoly.zero(n)
    return XPoly(n, (
        term for a in compositions_of_partition(l) for term in hall_littlewood_qsym(a, n).items()
    ))


def hall_littlewood_p_oracle(l, n: int) -> XPoly:
    """Hall-Littlewood polynomial by divided differences.

    P_l = v_l(t)^-1 sum_w w(x^l prod_{i<j} (x_i - t x_j) / (x_i - x_j))
    (Macdonald, Ch. III (2.1)), and sum_w w(f / a) = d_w0 f for the
    Vandermonde a, where d_w0 = a^-1 sum_w sign(w) w is the product of
    the n(n-1)/2 divided differences d_i of a reduced word of the
    longest permutation.  So x^l prod_{i<j} (x_i - t x_j) is built as one
    flat integer polynomial, d_i is applied term by term in closed form,
    and the result is divided exactly by the multiplicity factor v_l(t).
    The word is applied from the right end, d_(n-1), then d_(n-2) d_(n-1),
    and so on, because the exponents are smallest there and d_i makes
    |e_i - e_(i+1)| terms of a monomial.  No division by the Vandermonde,
    no sum over permutations, and independent of every filling-based
    path.
    """
    l = Partition(l)
    if n < len(l):
        return XPoly.zero(n)
    f = {tuple(l) + (0,) * (n - len(l)) + (0, 0): 1}
    for i in range(n):
        for j in range(i + 1, n):
            f = _times_x_minus_tx(f, i, j)
    for low in range(n - 1, 0, -1):
        for i in range(low, n):
            f = _divided_difference(f, i)
    mult: dict[int, int] = {0: n - len(l)}
    for p in l:
        mult[p] = mult.get(p, 0) + 1
    v = QtPoly.one()
    for m in mult.values():
        for k in range(1, m + 1):
            v = v * QtPoly({(0, e): 1 for e in range(k)})
    return _unflat(n, f).div_scalar_exact(v)


def _times_x_minus_tx(f: dict, i: int, j: int) -> dict:
    """A flat polynomial (x exponents + (q_exp, t_exp) -> int) times
    x_i - t x_j, indices 0-based."""
    out: dict = {}
    for k, c in f.items():
        up = list(k)
        up[i] += 1
        key = tuple(up)
        out[key] = out.get(key, 0) + c
        up[i] -= 1
        up[j] += 1
        up[-1] += 1
        key = tuple(up)
        out[key] = out.get(key, 0) - c
    return {k: c for k, c in out.items() if c}


def _divided_difference(f: dict, i: int) -> dict:
    """d_i f = (f - s_i f) / (x_i - x_(i+1)) of a flat polynomial
    (x exponents + (q_exp, t_exp) -> int), i 1-based.

    Term by term: x_i^a x_(i+1)^b with a > b maps to the sum of
    x_i^u x_(i+1)^(a+b-1-u) over b <= u < a, with a = b to 0, and with
    a < b to the negated image of its mirror x_i^b x_(i+1)^a.
    """
    out: dict = {}
    for k, c in f.items():
        a, b = k[i - 1], k[i]
        if a == b:
            continue
        if a < b:
            a, b, c = b, a, -c
        head, tail = k[:i - 1], k[i + 1:]
        for u in range(b, a):
            key = head + (u, a + b - 1 - u) + tail
            out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


# -- fundamental expansion of the symmetric integral form -------------------


def standard_filling_reading_word(mu, rows) -> tuple[int, ...]:
    """Entries read column by column, rightmost column first, top to
    bottom within a column."""
    mu = tuple(mu)
    width = mu[0] if mu else 0
    word = []
    for k in range(width, 0, -1):
        for i, g in enumerate(mu, start=1):
            if g >= k:
                word.append(rows[i - 1][k - 1])
    return tuple(word)


def j_fundamental_classes(mu):
    """Per-permutation pieces of the fundamental expansion.

    Every filling with a constant basement standardizes (relabelling
    equal entries in reading order: columns right to left, top to
    bottom) to a standard filling σ, so the weighted sum splits into
    one group per σ.  The group of σ holds its merges: σ with labels i
    and i + 1 given one value for each i of a merge set, where i is
    read before i + 1, kept when the merged filling is non-attacking.
    Each merge is counted by the per-filling definitions and weighed as
    in the filling sum, and its packed content is the composition of
    its monomial term.  This builds all m! standard fillings; it is the
    paper's construction, kept to referee :func:`macdonald_j_fundamental`.

    Yields (reading word, standard rows, M-expansion of the group).
    """
    mu = Partition(mu)
    m = mu.size
    for values in itertools.permutations(range(1, m + 1)):
        it = iter(values)
        rows = tuple(tuple(next(it) for _ in range(g)) for g in mu)
        word = standard_filling_reading_word(mu, rows)
        place = {v: k for k, v in enumerate(word)}
        mergeable = [i for i in range(1, m) if place[i] < place[i + 1]]
        merges = (
            _merge(mu, rows, m, set(chosen))
            for r in range(len(mergeable) + 1)
            for chosen in itertools.combinations(mergeable, r)
        )
        yield word, rows, _in_m(mu, _group(filter(is_non_attacking, merges)))


def _merge(shape, rows, m: int, merged: set) -> AugmentedFilling:
    """The standard filling ``rows`` of 1..m with labels i and i + 1
    sharing a value for each i in ``merged``, over the packed alphabet."""
    value = list(itertools.accumulate((i not in merged for i in range(m)), initial=0))
    packed = tuple(tuple(value[v] for v in row) for row in rows)
    return AugmentedFilling._trusted(shape, packed, "const", m - len(merged))


def _in_m(mu: Partition, counts) -> QSymExpr:
    """The M-expansion of constant-basement filling counts of ``mu``
    whose contents, in |mu| variables, have their nonzero entries first:
    each content, its zeros dropped, is the composition of its term."""
    return QSymExpr("M", ((tuple(filter(None, e)), v) for e, v in _weigh(mu, counts, mu.size)))


def macdonald_j_fundamental(mu) -> QSymExpr:
    """Fundamental-basis expansion of the symmetric integral form.

    The form is symmetric, so in |mu| variables its coefficient of M_a
    is its coefficient of x^a, a padded with zeros.  So the placement
    walk with a constant basement runs once in |mu| variables, counts
    only the fillings whose content is such an a, and the sum of those
    is read in the M basis and rewritten over the fundamental basis.
    Exact in Z[q,t]; the merges of :func:`j_fundamental_classes` sum to
    the same expansion.
    """
    mu = Partition(mu)
    d = _diagram(mu)
    _, mask_w, base = _radices(d)
    unit = mask_w << len(d.cells)
    leading = {sum(p * base ** i for i, p in enumerate(a)) for a in enumerate_compositions(mu.size)}
    counts = _counts(mu, "const", mu.size, keep=lambda packed: packed // unit in leading)
    return m_to_f(_in_m(mu, counts))
