"""Combinatorial formulas with q and t: integral forms over general
basements, nonsymmetric Hall-Littlewood polynomials, their
quasisymmetric sums, the Hall-Littlewood decomposition, and the
fundamental-basis expansion of the symmetric integral form.

Everything is a weighted sum over non-attacking fillings of an
augmented diagram: x^f q^maj t^coinv times the cell factors of the
filling's repeat set.  ``fillings`` walks the fillings and weighs them
(:func:`fillings._terms`); this module reads the weighed terms and
chooses which shapes and contents to sum and how to spread them.  The
constant-basement sum and the fundamental expansion are symmetric, so
they take only the terms at partition contents, one budgeted walk per
partition, and give each coefficient to the rearrangements of its
partition.  The paper's per-permutation construction of the expansion
stays as its referee and weighs its merges by the definition.  The
basement rule selects the family: identity gives the integral
nonsymmetric form, reversed (applied to the reversed shape) its mirror
variant, and a constant basement gives the symmetric integral form of
the sorted shape.

The Hall-Littlewood oracle shares none of this: it applies the
divided differences of a reduced word of the longest permutation to one
flat integer polynomial, x^l prod_{i<j} (x_i - t x_j), which symmetrizes
it and divides by the Vandermonde in one exact pass.
"""
from __future__ import annotations

import itertools

from .compositions import (
    Composition,
    Partition,
    WeakComposition,
    _count,
    compositions_of_partition,
    enumerate_partitions,
    expand_to_weak,
)
from .fillings import AugmentedFilling, _diagram, _terms, coinv, is_non_attacking, maj
from .polynomial import QtPoly, XPoly, _unflat
from .qsym import QSymExpr, m_to_f, qsym_to_poly, xpoly_to_monomial
from .tableaux import columns


def _partition_sums(shape, nv: int) -> QSymExpr:
    """The constant-basement filling sum in ``nv`` variables as an
    M-expression.  The sum is symmetric, so its coefficient of M_a is its
    coefficient at the partition exponents of a; only those are computed.

    The walk runs once per partition content of |shape| with at most
    ``nv`` parts, with that content as its budget, and the counts of all
    the walks are weighed as one sum, so each repeat set builds its cell
    factors once over all of them.  The cells of a column attack each
    other, so a value fills at most one cell per column, and a content
    whose partial sums exceed those of the sorted shape (one not
    dominated by it) has no filling; its walk is skipped.
    """
    top = list(itertools.accumulate(sorted(shape, reverse=True)))
    contents = [
        lam for lam in enumerate_partitions(shape.size)
        if len(lam) <= nv and all(a <= b for a, b in zip(itertools.accumulate(lam), top))
    ]
    return QSymExpr._trusted("M", (
        (a, c) for e, c in _terms(shape, "const", nv, contents=contents)
        for a in compositions_of_partition(e)
    ))


def macdonald_integral_form(shape, basement: str = "id", nvars: int | None = None) -> XPoly:
    """Weighted sum over all non-attacking fillings of the shape.

    Each filling contributes its monomial times q^maj t^coinv, times
    (1 - q^(leg+1) t^(arm+1)) for every cell repeating its left
    neighbour and (1 - t) for every other cell.  With the identity
    basement and q = t = 0 only the valid augmented fillings survive,
    so the sum collapses to the Demazure atom; with a constant basement
    and q = t = 0 it collapses to the Schur polynomial of the sorted
    shape.

    The constant-basement sum is symmetric, so it is computed at the
    partition exponents alone, as an M-expression (:func:`_partition_sums`),
    and evaluated in ``nvars`` variables (:func:`qsym.qsym_to_poly`).
    """
    shape = WeakComposition(shape)
    n = len(shape)
    nv = n if nvars is None else _count(nvars)
    if basement in ("id", "rev") and nv != n:
        raise ValueError("identity/reversed basements need one variable per row")
    if basement != "const":
        return XPoly._trusted(nv, _terms(shape, basement, nv))
    return qsym_to_poly(_partition_sums(shape, nv), nv)


def ns_hall_littlewood(shape, nvars: int | None = None) -> XPoly:
    """Descentless specialization: one t parameter.

    The identity-basement filling sum over descent-free fillings at
    q = 0: each contributes x^f t^coinv times (1 - t) for every cell
    differing from its left neighbour, because such a filling has
    maj = 0 and every repeat factor is 1 at q = 0.  At t = 0 this is the
    Demazure atom.
    """
    shape = WeakComposition(shape)
    if nvars is not None and _count(nvars) != len(shape):
        raise ValueError("identity basement needs one variable per row")
    return _descentless_sum([shape], len(shape))


def _descentless_sum(shapes, n: int) -> XPoly:
    """The sum of the descentless forms (:func:`ns_hall_littlewood`) of
    weak shapes with n rows: the weighed terms of every shape are added
    straight into one polynomial."""
    return XPoly._trusted(n, (
        term for g in shapes for term in _terms(g, "id", n, descentless=True)
    ))


def hall_littlewood_qsym(a, n: int) -> XPoly:
    """Sum of the descentless forms over all shapes collapsing to ``a``."""
    a = Composition(a)
    n = _count(n)
    if n < len(a):
        raise ValueError("need at least one variable per part")
    return _descentless_sum(expand_to_weak(a, n), n)


def hall_littlewood_qsym_m(a, n: int | None = None) -> QSymExpr:
    """Monomial expansion of the quasisymmetric Hall-Littlewood form.

    Reading the polynomial off the monomial basis requires n >= |a|;
    the quasisymmetry check performed during extraction is itself a
    nontrivial structural property of these sums.
    """
    a = Composition(a)
    n = a.size if n is None else _count(n)
    if n < a.size:
        raise ValueError("need at least |a| variables for faithful extraction")
    return xpoly_to_monomial(hall_littlewood_qsym(a, n))


def hall_littlewood_p(l, n: int) -> XPoly:
    """Hall-Littlewood polynomial as a sum of quasisymmetric pieces."""
    l = Partition(l)
    n = _count(n)
    if n < len(l):
        return XPoly.zero(n)
    return _descentless_sum(
        (g for a in compositions_of_partition(l) for g in expand_to_weak(a, n)), n)


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

    The flat polynomial is keyed by one integer whose digits, lowest
    first, are the exponents of x_1, ..., x_n and then of t, each digit
    of width w = l_1 + n^2.  No exponent reaches w: each of the
    n(n-1)/2 factors x_i - t x_j raises one x exponent by 1, so an x
    exponent stays at most l_1 + n(n-1)/2 and the t exponent at most
    n(n-1)/2, and d_i never raises an exponent.  So multiplying by x_i
    adds w^(i-1), and the digits never carry into each other.
    """
    l = Partition(l)
    n = _count(n)
    if n < len(l):
        return XPoly.zero(n)
    w = (l[0] if l else 0) + n * n
    unit = [w ** i for i in range(n + 1)]  # x_1, ..., x_n, then t
    f = {sum(p * u for p, u in zip(l, unit)): 1}
    for i in range(n):
        for j in range(i + 1, n):
            f = _times_x_minus_tx(f, unit[i], unit[j] + unit[n])
    for low in range(n - 1, 0, -1):
        for i in range(low, n):
            f = _divided_difference(f, unit[i - 1], unit[i], w)
    mult: dict[int, int] = {0: n - len(l)}
    for p in l:
        mult[p] = mult.get(p, 0) + 1
    v = QtPoly.one()
    for m in mult.values():
        for k in range(1, m + 1):
            v = v * QtPoly({(0, e): 1 for e in range(k)})
    return _unflat(n, ((_unpack(k, n, w), c) for k, c in f.items())).div_scalar_exact(v)


def _unpack(key: int, n: int, w: int) -> tuple[int, ...]:
    """The flat key (x exponents + (q_exp, t_exp)) of a packed key of the
    oracle (:func:`hall_littlewood_p_oracle`): its n lowest digits of
    width w, then q^0 and the rest as the t exponent."""
    digits = []
    for _ in range(n):
        key, e = divmod(key, w)
        digits.append(e)
    return (*digits, 0, key)


def _times_x_minus_tx(f: dict, ui: int, tuj: int) -> dict:
    """A packed flat polynomial (:func:`hall_littlewood_p_oracle`) times
    x_i - t x_j, where ``ui`` is the unit of x_i and ``tuj`` the sum of
    the units of x_j and t."""
    out: dict = {}
    for k, c in f.items():
        key = k + ui
        out[key] = out.get(key, 0) + c
        key = k + tuj
        out[key] = out.get(key, 0) - c
    return {k: c for k, c in out.items() if c}


def _divided_difference(f: dict, ui: int, uj: int, w: int) -> dict:
    """d_i f = (f - s_i f) / (x_i - x_(i+1)) of a flat polynomial packed
    in digits of width ``w`` (:func:`hall_littlewood_p_oracle`), where
    ``ui`` and ``uj`` are the units of x_i and x_(i+1).

    Term by term: x_i^a x_(i+1)^b with a > b maps to the sum of
    x_i^u x_(i+1)^(a+b-1-u) over b <= u < a, with a = b to 0, and with
    a < b to the negated image of its mirror x_i^b x_(i+1)^a.  Each next
    u adds ui - uj to the key, so an image's keys are one range,
    starting from x_i^min(a,b) x_(i+1)^(max(a,b)-1).
    """
    out: dict = {}
    step = ui - uj
    for k, c in f.items():
        e = k // ui % w - k // uj % w  # a - b
        if e > 0:
            keys = range(k - uj - e * step, k - uj, step)
        elif e < 0:
            keys, c = range(k - uj, k - uj - e * step, step), -c
        else:
            continue
        for key in keys:
            out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


# -- fundamental expansion of the symmetric integral form -------------------


def standard_filling_reading_word(mu, rows) -> tuple[int, ...]:
    """Entries of the rows of partition shape ``mu`` read column by
    column (:func:`tableaux.columns`), rightmost column first, top to
    bottom within a column."""
    cols = columns([r[:g] for g, r in zip(mu, rows)])
    return tuple(itertools.chain.from_iterable(reversed(cols)))


def j_fundamental_classes(mu):
    """Per-permutation pieces of the fundamental expansion.

    Every filling with a constant basement standardizes (relabelling
    equal entries in reading order: columns right to left, top to
    bottom) to a standard filling σ, so the weighted sum splits into
    one group per σ.  The group of σ holds its merges: σ with labels i
    and i + 1 given one value for each i of a merge set, where i is
    read before i + 1, kept when the merged filling is non-attacking.
    Each merge is weighed by the definition of the filling sum
    (:func:`_in_m`), sharing no packing or weighing with the placement
    walk.  This builds all m! standard fillings; it is the paper's
    construction, kept to referee :func:`macdonald_j_fundamental`.

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
        yield word, rows, _in_m(filter(is_non_attacking, merges))


def _merge(shape, rows, m: int, merged: set) -> AugmentedFilling:
    """The standard filling ``rows`` of 1..m with labels i and i + 1
    sharing a value for each i in ``merged``, over the packed alphabet."""
    value = list(itertools.accumulate((i not in merged for i in range(m)), initial=0))
    packed = tuple(tuple(value[v] for v in row) for row in rows)
    return AugmentedFilling._trusted(shape, packed, "const", m - len(merged))


def _in_m(merges) -> QSymExpr:
    """The M-expansion of constant-basement merges, each weighed in
    ``QtPoly`` arithmetic by its definition: x^exponents q^maj t^coinv
    times (1 - q^(leg+1) t^(arm+1)) for each cell repeating its left
    neighbour and (1 - t) for every other cell.  A merge's alphabet is
    the values it uses, so its exponents, all nonzero, are the
    composition of its term."""
    terms = []
    for f in merges:
        d = _diagram(f.shape)
        w = QtPoly({(maj(f), coinv(f)): 1})
        for (i, j), l1, a1 in zip(d.cells, d.leg1, d.arm1):
            repeat = f.entry(i, j) == f.entry(i, j - 1)
            w = w * (QtPoly.one() - (QtPoly({(l1, a1): 1}) if repeat else QtPoly.t()))
        terms.append((f.exponents(), w))
    return QSymExpr("M", terms)


def macdonald_j_fundamental(mu) -> QSymExpr:
    """Fundamental-basis expansion of the symmetric integral form.

    The form is symmetric, so in |mu| variables its coefficient of M_a
    is its coefficient of x^a, a padded with zeros, and that equals its
    coefficient at the sorted exponents.  So the constant-basement sum
    is taken in |mu| variables at the partition exponents alone, one
    budgeted walk per partition content, as an M-expression
    (:func:`_partition_sums`), and rewritten over the fundamental basis.
    Exact in Z[q,t]; the merges of :func:`j_fundamental_classes` sum to
    the same expansion.
    """
    mu = Partition(mu)
    return m_to_f(_partition_sums(mu, mu.size))
