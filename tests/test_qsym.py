from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from qschur import compositions, polynomial, qsym, tableaux
from qschur.compositions import (
    Composition,
    coarsens,
    composition_of,
    compositions_of_partition,
    enumerate_compositions,
    enumerate_partitions,
    enumerate_weak_compositions,
    expand_to_weak,
    subset_of,
)
from qschur.fillings import AugmentedFilling
from qschur.pieri import pieri_row
from qschur.polynomial import QtPoly, XPoly
from qschur.qsym import (
    NotQuasisymmetricError,
    QSymExpr,
    demazure_atom,
    express_in_qschur,
    f_to_m,
    fundamental_qsym_poly,
    m_to_f,
    monomial_qsym_poly,
    qschur_in_fundamental,
    qschur_in_monomial,
    qschur_polynomial,
    qsym_to_poly,
    qsym_unit,
    schur_in_monomial_oracle,
    schur_in_qschur,
    transition_matrix,
    xpoly_to_monomial,
)
from qschur.tableaux import (
    CompositionTableau,
    enumerate_comts,
    enumerate_ssafs,
    enumerate_standard_comts,
    enumerate_standard_reverse_tableaux,
    rt_descents,
    rt_to_comt,
)
from qschur.verify import tableau_expansions


def x(n, i):
    return XPoly.variable(n, i)


def test_monomial_qsym_poly():
    assert monomial_qsym_poly((1, 2), 3) == (
        x(3, 1) * x(3, 2) ** 2 + x(3, 1) * x(3, 3) ** 2 + x(3, 2) * x(3, 3) ** 2
    )
    assert monomial_qsym_poly((), 4) == XPoly.one(4)
    assert monomial_qsym_poly((2, 1), 2) == x(2, 1) ** 2 * x(2, 2)
    assert monomial_qsym_poly((1, 1, 1), 2) == XPoly.zero(2)


def test_f_to_m():
    assert f_to_m(qsym_unit("F", (1, 2))) == QSymExpr("M", {(1, 2): 1, (1, 1, 1): 1})
    assert f_to_m(qsym_unit("F", (1,))) == qsym_unit("M", (1,))
    assert f_to_m(qsym_unit("F", (2, 1))) == QSymExpr("M", {(2, 1): 1, (1, 1, 1): 1})


def test_m_to_f_inverse():
    for n in range(0, 7):
        for a in enumerate_compositions(n):
            e = qsym_unit("F", a)
            assert m_to_f(f_to_m(e)) == e


def test_m_to_f_is_the_signed_coarsening_sum():
    # M_a is the sum of (-1)^(len(b) - len(a)) F_b over the b that a
    # coarsens; the reference reads every composition of the degree
    c = QtPoly({(0, 0): 1, (1, 1): -2, (0, 2): 1})
    for m in range(7):
        comps = enumerate_compositions(m)
        for a in comps:
            expected = QSymExpr("F", [(b, c * (-1) ** (len(b) - len(a)))
                                      for b in comps if coarsens(a, b)])
            assert m_to_f(QSymExpr("M", {a: c})) == expected, a


def test_m_to_f_drops_what_cancels():
    # M_(2) = F_(2) - F_(1,1) and M_(1,1) = F_(1,1)
    out = m_to_f(QSymExpr("M", {(2,): 1, (1, 1): 1}))
    assert out == qsym_unit("F", (2,))
    assert (1, 1) not in out.terms


def test_qschur_in_monomial():
    assert qschur_in_monomial((2, 1)) == QSymExpr("M", {(2, 1): 1, (1, 1, 1): 1})
    for f in range(1, 6):
        ones = (1,) * f
        assert qschur_in_monomial(ones) == qsym_unit("M", ones)


def test_qschur_in_fundamental():
    assert qschur_in_fundamental(()) == qsym_unit("F", ())
    assert qschur_in_fundamental((1, 3)) == QSymExpr("F", {(1, 3): 1, (2, 2): 1})
    assert qschur_in_fundamental((2, 2)) == QSymExpr("F", {(2, 2): 1, (1, 2, 1): 1})


def test_demazure_atom():
    assert demazure_atom((4, 0, 0)) == x(3, 1) ** 4
    # more variables than rows pad the shape with empty rows
    assert demazure_atom((1, 0, 2), 4) == x(4, 1) * x(4, 2) * x(4, 3) + x(4, 1) * x(4, 3) ** 2
    with pytest.raises(ValueError, match="below the number of rows"):
        demazure_atom((1, 0, 2), 2)
    # the paper's definition: QS_a is the sum of the Demazure atoms A_g
    # over the weak compositions g with g+ = a; with fewer variables than
    # parts there is no such g and the sum is zero
    for size in range(6):
        for a in enumerate_compositions(size):
            for n in range(7):
                shapes = expand_to_weak(a, n) if n >= len(a) else []
                total = sum((demazure_atom(g, n) for g in shapes), XPoly.zero(n))
                assert qschur_polynomial(a, n) == total, (a, n)


def test_demazure_atom_builds_no_filling(forbid):
    # the atom counts the weights of the composition tableaux with a pinned
    # first column, which are the SSAFs with their basement deleted; every
    # weak shape with <= 3 rows and size <= 4, in up to two more variables
    cases = [(g, n) for parts in range(4) for total in range(5)
             for g in enumerate_weak_compositions(total, parts)
             for n in range(parts, parts + 3)]
    expected = [XPoly(n, ((f.exponents(), 1) for f in enumerate_ssafs(g + (0,) * (n - len(g)))))
                for g, n in cases]
    forbid(AugmentedFilling, ["__init__", "_trusted"], "an atom built an augmented filling")
    for (g, n), out in zip(cases, expected):
        assert demazure_atom(g, n) == out, (g, n)


def _isobaric_bar(i, poly):
    """pi_i - 1 on a dict of integer coefficients keyed by exponent
    tuples, where pi_i f = (x_i f - x_(i+1) s_i f) / (x_i - x_(i+1)),
    applied monomial by monomial with 0-based i."""
    out = {}
    for e, c in poly.items():
        p, q = e[i], e[i + 1]
        # pi_i x_i^p x_(i+1)^q: the complete homogeneous sum from
        # x_i^p x_(i+1)^q to x_i^q x_(i+1)^p when p >= q, zero when
        # p = q - 1, and minus the sum strictly inside the two otherwise
        if p >= q:
            span, sign = range(q, p + 1), 1
        else:
            span, sign = range(p + 1, q), -1
        for k in span:
            f = list(e)
            f[i], f[i + 1] = k, p + q - k
            out[tuple(f)] = out.get(tuple(f), 0) + sign * c
        out[e] = out.get(e, 0) - c
    return {e: c for e, c in out.items() if c}


def _atom_by_operators(g):
    """A_g = pi-bar_w x^lambda: x^g when g is weakly decreasing, and
    otherwise pi-bar_i of the atom of g with parts i, i + 1 swapped, at the
    first ascent i; no tableau or filling code."""
    g = tuple(g)
    for i in range(len(g) - 1):
        if g[i] < g[i + 1]:
            swapped = (*g[:i], g[i + 1], g[i], *g[i + 2:])
            return _isobaric_bar(i, _atom_by_operators(swapped))
    return {g: 1}


def test_demazure_atoms_match_the_operator_oracle():
    # every weak composition with 1 to 4 parts and size at most 6
    cases = [g for n in range(1, 5) for total in range(7)
             for g in enumerate_weak_compositions(total, n)]
    assert len(cases) == 329
    for g in cases:
        assert demazure_atom(g) == XPoly(len(g), _atom_by_operators(g).items()), g


def test_quasisymmetric_schur_polynomials_sum_the_operator_atoms():
    for a, n in (((2, 1, 2), 5), ((3, 1, 2), 6), ((2, 2, 1, 2), 6)):
        total = {}
        for g in expand_to_weak(a, n):
            for e, c in _atom_by_operators(g).items():
                total[e] = total.get(e, 0) + c
        assert qschur_polynomial(a, n) == XPoly(n, total.items()), (a, n)


def test_qschur_polynomial():
    assert qschur_polynomial((1, 2), 2) == x(2, 1) * x(2, 2) ** 2
    assert qschur_polynomial((1, 1, 1), 2) == XPoly.zero(2)


def test_evaluators_read_no_polynomial_back(forbid):
    # each evaluation builds its one result polynomial and reads no
    # other polynomial's terms
    comps = [a for n in range(5) for a in enumerate_compositions(n)]
    q = QtPoly.q()
    terms = {(1, 2): 1 - q, (2,): 3, (1, 1, 1): q, (): 2}
    cases = [(qsym_to_poly, (QSymExpr(basis, terms), n)) for basis in "MF" for n in (0, 2, 4)]
    cases += [(f, (a, n)) for f in (monomial_qsym_poly, fundamental_qsym_poly, qschur_polynomial)
              for a in comps for n in (1, 3, 4)]
    expected = [f(*args) for f, args in cases]
    forbid(XPoly, ["items"], "an evaluator read a polynomial back")
    for (f, args), out in zip(cases, expected):
        assert f(*args) == out, (f.__name__, args)


def test_qschur_polynomial_builds_no_filling(forbid):
    cases = [(a, n) for size in range(5) for a in enumerate_compositions(size) for n in range(5)]
    expected = [qschur_polynomial(a, n) for a, n in cases]
    forbid(AugmentedFilling, ["__init__"], "an augmented filling was built")
    for (a, n), out in zip(cases, expected):
        assert qschur_polynomial(a, n) == out, (a, n)


def test_evaluators_share_one_negative_count_message():
    for call in (lambda: monomial_qsym_poly((1,), -1), lambda: fundamental_qsym_poly((), -1),
                 lambda: qsym_to_poly(QSymExpr("M"), -1), lambda: qsym_to_poly(QSymExpr("F"), -1),
                 lambda: qschur_polynomial((), -1), lambda: qschur_polynomial((1, 2), -1)):
        with pytest.raises(ValueError, match="negative variable count -1"):
            call()


def test_variable_counts_are_integers():
    # 2.0, 2.5 and "2" raised TypeError from range() or from a
    # comparison; every count now follows the integer rule of
    # compositions._integers
    calls = (
        lambda n: qschur_polynomial((2, 1), n),
        lambda n: demazure_atom((1, 2), n),
        lambda n: monomial_qsym_poly((1, 2), n),
        lambda n: fundamental_qsym_poly((1, 2), n),
        lambda n: qsym_to_poly(QSymExpr("M"), n),
    )
    for call in calls:
        assert call(2).n == 2
        for bad in (2.0, 2.5, "2"):
            with pytest.raises(ValueError, match="variable counts are integers"):
                call(bad)


def test_schur_in_qschur():
    assert schur_in_qschur((2, 1)) == QSymExpr("S", {(2, 1): 1, (1, 2): 1})
    assert schur_in_qschur((5,)) == qsym_unit("S", (5,))
    assert schur_in_qschur((2, 2)) == qsym_unit("S", (2, 2))


def test_schur_oracle():
    assert schur_in_monomial_oracle((2, 1)) == QSymExpr(
        "M", {(2, 1): 1, (1, 2): 1, (1, 1, 1): 2}
    )
    assert schur_in_monomial_oracle((1,)) == qsym_unit("M", (1,))


def test_express_in_qschur():
    e = express_in_qschur(qsym_unit("F", (1, 3)))
    assert e == QSymExpr("S", {(1, 3): 1, (2, 2): -1, (1, 2, 1): 1})
    for n in range(1, 7):
        for a in enumerate_compositions(n):
            assert express_in_qschur(qschur_in_fundamental(a)) == qsym_unit("S", a)
            assert express_in_qschur(qschur_in_monomial(a)) == qsym_unit("S", a)
    assert express_in_qschur(qsym_unit("M", (1, 1, 1, 1))) == qsym_unit("S", (1, 1, 1, 1))
    for basis in ("M", "F"):
        expr = qsym_unit(basis, (), 3) + qsym_unit(basis, (1, 3))
        expected = qsym_unit("S", (), 3) + express_in_qschur(qsym_unit(basis, (1, 3)))
        assert express_in_qschur(expr) == expected


_COEFFS = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-3, 3), max_size=3
).map(QtPoly).filter(lambda c: not c.is_constant())


@st.composite
def _expressions(draw, max_size=7):
    """M- or F-expressions of mixed degree with coefficients in Z[q,t]."""
    comps = st.integers(0, max_size).flatmap(
        lambda n: st.sampled_from(enumerate_compositions(n))
    )
    basis = draw(st.sampled_from("MF"))
    return QSymExpr(basis, draw(st.lists(st.tuples(comps, _COEFFS), max_size=6)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_expressions())
def test_express_is_independent_of_the_input_basis(e):
    other = m_to_f(e) if e.basis == "M" else f_to_m(e)
    assert express_in_qschur(e) == express_in_qschur(other)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_expressions())
def test_express_round_trips_through_the_fundamental_expansions(e):
    """Sum coeff * qschur_in_fundamental(comp) over the S result; this
    refills tableaux and never peels."""
    back = QSymExpr("F")
    for comp, c in express_in_qschur(e).terms.items():
        back = back + qschur_in_fundamental(comp).scale(c)
    assert back == (m_to_f(e) if e.basis == "M" else e)


def test_express_keeps_the_exponents_that_do_not_cancel():
    # the q^0 part F(1,3) + F(2,2) is S(1,3), so it peels to zero at (2,2),
    # while the q part q*F(1,3) does not
    q = QtPoly.q()
    e = QSymExpr("F", {(1, 3): 1 + q, (2, 2): 1})
    assert express_in_qschur(e) == QSymExpr("S", {(1, 3): 1 + q, (2, 2): -q, (1, 2, 1): q})


def test_s_expansions_build_no_tableau_objects(forbid):
    """The matrices and both single-composition expansions count refills
    on plain lists: no augmented filling or composition tableau is built."""
    sizes = range(7)
    comps = [a for n in sizes for a in enumerate_compositions(n)]
    matrices = {(b, n): transition_matrix(b, n) for b in "FM" for n in sizes}
    expansions = [(qschur_in_fundamental(a), qschur_in_monomial(a)) for a in comps]
    qsym.transition_matrix.cache_clear()

    reason = "an S expansion built a tableau object"
    forbid(AugmentedFilling, ["__init__"], reason)
    forbid(CompositionTableau, ["__init__"], reason)
    try:
        for (b, n), matrix in matrices.items():
            assert transition_matrix(b, n) == matrix, (b, n)
        for a, (in_f, in_m) in zip(comps, expansions):
            assert qschur_in_fundamental(a) == in_f, a
            assert qschur_in_monomial(a) == in_m, a
    finally:
        qsym.transition_matrix.cache_clear()


def test_s_expansions_run_no_column_refill(forbid):
    """The walk places each entry in its refill row, so with the refill
    forbidden the matrices and the expansions equal what the refill of
    every standard reverse tableau gives (the reference is built with the
    refill allowed); the standard composition tableaux, whose rows are
    the refill of the walk's columns, are checked before it is
    forbidden."""
    sizes = range(7)
    refills = {}  # shape -> refills of that shape, in walk order
    by_descents = {}  # shape -> {descent composition: count}
    for n in sizes:
        for lam in enumerate_partitions(n):
            for t in enumerate_standard_reverse_tableaux(lam):
                sct = rt_to_comt(t)
                refills.setdefault(sct.shape(), []).append(sct)
                counts = by_descents.setdefault(sct.shape(), {})
                beta = composition_of(rt_descents(t), n)
                counts[beta] = counts.get(beta, 0) + 1
    in_f = {a: QSymExpr("F", counts) for a, counts in by_descents.items()}
    qsym.transition_matrix.cache_clear()
    for n in sizes:
        for a in enumerate_compositions(n):
            assert list(enumerate_standard_comts(a)) == refills[a], a

    assert not hasattr(qsym, "_refill")
    forbid(tableaux, ["_refill"], "an S expansion ran the column refill")
    try:
        for n in sizes:
            comps = enumerate_compositions(n)
            for b in "FM":
                rows = transition_matrix(b, n)
                qsym.transition_matrix.cache_clear()
                for a, row in zip(comps, rows):
                    expected = in_f[a] if b == "F" else f_to_m(in_f[a])
                    assert QSymExpr(b, zip(comps, row)) == expected, (b, a)
        for a in ((1, 3), (2, 2), (3, 1, 2), (1, 2, 1, 2), (2, 4), (1, 1, 4)):
            assert qschur_in_fundamental(a) == in_f[a], a
            assert qschur_in_monomial(a) == f_to_m(in_f[a]), a
    finally:
        qsym.transition_matrix.cache_clear()


def test_s_expansions_sum_no_qtpoly(forbid):
    # every composition of size <= 6: each row entry is wrapped once as a
    # constant QtPoly, with no QtPoly sum and no QSymExpr._trusted
    comps = [a for n in range(7) for a in enumerate_compositions(n)]
    expected = [(qschur_in_monomial(a), qschur_in_fundamental(a)) for a in comps]

    reason = "an S expansion summed QtPoly coefficients"
    forbid(QSymExpr, ["_trusted"], reason)
    forbid(QtPoly, ["_trusted"], reason)
    forbid(qsym, ["_accumulate_qt"], reason)
    forbid(polynomial, ["_accumulate_qt"], reason)
    for a, pair in zip(comps, expected):
        assert (qschur_in_monomial(a), qschur_in_fundamental(a)) == pair, a


def test_integer_constructor_sums_equal_keys_and_drops_zero_sums():
    c = Composition
    e = QSymExpr._from_ints("M", [(c((1, 2)), 2), (c((2, 1)), 1), (c((1, 2)), -2),
                                  (c((3,)), 4), (c((3,)), -1), (c((1, 1, 1)), 0)])
    assert e == QSymExpr("M", {(2, 1): 1, (3,): 3})
    assert list(e.terms) == [(2, 1), (3,)]
    assert all(type(v) is QtPoly for v in e.terms.values())
    assert e.to_json() == QSymExpr("M", {(2, 1): 1, (3,): 3}).to_json()
    assert QSymExpr._from_ints("S", []) == QSymExpr("S")


def test_fundamental_expansion_walks_its_own_shape_alone(monkeypatch):
    """Both expansions of S_a walk the standard composition tableaux of
    shape a and meet no tableau of another shape: the spy sees each
    tableau of shape a once, as many as the F coefficients add up to,
    and over M a tableau with d descents counts at the 2^(n-1-d)
    supersets of its descent mask."""
    walk = qsym._standard_walk
    seen = []

    def spy(n, shape, leaf):
        def seeing(lengths, mask, cols):
            seen.append((tuple(lengths), mask))
            leaf(lengths, mask, cols)

        walk(n, shape, seeing)

    monkeypatch.setattr(qsym, "_standard_walk", spy)
    for n in range(8):
        free = max(n - 1, 0)
        for a in enumerate_compositions(n):
            for expand in (qschur_in_fundamental, qschur_in_monomial):
                seen.clear()
                total = sum(c.constant() for c in expand(a).terms.values())
                assert {shape for shape, _ in seen} == {a}, (expand, a)
                if expand is qschur_in_fundamental:
                    assert len(seen) == total, a
                else:
                    assert sum(1 << (free - bin(m).count("1")) for _, m in seen) == total, a


def test_a_cold_matrix_is_one_walk_of_its_degree(monkeypatch):
    """A cold ``transition_matrix(b, n)`` walks degree n once, with no
    shape, and a cached one walks nothing."""
    walk = qsym._standard_walk
    calls = []

    def spy(n, shape, leaf):
        calls.append((n, shape))
        walk(n, shape, leaf)

    monkeypatch.setattr(qsym, "_standard_walk", spy)
    qsym.transition_matrix.cache_clear()
    try:
        for b in "FM":
            for n in range(7):
                calls.clear()
                cold = transition_matrix(b, n)
                assert calls == [(n, None)], (b, n)
                calls.clear()
                assert transition_matrix(b, n) is cold and calls == [], (b, n)
    finally:
        qsym.transition_matrix.cache_clear()


def test_a_cold_matrix_frees_each_row_as_it_freezes_it(monkeypatch):
    """A cold ``transition_matrix(b, n)`` pops every row of the dict its
    walk filled as it freezes that row, so the dict ends empty and the
    rows are not held twice at the peak."""
    rows = qsym._rows
    built = []

    def spy(basis, n, shape=None):
        built.append(rows(basis, n, shape))
        return built[-1]

    monkeypatch.setattr(qsym, "_rows", spy)
    qsym.transition_matrix.cache_clear()
    try:
        for b in "FM":
            for n in range(7):
                built.clear()
                matrix = transition_matrix(b, n)
                assert len(matrix) == len(enumerate_compositions(n)), (b, n)
                assert built == [{}], (b, n)
    finally:
        qsym.transition_matrix.cache_clear()


@lru_cache(maxsize=None)
def _syt_descent_counts(shape):
    """{(descent mask, row of n): count} over the standard Young tableaux
    of the partition ``shape`` (of size n), built by removing the corner
    that holds n: i is a descent, bit i - 1, when i + 1 lies in a
    strictly lower row."""
    n = sum(shape)
    counts = {} if n else {(0, None): 1}
    for r, part in enumerate(shape):
        if r + 1 < len(shape) and shape[r + 1] == part:
            continue  # no corner in row r
        smaller = shape[:r] + ((part - 1,) if part > 1 else ()) + shape[r + 1:]
        for (mask, below), count in _syt_descent_counts(smaller).items():
            if below is not None and r > below:
                mask |= 1 << (n - 2)
            counts[mask, r] = counts.get((mask, r), 0) + count
    return counts


def test_rearrangement_rows_sum_to_the_schur_fundamental_expansion():
    """s_λ is the sum of S_α over the rearrangements α of λ, and Gessel's
    expansion reads s_λ over F off the descent sets of the standard
    Young tableaux of shape λ.  So the F rows of the rearrangements sum
    to those counts, up to degree 11, with no composition tableau built."""
    for n in range(12):
        comps = enumerate_compositions(n)
        index = {c: k for k, c in enumerate(comps)}
        matrix = transition_matrix("F", n)
        for lam in enumerate_partitions(n):
            expected = [0] * len(comps)
            for (mask, _), count in _syt_descent_counts(tuple(lam)).items():
                descents = {i for i in range(1, n) if mask >> (i - 1) & 1}
                expected[index[composition_of(descents, n)]] += count
            summed = [0] * len(comps)
            for a in compositions_of_partition(lam):
                for k, v in enumerate(matrix[index[a]]):
                    summed[k] += v
            assert summed == expected, lam


def test_monomial_rows_follow_the_row_pieri_rule():
    """S_a * S_(1) = sum of S_b over pieri_row(a, 1), and S_(1) = M_(1),
    whose product with M_z is the sum of M over the quasi-shuffles of z
    and (1): 1 inserted at each place, or added to each part.  So the M
    row of a, quasi-shuffled with (1), is the sum of the M rows of the
    b, for every a up to degree 9."""
    def m_rows(n):
        return {a: {c: v for c, v in zip(enumerate_compositions(n), row) if v}
                for a, row in zip(enumerate_compositions(n), transition_matrix("M", n))}

    above = m_rows(0)
    for n in range(10):
        rows, above = above, m_rows(n + 1)
        for a, row in rows.items():
            shuffled = {}
            for z, v in row.items():
                z = tuple(z)
                for i in range(len(z) + 1):
                    key = z[:i] + (1,) + z[i:]
                    shuffled[key] = shuffled.get(key, 0) + v
                for i in range(len(z)):
                    key = z[:i] + (z[i] + 1,) + z[i + 1:]
                    shuffled[key] = shuffled.get(key, 0) + v
            summed = {}
            for b, coeff in pieri_row(a, 1).terms.items():
                for c, v in above[b].items():
                    summed[tuple(c)] = summed.get(tuple(c), 0) + coeff.constant() * v
            assert shuffled == summed, a


def test_monomial_matrix_is_the_refinement_sum_of_the_fundamental_one():
    """Entry (a, b) over M sums the F entries (a, c) over every c that b
    refines, that is, whose cut set lies in that of b: read off
    ``subset_of``, with no mask table."""
    for n in range(9):
        comps = enumerate_compositions(n)
        cuts = [subset_of(c, n) for c in comps]
        for a, f_row, m_row in zip(comps, transition_matrix("F", n), transition_matrix("M", n)):
            expected = [0] * len(comps)
            for k, count in enumerate(f_row):
                if count:
                    for j, cut in enumerate(cuts):
                        if cuts[k] <= cut:
                            expected[j] += count
            assert list(m_row) == expected, (n, a)


def test_monomial_expansion_is_the_refinement_sum_of_the_fundamental_one():
    # in_M adds each refill count at every superset of its descent mask
    # and never calls f_to_m; degree 0 keeps the empty composition
    assert qschur_in_fundamental(()) == QSymExpr("F", {(): 1})
    assert qschur_in_monomial(()) == QSymExpr("M", {(): 1})
    for n in range(8):
        for a in enumerate_compositions(n):
            assert qschur_in_monomial(a) == f_to_m(qschur_in_fundamental(a)), a


@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.sampled_from((8, 8, 8, 9)).flatmap(lambda n: st.sampled_from(enumerate_compositions(n))))
def test_expansions_match_tableau_counts_beyond_suite_bounds(a):
    """Suite bases counts composition tableaux up to size 7.  A size-9
    enumeration costs several size-8 ones, so a quarter of the draws
    have size 9."""
    comps = enumerate_compositions(a.size)
    expansions = (qschur_in_monomial(a), qschur_in_fundamental(a))
    for expansion, counted in zip(expansions, tableau_expansions(a)):
        assert expansion == counted
        row = transition_matrix(expansion.basis, a.size)[comps.index(a)]
        assert QSymExpr(expansion.basis, zip(comps, row)) == expansion


def test_xpoly_to_monomial():
    assert xpoly_to_monomial(qschur_polynomial((1, 2), 3)) == QSymExpr(
        "M", {(1, 2): 1, (1, 1, 1): 1}
    )
    assert xpoly_to_monomial(XPoly.one(2)) == qsym_unit("M", ())
    with pytest.raises(NotQuasisymmetricError) as err:
        xpoly_to_monomial(XPoly.variable(2, 1) - XPoly.variable(2, 2))
    assert set(err.value.witness) == {(1, 0), (0, 1)}
    with pytest.raises(ValueError):
        xpoly_to_monomial(XPoly.variable(1, 1) ** 2)
    # a missing leading monomial is named with the first term of its group
    with pytest.raises(NotQuasisymmetricError) as err:
        xpoly_to_monomial(XPoly(2, {(0, 1): 1}))
    assert err.value.witness == ((1, 0), (0, 1))
    # a group short of a placement names the first placement it lacks
    with pytest.raises(NotQuasisymmetricError) as err:
        xpoly_to_monomial(XPoly(3, {(1, 1, 0): 1, (0, 1, 1): 1}))
    assert err.value.witness == ((1, 1, 0), (1, 0, 1))


def test_xpoly_to_monomial_places_no_quasisymmetric_group(forbid):
    # a quasisymmetric input is accepted by counting each group's terms
    q = QtPoly.q()
    inputs = [qschur_polynomial(a, 4) for n in range(5) for a in enumerate_compositions(n)]
    inputs.append(qsym_to_poly(QSymExpr("M", {(2, 1): 1 + q, (1,): -2, (): q}), 3))
    expected = [xpoly_to_monomial(p) for p in inputs]
    forbid(qsym, ["expand_to_weak"], "a quasisymmetric group was placed")
    for p, out in zip(inputs, expected):
        assert xpoly_to_monomial(p) == out


def test_enumeration_bound_is_safe():
    # entries above the size never produce extra composition weights
    for n in range(1, 6):
        for a in enumerate_compositions(n):
            counts = {}
            for t in enumerate_comts(a, a.size + 2):
                w = t.weight()
                if all(p > 0 for p in w):
                    b = Composition(w)
                    counts[b] = counts.get(b, 0) + 1
            expected = {c: v.constant() for c, v in qschur_in_monomial(a).terms.items()}
            assert counts == expected


def test_wrong_basis_raises():
    m, f, s = (qsym_unit(basis, (1, 2)) for basis in "MFS")
    with pytest.raises(ValueError, match="different bases"):
        m + f
    # degrees 0 and 1 have one composition each, a negative degree none
    for basis, n in (("F", 0), ("M", 0), ("M", 1)):
        assert transition_matrix(basis, n) == ((1,),)
    for call in (lambda: f_to_m(m), lambda: m_to_f(f), lambda: qsym_to_poly(s, 3),
                 lambda: transition_matrix("S", 3), lambda: transition_matrix("F", -1)):
        with pytest.raises(ValueError):
            call()


def test_rendering_builds_no_degree_table(forbid):
    # str and to_json sort by the triangle key: a hand-built term of degree
    # 18 reads no table of the 2^17 compositions of 18, and terms of mixed
    # degree come out by degree, then in each degree's table order
    mixed = [c for n in range(6) for c in enumerate_compositions(n)]
    expr = QSymExpr("F", {c: 1 for c in reversed(mixed)})
    for owner in (compositions, qsym):
        forbid(owner, ["_degree"], "rendering built a degree table")
    assert [c for c, _ in expr.sorted_terms()] == mixed
    m, f = qsym_unit("M", (18,)), qsym_unit("F", (1,) * 18)
    assert (str(m), str(f)) == ("M(18)", "F(" + ",".join("1" * 18) + ")")
    assert m.to_json() == {"basis": "M", "terms": [{"composition": [18], "coeff": [[0, 0, 1]]}]}
    assert f.to_json()["terms"][0]["composition"] == [1] * 18


def test_qsym_expr_algebra_and_errors():
    q = QtPoly.q()
    a, b = QSymExpr("M", {(2, 1): 1 + q, (1,): 2}), qsym_unit("M", (1,), 2)
    assert a - b == QSymExpr("M", {(2, 1): 1 + q})
    assert a.coefficient((2, 1)) == 1 + q and a.coefficient((3,)) == QtPoly.zero()
    assert a and not (b - b)
    with pytest.raises(ValueError, match="unknown basis 'X'"):
        QSymExpr("X")
    # a foreign operand defers, so Python raises TypeError
    for other in (1, "a", 2.5, None):
        with pytest.raises(TypeError):
            a + other
        with pytest.raises(TypeError):
            a - other
        with pytest.raises(TypeError):
            other + a
        assert a.__eq__(other) is NotImplemented and a != other
    assert repr(b) == "QSymExpr[M](2M(1))"
    s = qsym_unit("S", (1, 2))
    assert express_in_qschur(s) is s
    bad = {"basis": "M", "terms": [{"composition": [1, "2"], "coeff": [[0, 0, 1]]}]}
    with pytest.raises(ValueError, match=r"terms\[0\]: 'composition' must be a list of integers"):
        QSymExpr.from_json(bad)


def test_equal_qsym_exprs_hash_equal():
    # the same terms summed in another order hash equal
    q = QtPoly.q()
    a = QSymExpr("M", [((2, 1), q), ((1,), 2), ((2, 1), 1)])
    b = QSymExpr("M", [((1,), 2), ((2, 1), QtPoly.one() + q)])
    assert list(a.terms.items()) != list(b.terms.items())
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_qsym_expr_json_round_trip():
    e = QSymExpr("F", {(1, 3): QtPoly.one() - QtPoly.t(), (2, 2): QtPoly.const(2)})
    assert QSymExpr.from_json(e.to_json()) == e
    # repeated exponent pairs sum, as repeated compositions do
    one = [0, 0, 1]
    repeated_pair = {"basis": "F", "terms": [{"composition": [1], "coeff": [one, one]}]}
    repeated_comp = {"basis": "F", "terms": [{"composition": [1], "coeff": [one]}] * 2}
    assert QSymExpr.from_json(repeated_pair) == QSymExpr("F", {(1,): 2})
    assert QSymExpr.from_json(repeated_comp) == QSymExpr("F", {(1,): 2})


def test_fundamental_poly():
    assert fundamental_qsym_poly((2,), 2) == x(2, 1) ** 2 + x(2, 1) * x(2, 2) + x(2, 2) ** 2
