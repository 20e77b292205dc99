import pytest
from hypothesis import given, settings, strategies as st

from qschur import qsym
from qschur.compositions import Composition, enumerate_compositions, expand_to_weak
from qschur.fillings import AugmentedFilling
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
from qschur.tableaux import CompositionTableau, enumerate_comts
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
    total = XPoly.zero(3)
    for g in expand_to_weak((1, 2), 3):
        total += demazure_atom(g, 3)
    assert total == qschur_polynomial((1, 2), 3)


def test_qschur_polynomial():
    assert qschur_polynomial((1, 2), 2) == x(2, 1) * x(2, 2) ** 2
    assert qschur_polynomial((1, 1, 1), 2) == XPoly.zero(2)


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


def test_s_expansions_build_no_tableau_objects(monkeypatch):
    """The matrices and both single-composition expansions count refills
    on plain lists: no augmented filling or composition tableau is built."""
    sizes = range(7)
    comps = [a for n in sizes for a in enumerate_compositions(n)]
    matrices = {(b, n): transition_matrix(b, n) for b in "FM" for n in sizes}
    expansions = [(qschur_in_fundamental(a), qschur_in_monomial(a)) for a in comps]
    qsym.transition_matrix.cache_clear()

    def forbidden(*args, **kwargs):
        raise AssertionError("an S expansion built a tableau object")

    monkeypatch.setattr(AugmentedFilling, "__init__", forbidden)
    monkeypatch.setattr(CompositionTableau, "__init__", forbidden)
    try:
        for (b, n), matrix in matrices.items():
            assert transition_matrix(b, n) == matrix, (b, n)
        for a, (in_f, in_m) in zip(comps, expansions):
            assert qschur_in_fundamental(a) == in_f, a
            assert qschur_in_monomial(a) == in_m, a
    finally:
        qsym.transition_matrix.cache_clear()


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
