import pytest
from hypothesis import given, settings, strategies as st

from qschur import polynomial
from qschur.polynomial import QtPoly, XPoly


def test_qtpoly_ring_ops():
    q, t = QtPoly.q(), QtPoly.t()
    p = (1 - q * t) * (1 - t)
    assert p.coefficient(0, 0) == 1
    assert p.coefficient(1, 1) == -1
    assert p.coefficient(1, 2) == 1
    assert p.coefficient(0, 1) == -1
    assert p - p == QtPoly.zero()
    assert not (p - p)
    assert (q + 1) ** 2 == q * q + 2 * q + 1
    # the zeroth power is the one of each ring
    assert q ** 0 == QtPoly.one()
    assert XPoly.variable(2, 1) ** 0 == XPoly.one(2)


def test_equal_polynomials_hash_equal():
    # a constant QtPoly equals its int and an XPoly with only the zero
    # exponent vector equals its coefficient, so each hashes like it
    q = QtPoly.q()
    pairs = [(QtPoly.const(3), 3), (QtPoly.const(-7), -7), (XPoly.one(2), 1),
             (XPoly(2, {(0, 0): q}), q), (XPoly(0, {(): 1 - q}), 1 - q),
             (QtPoly.zero(), 0), (XPoly.zero(3), 0), (XPoly.zero(2), QtPoly.zero())]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b), (a, b)
    assert len({QtPoly.const(1), 1}) == 1
    assert {3: "x"}.get(QtPoly.const(3)) == "x"
    assert {q: "q"}.get(XPoly(1, {(0,): q})) == "q"


def test_equal_nonconstant_polynomials_hash_equal():
    # terms summed in another order give equal dicts in another order;
    # the hash of a non-constant polynomial does not see the order
    q = QtPoly.q()
    a = XPoly(2, [((1, 0), q), ((0, 2), 3), ((1, 0), 1)])
    b = XPoly(2, [((0, 2), 3), ((1, 0), QtPoly.one() + q)])
    assert list(a.items()) != list(b.items())
    assert list(a.coefficient((1, 0)).items()) != list(b.coefficient((1, 0)).items())
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_qtpoly_specialize():
    q, t = QtPoly.q(), QtPoly.t()
    p = 1 - q * t ** 2
    assert p.specialize(q=0) == QtPoly.one()
    assert p.specialize(q=1, t=1) == QtPoly.zero()
    assert p.specialize(t=2) == 1 - 4 * q


def test_qtpoly_div_exact():
    q, t = QtPoly.q(), QtPoly.t()
    a = (1 - t) * (1 - q * t) * (1 + t + t ** 2)
    assert a.div_exact(1 - t) == (1 - q * t) * (1 + t + t ** 2)
    with pytest.raises(ValueError):
        (1 - t ** 2).div_exact(1 - q)
    # the leading terms divide, their coefficients do not
    with pytest.raises(ValueError, match="not exact"):
        QtPoly.const(3).div_exact(QtPoly.const(2))


def test_qtpoly_error_paths():
    with pytest.raises(ValueError, match="negative power"):
        QtPoly.t() ** -1
    with pytest.raises(TypeError, match="cannot coerce 'x' to QtPoly"):
        QtPoly.coerce("x")
    with pytest.raises(ZeroDivisionError, match="division by zero polynomial"):
        QtPoly.t().div_exact(QtPoly.zero())


def test_qtpoly_str():
    assert str(QtPoly.zero()) == "0"
    assert str(1 - QtPoly.t()) == "1 - t"
    assert str(QtPoly.q(2) * QtPoly.t() * 3) == "3*q^2*t"
    assert repr(1 - QtPoly.t()) == "QtPoly(1 - t)"


def test_xpoly_str():
    # a constant term is bracketed only when its coefficient has more than
    # one term
    x1, q, t = XPoly.variable(2, 1), QtPoly.q(), QtPoly.t()
    assert str(x1 + 1) == "x1 + 1"
    assert str(x1 - t) == "x1 - t"
    assert str(q * x1 + q + t) == "(q)*x1 + (t + q)"
    assert str(x1 + (1 - t)) == "x1 + (1 - t)"
    assert repr(x1 + 1) == "XPoly[2](x1 + 1)"


def test_xpoly_ring_ops():
    x1, x2 = XPoly.variable(2, 1), XPoly.variable(2, 2)
    p = (x1 + x2) ** 2
    assert p == x1 ** 2 + 2 * x1 * x2 + x2 ** 2
    assert p.coefficient((1, 1)) == QtPoly.const(2)
    assert p.total_degree() == 2
    assert (p - p) == XPoly.zero(2)


def test_xpoly_mixed_scalars():
    x1 = XPoly.variable(2, 1)
    t = QtPoly.t()
    p = x1 * (1 - t)
    assert p.coefficient((1, 0)) == 1 - t
    assert p.specialize(t=1) == XPoly.zero(2)


def test_mixed_operands_defer_to_xpoly():
    # a QtPoly operator returns NotImplemented for an XPoly operand, so
    # the XPoly's reflected operator runs; an int minus an XPoly too
    x, t = XPoly.variable(2, 1), QtPoly.t()
    const = XPoly(2, {(0, 0): t})
    assert t + x == x + t == const + x
    assert t * x == x * t == XPoly(2, {(1, 0): t})
    assert t - x == const - x and x - t == x - const
    assert 1 - x == XPoly.one(2) - x
    with pytest.raises(TypeError):
        t + "x"
    with pytest.raises(TypeError):
        "x" - t


def test_foreign_operands_defer():
    # XPoly operators return NotImplemented for an operand that is not an
    # int, a QtPoly or an XPoly, so Python raises TypeError (they raised
    # AttributeError); a mismatched variable count keeps its ValueError
    x = XPoly.variable(2, 1)
    for other in ("a", 2.5, None, [1]):
        for op in (lambda: x + other, lambda: other + x, lambda: x - other,
                   lambda: other - x, lambda: x * other, lambda: other * x):
            with pytest.raises(TypeError):
                op()
        # equality defers too, so Python falls back to identity
        assert x.__eq__(other) is NotImplemented and x != other
    with pytest.raises(TypeError, match="cannot divide"):
        x.div_exact("a")
    for op in (lambda: x + XPoly.variable(3, 1), lambda: x * XPoly.one(1)):
        with pytest.raises(ValueError, match="variable counts differ"):
            op()


def test_variable_counts_are_integers():
    # XPoly(2.5).n was 2; a count now follows the integer rule of
    # compositions._integers, and None is refused with the same message
    assert XPoly(True).n == 1
    for bad in (2.0, 2.5, "2", None):
        with pytest.raises(ValueError, match="variable counts are integers"):
            XPoly(bad)


def test_terms_are_integers():
    # exponents and coefficients went through int(): 2.5 was 2 and "3"
    # was 3; they now follow the integer rule of compositions._integers
    for bad in (lambda: QtPoly({(2.5, 0): 1}), lambda: QtPoly({(0, "1"): 1}),
                lambda: QtPoly.q(1.5), lambda: QtPoly.t(1.0),
                lambda: XPoly(1, {(2.5,): 1}), lambda: XPoly(2, [((1, "0"), 1)])):
        with pytest.raises(ValueError, match="exponents are integers"):
            bad()
    for bad in (lambda: QtPoly({(1, 0): 2.5}), lambda: QtPoly.const(2.5),
                lambda: QtPoly.const("3"), lambda: QtPoly.const(None)):
        with pytest.raises(ValueError, match="coefficients are integers"):
            bad()
    assert QtPoly({(True, 0): 2}) == 2 * QtPoly.q()
    assert XPoly(1, {(True,): 1}) == XPoly.variable(1, 1)
    # a specialized value of 2.5 was stored as the float coefficient 2.5
    for bad in (lambda: QtPoly.q().specialize(q=2.5), lambda: QtPoly.t().specialize(t="1"),
                lambda: XPoly.variable(1, 1).specialize(q=1.0)):
        with pytest.raises(ValueError, match="specialized values are integers"):
            bad()


def test_constants_are_built_directly(forbid):
    zero = QtPoly.zero()
    forbid(QtPoly, ["_trusted"], "a constant went through the accumulate routine")
    forbid(polynomial, ["_accumulate"], "a constant went through the accumulate routine")
    assert QtPoly.const(0) == zero
    assert not QtPoly.const(0)
    assert hash(QtPoly.const(3)) == hash(3)
    assert dict(QtPoly.const(-2).items()) == {(0, 0): -2}
    assert QtPoly.one() == 1


def test_xpoly_variable_count_mismatch():
    with pytest.raises(ValueError):
        XPoly.variable(2, 1) + XPoly.variable(3, 1)


def test_xpoly_swap_variables():
    x1, x2, x3 = (XPoly.variable(3, i) for i in (1, 2, 3))
    p = x1 ** 2 * x2 + x3
    assert p.swap_variables(1, 2) == x2 ** 2 * x1 + x3
    sym = x1 * x2 + x1 * x3 + x2 * x3
    assert sym.swap_variables(1, 2) == sym
    for i, j in ((0, 1), (1, 4), (4, 4)):
        with pytest.raises(ValueError, match="outside 1..3"):
            p.swap_variables(i, j)


def test_xpoly_product_does_no_qtpoly_arithmetic(forbid):
    # polynomial and scalar factors alike are multiplied as flat integer
    # terms keyed by x, q and t exponents
    q, t = QtPoly.q(), QtPoly.t()
    x1, x2 = XPoly.variable(2, 1), XPoly.variable(2, 2)
    f, g, c = x1 * (1 - q * t) + 3 * x2 ** 2, x1 * t - x2 + 2, 2 - q + t ** 2
    products = [lambda: f * g, lambda: f * c, lambda: f * -3, lambda: 4 * f, lambda: f * 0,
                lambda: g ** 3]
    expected = [product() for product in products]

    forbid(QtPoly, ["__add__", "__radd__", "__mul__", "__rmul__"],
           "the product did QtPoly arithmetic")
    for product, out in zip(products, expected):
        assert product() == out


def test_xpoly_div_exact():
    x1, x2 = XPoly.variable(2, 1), XPoly.variable(2, 2)
    vdm = x1 - x2
    p = (x1 ** 2 - x2 ** 2) * (x1 + 2 * x2)
    assert p.div_exact(vdm) == (x1 + x2) * (x1 + 2 * x2)
    with pytest.raises(ValueError):
        (x1 * x2).div_exact(x1 + x2)
    with pytest.raises(ValueError, match="not exact"):
        (3 * x1).div_exact(2 * x1)


def test_xpoly_div_exact_does_no_qtpoly_arithmetic(forbid):
    # the division runs on integer coefficients keyed by x, q and t exponents
    q, t = QtPoly.q(), QtPoly.t()
    x1, x2, x3 = (XPoly.variable(3, i) for i in (1, 2, 3))
    divisor = (x1 - x2 * t) * (x2 - x3 * q) + 2
    quotient = x1 ** 2 * (1 - q * t) + x3 * t - 3
    product = divisor * quotient
    non_exact = product + t

    forbid(QtPoly, ["__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__pow__"],
           "the division did QtPoly arithmetic")
    assert product.div_exact(divisor) == quotient
    with pytest.raises(ValueError, match="not exact"):
        non_exact.div_exact(divisor)


def test_xpoly_div_scalar_exact():
    x1 = XPoly.variable(1, 1)
    t = QtPoly.t()
    p = x1 * ((1 - t) * (1 + t))
    assert p.div_scalar_exact(1 - t) == x1 * (1 + t)


def test_constructors_sum_pairs_and_drop_zeros():
    p = XPoly(2, [((1, 0), 1), ((0, 1), 2), ((1, 0), QtPoly.t()), ((0, 1), -2)])
    assert dict(p.items()) == {(1, 0): 1 + QtPoly.t()}
    assert XPoly(2, {(1, 1): 0}) == XPoly.zero(2)
    assert QtPoly([((1, 0), 2), ((1, 0), -2), ((0, 2), 1)]) == QtPoly.t(2)


def _rebuilt(p):
    # the same polynomial through the validating constructor
    return QtPoly(dict(p.items())) if isinstance(p, QtPoly) else XPoly(p.n, dict(p.items()))


def test_arithmetic_results_match_the_validating_constructor():
    q, t = QtPoly.q(), QtPoly.t()
    a, b = 1 - q * t + t ** 2, q - t ** 2
    x1, x2 = XPoly.variable(2, 1), XPoly.variable(2, 2)
    f, g = x1 * (1 - t) + x2 ** 2, x1 * t - x2 ** 2 + 3
    results = [
        a + b, a - b, a - a, a * b, a * 0, a.specialize(q=1), a.specialize(t=1, q=-1),
        f + g, f - g, f - f, f * g, f * (1 - q), f * 0, f.specialize(t=1), f.specialize(t=0),
        f.swap_variables(1, 2), (x1 + x2).swap_variables(1, 2),
    ]
    for r in results:
        # equal term lists: no zero or duplicate term survives an operation
        assert list(r.items()) == list(_rebuilt(r).items())


def test_constructors_reject_bad_terms():
    with pytest.raises(ValueError, match="wrong length"):
        XPoly(2, {(1,): 1})
    with pytest.raises(ValueError, match="wrong length"):
        XPoly(2, [((1, 0, 0), 1)])
    with pytest.raises(ValueError, match="negative exponent"):
        XPoly(2, {(1, -1): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        QtPoly({(-1, 0): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        QtPoly([((0, -2), 1)])
    with pytest.raises(ValueError, match="negative exponent"):
        QtPoly.q(-1)
    with pytest.raises(ValueError, match="negative variable count"):
        XPoly(-1)
    for i in (0, 4):
        with pytest.raises(ValueError, match="outside 1..3"):
            XPoly.variable(3, i)


_exponent = st.integers(0, 2)
_coeff = st.integers(-3, 3).filter(bool)
_qtpolys = st.dictionaries(
    st.tuples(_exponent, _exponent), _coeff, min_size=1, max_size=3
).map(QtPoly)


def _xpolys(n):
    return st.dictionaries(
        st.tuples(*[_exponent] * n), _qtpolys, min_size=1, max_size=3
    ).map(lambda terms: XPoly(n, terms))


def _termwise_product(a, b):
    # each pair of terms multiplied as QtPoly values, summed by the
    # validating constructor
    if not isinstance(b, XPoly):
        b = XPoly(a.n, {(0,) * a.n: b})
    return XPoly(a.n, [(tuple(i + j for i, j in zip(e1, e2)), c1 * c2)
                       for e1, c1 in a.items() for e2, c2 in b.items()])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 3).flatmap(lambda n: st.tuples(
    _xpolys(n), st.one_of(_xpolys(n), _qtpolys, st.integers(-3, 3)))))
def test_xpoly_product_is_the_termwise_product(pair):
    a, b = pair
    product = a * b
    assert product == _termwise_product(a, b)
    assert list(product.items()) == list(_rebuilt(product).items())
    assert all(type(e) is tuple for e, _ in product.items())
    if isinstance(b, int):
        assert b * a == product


@st.composite
def _dividend_divisor(draw):
    kind = draw(st.sampled_from(["qt", 2, 3]))
    if kind == "qt":
        return draw(_qtpolys), draw(_qtpolys)
    return draw(_xpolys(kind)), draw(_xpolys(kind))


def _is_constant(p) -> bool:
    if isinstance(p, QtPoly):
        return p.is_constant()
    return all(not any(e) and c.is_constant() for e, c in p.items())


@settings(derandomize=True, max_examples=50, deadline=None)
@given(_dividend_divisor())
def test_div_exact_inverts_multiplication(pair):
    a, b = pair
    assert (a * b).div_exact(b) == a
    if not _is_constant(b):
        with pytest.raises(ValueError):
            (a * b + 1).div_exact(b)
