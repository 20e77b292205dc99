import pytest
from hypothesis import given, settings, strategies as st

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


def test_xpoly_product_does_no_qtpoly_arithmetic(monkeypatch):
    # polynomial and scalar factors alike are multiplied as flat integer
    # terms keyed by x, q and t exponents
    q, t = QtPoly.q(), QtPoly.t()
    x1, x2 = XPoly.variable(2, 1), XPoly.variable(2, 2)
    f, g, c = x1 * (1 - q * t) + 3 * x2 ** 2, x1 * t - x2 + 2, 2 - q + t ** 2
    products = [lambda: f * g, lambda: f * c, lambda: f * -3, lambda: 4 * f, lambda: f * 0,
                lambda: g ** 3]
    expected = [product() for product in products]

    def forbidden(*args, **kwargs):
        raise AssertionError("the product did QtPoly arithmetic")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(QtPoly, name, forbidden)
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


def test_xpoly_div_exact_does_no_qtpoly_arithmetic(monkeypatch):
    # the division runs on integer coefficients keyed by x, q and t exponents
    q, t = QtPoly.q(), QtPoly.t()
    x1, x2, x3 = (XPoly.variable(3, i) for i in (1, 2, 3))
    divisor = (x1 - x2 * t) * (x2 - x3 * q) + 2
    quotient = x1 ** 2 * (1 - q * t) + x3 * t - 3
    product = divisor * quotient
    non_exact = product + t

    def forbidden(*args, **kwargs):
        raise AssertionError("the division did QtPoly arithmetic")

    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__pow__"):
        monkeypatch.setattr(QtPoly, name, forbidden)
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
