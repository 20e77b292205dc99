import math
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

import qschur.fillings as fillings
import qschur.macdonald as macdonald
from qschur.compositions import (
    compositions_of_partition,
    enumerate_compositions,
    enumerate_partitions,
    enumerate_weak_compositions,
)
from qschur.fillings import (
    AugmentedFilling,
    arm,
    basement_entry,
    coinv,
    enumerate_fillings,
    leg,
    maj,
    triples,
)
from qschur.macdonald import (
    hall_littlewood_p,
    hall_littlewood_p_oracle,
    hall_littlewood_qsym_m,
    j_fundamental_classes,
    macdonald_integral_form,
    macdonald_j_fundamental,
    ns_hall_littlewood,
    standard_filling_reading_word,
)
from qschur.polynomial import QtPoly, XPoly, _unflat
from qschur.qsym import (
    QSymExpr,
    m_to_f,
    monomial_qsym_poly,
    qschur_in_fundamental,
    qsym_to_poly,
    qsym_unit,
    schur_in_monomial_oracle,
)
from qschur.tableaux import enumerate_ssafs
from qschur.verify import _operator_failures

# Printed comparison values for the alternative one-parameter family
# defined through difference operators (kept only as a fixture; the
# parameter is read as t).  Indexed by composition, coefficients in t.
HIVERT_G13_PRINTED = {
    (1, 3): QtPoly.one(),
    (1, 2, 1): QtPoly.one() - QtPoly.t(2),
    (1, 1, 2): QtPoly.one() - QtPoly.t(2),
    (1, 1, 1, 1): QtPoly.one() - QtPoly.const(2) * QtPoly.t(2) + QtPoly.t(4),
}


def test_single_row_armleg():
    k = 5
    for j in range(1, k + 1):
        assert leg((k,), (1, j)) == k - j
        assert arm((k,), (1, j)) == 0


def test_maj_coinv_pinned():
    assert maj(AugmentedFilling((0, 2), [[], [2, 1]])) == 0
    assert coinv(AugmentedFilling((0, 2), [[], [2, 1]])) == 0
    f = AugmentedFilling((1, 2, 0), [[1], [2, 3], []])
    assert maj(f) == 1
    assert coinv(f) == 1


def test_filling_entries_and_cells_are_checked():
    # an entry outside [1, nvars] has no variable, and a cell outside the
    # augmented diagram has no entry
    for rows, nvars in (([[0]], None), ([[2]], None), ([[3]], 2), ([[-1]], 2)):
        with pytest.raises(ValueError):
            AugmentedFilling((1,), rows, nvars=nvars)
    for rows, rule, message in (([[1], [1]], "id", "row count"), ([[1, 1]], "id", "length"),
                                ([[1]], "diag", "unknown basement rule")):
        with pytest.raises(ValueError, match=message):
            AugmentedFilling((1,), rows, rule)
    f = AugmentedFilling((1, 2), [[1], [2, 1]])
    for cell in ((0, 1), (-1, 1), (1, 2), (2, 3), (3, 0), (2, -1)):
        with pytest.raises(ValueError):
            f.entry(*cell)
    assert [f.entry(2, j) for j in range(3)] == [2, 2, 1]


def test_enumerated_fillings_match_the_public_constructor():
    # the enumerator builds its fillings unchecked, entries by position
    # included; each agrees with the validated construction of its rows
    for n in range(1, 4):
        for total in range(5):
            for g in enumerate_weak_compositions(total, n):
                for rule, nv in (("id", n), ("rev", n), ("const", n), ("const", n + 1)):
                    for descentless in (False, True):
                        for f in enumerate_fillings(g, rule, nv, descentless=descentless):
                            built = AugmentedFilling(g, f.rows, rule, nv)
                            assert f == built and hash(f) == hash(built)
                            assert f.rows == built.rows
                            assert (maj(f), coinv(f)) == (maj(built), coinv(built))


def test_diagram_geometry_derived_once_per_shape(monkeypatch):
    # every filling of a shape reads one table of its geometry, so the
    # triples and attack pairs are derived once, not once per filling
    calls = Counter()
    for name in ("triples", "attack_pairs"):
        def counted(shape, name=name, original=getattr(fillings, name)):
            calls[name] += 1
            return original(shape)

        monkeypatch.setattr(fillings, name, counted)
    fillings._diagram.cache_clear()
    macdonald_integral_form((2, 2, 1), "const", 5)
    assert calls["triples"] <= 1 and calls["attack_pairs"] <= 1


def _decoded(g, nv, counts):
    """The walk's packed counts read back field by field, with the
    layout of ``fillings._radices``, as counts of (repeat cells,
    exponents, maj, coinv)."""
    d = fillings._diagram(tuple(g))
    span, mask_w, base = fillings._radices(d)
    out = Counter()
    for packed, count in counts.items():
        high, low = divmod(packed, mask_w)
        content, mask = divmod(high, 1 << len(d.cells))
        exponents = []
        for _ in range(nv):
            content, e = divmod(content, base)
            exponents.append(e)
        assert content == 0, (g, nv, packed)
        repeats = tuple(s for k, s in enumerate(d.cells) if mask >> k & 1)
        out[(repeats, tuple(exponents), *divmod(low, span))] += count
    return out


def _repeat_cells(f):
    """The cells whose entry equals their left neighbour's, the basement
    entry included."""
    cells = []
    for i, row in enumerate(f.rows, start=1):
        left = basement_entry(f.rule, i, f.n, f.nvars)
        for j, v in enumerate(row, start=1):
            if v == left:
                cells.append((i, j))
            left = v
    return tuple(cells)


def _assert_walk_matches_the_definitions(g):
    n = len(g)
    for rule, nv in (("id", n), ("rev", n), ("const", n), ("const", n + 1)):
        for descentless in (False, True):
            walked = _decoded(g, nv, fillings._counts(g, rule, nv, descentless))
            defined = Counter(
                (_repeat_cells(f), f.exponents(), maj(f), coinv(f))
                for f in enumerate_fillings(g, rule, nv, descentless)
            )
            assert walked == defined, (g, rule, nv, descentless)


def test_walk_tally_matches_the_definitions():
    # the walk packs maj, coinv, the repeat set and the content into one
    # integer as it places entries; read back field by field, its counts
    # are those of the per-filling definitions
    shapes = [g for n in range(5) for total in range(6) for g in enumerate_weak_compositions(total, n)]
    for g in shapes:
        _assert_walk_matches_the_definitions(g)


@settings(derandomize=True, max_examples=6, deadline=None)
@given(st.sampled_from([g for n in (2, 3, 4) for g in enumerate_weak_compositions(6, n)]))
def test_walk_tally_matches_the_definitions_at_size_six(g):
    _assert_walk_matches_the_definitions(g)


def test_group_counts_fillings_in_the_walk_layout():
    # the per-filling reference packs each filling as the walk does
    for n in range(5):
        for total in range(5):
            for g in enumerate_weak_compositions(total, n):
                for rule, nv in (("id", n), ("const", n + 1)):
                    for descentless in (False, True):
                        counts = fillings._counts(g, rule, nv, descentless)
                        grouped = fillings._group(enumerate_fillings(g, rule, nv, descentless))
                        assert grouped == counts, (g, rule, nv, descentless)


def test_filling_sums_build_no_filling_object(monkeypatch):
    # the integral forms, the Hall-Littlewood sums and the fundamental
    # expansion count the walk's leaves; no AugmentedFilling is built and
    # no per-filling statistic is taken on their path
    cases = [
        (macdonald_integral_form, ((2, 1, 1), "id")),
        (macdonald_integral_form, ((0, 2, 2), "rev")),
        (macdonald_integral_form, ((2, 2, 1), "const", 5)),
        (macdonald_integral_form, ((3, 1), "const", 4)),
        (ns_hall_littlewood, ((1, 0, 2),)),
        (hall_littlewood_p, ((2, 1, 1), 4)),
        (macdonald_j_fundamental, ((2, 1, 1),)),
        (macdonald_j_fundamental, ((3, 2),)),
        (macdonald_j_fundamental, ((),)),
    ]
    expected = [fn(*args) for fn, args in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("a filling sum built a filling object")

    monkeypatch.setattr(AugmentedFilling, "__init__", forbidden)
    monkeypatch.setattr(AugmentedFilling, "_trusted", forbidden)
    for name in ("maj", "coinv", "_group"):
        monkeypatch.setattr(fillings, name, forbidden)
    monkeypatch.setattr(macdonald, "_group", forbidden)
    for (fn, args), out in zip(cases, expected):
        assert fn(*args) == out, args
    # with no rows no basement cell reads the rule, so it is checked first
    with pytest.raises(ValueError, match="unknown basement rule"):
        macdonald_integral_form((), "diag")


def test_degenerate_inputs():
    # the empty shape, rows of length 0 and too few variables
    assert macdonald_integral_form((), "id") == XPoly.one(0)
    assert macdonald_integral_form((0, 0), "id") == XPoly.one(2)
    assert macdonald_integral_form((2,), "const", 0) == XPoly.zero(0)
    assert ns_hall_littlewood(()) == XPoly.one(0)
    assert hall_littlewood_p((), 2) == XPoly.one(2)
    assert hall_littlewood_p((1,), 0) == XPoly.zero(0)
    assert macdonald_j_fundamental(()) == qsym_unit("F")
    assert macdonald_j_fundamental((1,)) == QSymExpr("F", {(1,): QtPoly.one() - QtPoly.t()})
    assert list(j_fundamental_classes(())) == [((), (), qsym_unit("M"))]
    assert list(enumerate_fillings((1,), "const", 0)) == []


def test_ssafs_have_zero_stats():
    for g in [(1, 0, 2), (2, 1), (0, 3), (1, 1, 1)]:
        for f in enumerate_ssafs(g):
            assert maj(f) == 0
            assert coinv(f) == 0


def test_filling_enumeration_counts_stable():
    for n in range(1, 5):
        for total in range(1, 5):
            for g in enumerate_weak_compositions(total, n):
                once = list(enumerate_fillings(g, "id", n))
                again = list(enumerate_fillings(g, "id", n))
                assert len(once) == len(again)
                assert len({f.rows for f in once}) == len(once)


def test_integral_form_leading_coefficient():
    for n in range(1, 4):
        for total in range(1, 4):
            for g in enumerate_weak_compositions(total, n):
                if not any(g):
                    continue
                e = macdonald_integral_form(g, "id", n)
                prod = QtPoly.one()
                for i, gi in enumerate(g, start=1):
                    for k in range(1, gi + 1):
                        prod = prod * (
                            QtPoly.one()
                            - QtPoly.q(leg(g, (i, k)) + 1) * QtPoly.t(arm(g, (i, k)) + 1)
                        )
                assert e.coefficient(g) == prod


def test_reversed_basement_variant():
    # the reversed-basement form on the reversed shape matches the
    # identity form up to reversing the variables
    for n in range(1, 4):
        for total in range(1, 4):
            for g in enumerate_weak_compositions(total, n):
                rev = tuple(reversed(g))
                e_rev = macdonald_integral_form(rev, "rev", n)
                assert e_rev.total_degree() == total


def test_hl_qsym_is_quasisymmetric():
    for m in range(1, 5):
        for a in enumerate_compositions(m):
            hall_littlewood_qsym_m(a, m + 1)  # extraction verifies quasisymmetry


def test_l13_differs_from_printed_fixture():
    got = hall_littlewood_qsym_m((1, 3), 5)
    fixture = QSymExpr("M", HIVERT_G13_PRINTED)
    assert got != fixture


def test_hall_littlewood_specializations():
    n = 3
    for m in range(1, 5):
        for lam in enumerate_partitions(m):
            if len(lam) > n:
                continue
            p = hall_littlewood_p(lam, n)
            assert p.specialize(t=0) == qsym_to_poly(schur_in_monomial_oracle(lam), n)
            msym = XPoly.zero(n)
            for a in compositions_of_partition(lam):
                msym += monomial_qsym_poly(a, n)
            assert p.specialize(t=1) == msym
    assert ns_hall_littlewood((3, 0, 0), 3).specialize(t=0) == XPoly.variable(3, 1) ** 3


def test_integral_division_to_hall_littlewood():
    # dividing the q=0 constant-basement form by the short-leg factors
    # recovers the Hall-Littlewood polynomial, as exact division
    for n in range(1, 4):
        for lam in enumerate_partitions(n):
            j0 = macdonald_integral_form(lam, "const", n).specialize(q=0)
            denom = QtPoly.one()
            for i, gi in enumerate(lam, start=1):
                for k in range(1, gi + 1):
                    if leg(lam, (i, k)) == 0:
                        denom = denom * (QtPoly.one() - QtPoly.t(arm(lam, (i, k)) + 1))
            assert j0.div_scalar_exact(denom) == hall_littlewood_p(lam, n)


def test_j_fundamental_stable_in_extra_variables():
    for lam in [(2,), (1, 1), (2, 1)]:
        m = sum(lam)
        expanded = qsym_to_poly(macdonald_j_fundamental(lam), m + 1)
        direct = macdonald_integral_form(lam, "const", m + 1)
        assert expanded == direct


def test_j_fundamental_at_zero_is_schur():
    for m in range(1, 5):
        for lam in enumerate_partitions(m):
            jf = macdonald_j_fundamental(lam)
            specialized = QSymExpr(
                "F", {c: v.specialize(q=0, t=0) for c, v in jf.terms.items()}
            )
            schur = QSymExpr("F")
            for a in compositions_of_partition(lam):
                schur = schur + qschur_in_fundamental(a)
            assert specialized == schur


def test_j_fundamental_classes_partition_the_sum():
    for lam in [(2, 1), (3,), (1, 1, 1)]:
        m = sum(lam)
        words = set()
        total = QSymExpr("M")
        for word, rows, expr in j_fundamental_classes(lam):
            assert sorted(word) == list(range(1, m + 1))
            assert word not in words
            words.add(word)
            total = total + expr
        assert len(words) == math.factorial(m)
        assert m_to_f(total) == macdonald_j_fundamental(lam)


def test_macdonald_operator_suite(check_suite):
    # the constant-basement sum and the fundamental expansion both come
    # from the placement walk; the operator check reads only their output
    check_suite("macdonald-operator")


def test_macdonald_operator_check_catches_symmetric_mutants():
    J = macdonald_integral_form((3, 1), "const", 4)
    assert _operator_failures((3, 1), 4, J) == []
    # q and t swapped in one coefficient off the leading monomial
    terms = dict(J.items())
    c = terms[(2, 1, 1, 0)]
    terms[(2, 1, 1, 0)] = QtPoly({(te, qe): v for (qe, te), v in c.items()})
    assert terms[(2, 1, 1, 0)] != c
    assert _operator_failures((3, 1), 4, XPoly(4, terms))
    # qt added to every rearrangement of (2,1,1,0): still symmetric, with
    # the same leading coefficient, so only the eigenvalue tells
    terms = dict(J.items())
    for e in set(permutations((2, 1, 1, 0))):
        terms[e] = terms[e] + QtPoly({(1, 1): 1})
    mutant = XPoly(4, terms)
    assert all(mutant == mutant.swap_variables(i, i + 1) for i in range(1, 4))
    assert mutant.coefficient((3, 1, 0, 0)) == J.coefficient((3, 1, 0, 0))
    assert _operator_failures((3, 1), 4, mutant)


def test_cell_factors_built_once_per_repeat_set(monkeypatch):
    # the factors depend on the repeat set alone, so the filling sum
    # builds them once per repeat set and not once per filling
    built = []
    cell_factors = macdonald._cell_factors

    def counted(shape, repeats):
        built.append(frozenset(repeats))
        return cell_factors(shape, repeats)

    monkeypatch.setattr(macdonald, "_cell_factors", counted)
    macdonald_integral_form((2, 2, 1), "const", 5)
    fillings = list(enumerate_fillings((2, 2, 1), "const", 5))
    repeat_sets = {
        frozenset(s for s in f.cells() if f.entry(*s) == f.entry(s[0], s[1] - 1))
        for f in fillings
    }
    assert len(fillings) > len(repeat_sets)
    assert sorted(built, key=sorted) == sorted(repeat_sets, key=sorted)


def test_descentless_sum_builds_no_q_factor(monkeypatch):
    # the descentless sum is taken at q = 0, where every repeat factor
    # (1 - q^(leg+1) t^(arm+1)) is 1, so no factor with a q term is built
    built = []
    cell_factors = macdonald._cell_factors

    def counted(shape, repeats):
        built.append(frozenset(repeats))
        return cell_factors(shape, repeats)

    monkeypatch.setattr(macdonald, "_cell_factors", counted)
    p = hall_littlewood_p((2, 2, 1), 4)
    assert built == []
    assert p and all(qe == 0 for _, c in p.items() for (qe, _te), _coeff in c.items())


def test_filling_sums_do_no_qtpoly_arithmetic(monkeypatch):
    # the weight and the sums above it add integer dicts; a QtPoly is
    # only wrapped, never added or multiplied
    cases = [
        (macdonald_integral_form, ((2, 1, 1), "id")),
        (macdonald_integral_form, ((0, 2, 2), "rev")),
        (macdonald_integral_form, ((1, 0, 2), "id")),
        (macdonald_integral_form, ((2, 2, 1), "const", 5)),
        (macdonald_integral_form, ((3, 1), "const", 4)),
        (macdonald_j_fundamental, ((2, 1, 1),)),
        (macdonald_j_fundamental, ((2, 2),)),
        (hall_littlewood_p, ((2, 1, 1), 4)),
    ]
    expected = [fn(*args) for fn, args in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("a filling sum did QtPoly arithmetic")

    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__pow__"):
        monkeypatch.setattr(QtPoly, name, forbidden)
    for (fn, args), out in zip(cases, expected):
        assert fn(*args) == out, args


def _conjugate(lam) -> tuple[int, ...]:
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0))


def _c(lam, q, t):
    """prod over the cells s of lam of (1 - q^a(s) t^(l(s)+1))."""
    conj = _conjugate(lam)
    out = 1
    for i, g in enumerate(lam):
        for j in range(g):
            out = out * (1 - q ** (g - j - 1) * t ** (conj[j] - i))
    return out


def _elementary(k: int, n: int) -> XPoly:
    return XPoly(n, ((tuple(int(i in s) for i in range(n)), 1) for s in combinations(range(n), k)))


def test_integral_form_at_q_equals_t_and_at_q_one():
    # J = c P with P(q = t) the Schur polynomial and P(q = 1) the
    # elementary e_lam', checked against the symmetrization oracle at
    # t = 0 and products of e_k: neither goes through a filling weight
    t = QtPoly.t()
    shapes = [lam for size in range(1, 6) for lam in enumerate_partitions(size)]
    assert len(shapes) == 18
    for lam in shapes:
        n = lam.size
        j = macdonald_integral_form(lam, "const", n)
        schur = hall_littlewood_p_oracle(lam, n).specialize(t=0)
        assert j.specialize(q=2, t=2) == schur * _c(lam, 2, 2), lam
        e = XPoly.one(n)
        for k in _conjugate(lam):
            e = e * _elementary(k, n)
        assert j.specialize(q=1) == e * _c(lam, 1, t), lam


def test_descentless_form_and_oracle_beyond_suite_bounds():
    # suites macdonald and hall-littlewood stop at 4 cells
    for g in [(2, 2, 1), (0, 3, 2), (1, 1, 3), (3, 0, 2), (3, 2, 1), (2, 2, 2), (1, 3, 2), (0, 2, 4)]:
        assert ns_hall_littlewood(g) == macdonald_integral_form(g, "id").specialize(q=0)
    cases = [(lam, n) for size, n in ((5, 4), (5, 5), (6, 4))
             for lam in enumerate_partitions(size) if len(lam) <= n]
    assert len(cases) == 6 + 16
    for lam, n in cases:
        assert hall_littlewood_p(lam, n) == hall_littlewood_p_oracle(lam, n), (lam, n)


def _antisymmetrized_oracle(lam, n) -> XPoly:
    """P_lam by the definition, sum_w sign(w) w(x^lam rho) over the n!
    permutations with rho = prod_{i<j} (x_i - t x_j), divided exactly by
    the Vandermonde (rho at t = 1) and by v_lam(t)."""
    if n < len(lam):
        return XPoly.zero(n)
    rho = XPoly.one(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rho = rho * (XPoly.variable(n, i) - XPoly.variable(n, j) * QtPoly.t())
    base = XPoly.monomial(n, tuple(lam) + (0,) * (n - len(lam))) * rho
    signed = XPoly.zero(n)
    for w in permutations(range(n)):
        inversions = sum(w[a] > w[b] for a, b in combinations(range(n), 2))
        moved = XPoly(n, ((tuple(e[w[k]] for k in range(n)), c) for e, c in base.items()))
        signed = signed - moved if inversions % 2 else signed + moved
    v = QtPoly.one()
    for m in Counter(tuple(lam) + (0,) * (n - len(lam))).values():
        for k in range(1, m + 1):
            v = v * sum((QtPoly.t(e) for e in range(k)), QtPoly.zero())
    return signed.div_exact(rho.specialize(t=1)).div_scalar_exact(v)


def test_oracle_matches_the_antisymmetrized_definition():
    # the divided differences give the Vandermonde quotient exactly
    cases = [(lam, n) for size in range(6) for lam in enumerate_partitions(size)
             for n in range(len(lam), 5)]
    cases += [((3, 2), 5), ((2, 2, 1), 5), ((), 0), ((), 2), ((1,), 0)]
    for lam, n in cases:
        assert hall_littlewood_p_oracle(lam, n) == _antisymmetrized_oracle(lam, n), (lam, n)
    assert hall_littlewood_p_oracle((), 0) == XPoly.one(0)
    assert hall_littlewood_p_oracle((), 2) == XPoly.one(2)
    assert hall_littlewood_p_oracle((1,), 0) == XPoly.zero(0)


def test_oracle_at_t_one_is_the_monomial_symmetric_polynomial():
    for size in range(6):
        for lam in enumerate_partitions(size):
            for n in range(len(lam), 5):
                padded = tuple(lam) + (0,) * (n - len(lam))
                m = XPoly(n, {e: 1 for e in set(permutations(padded))})
                assert hall_littlewood_p_oracle(lam, n).specialize(t=1) == m, (lam, n)


def test_oracle_builds_no_filling_and_divides_by_no_polynomial(monkeypatch):
    # the oracle referees the filling sums, so it shares none of their
    # code, and its divided differences leave no Vandermonde to divide by
    cases = [((3, 1), 4), ((2, 2, 1), 5), ((5,), 5)]
    expected = [hall_littlewood_p_oracle(*args) for args in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle left its own arithmetic")

    monkeypatch.setattr(AugmentedFilling, "__init__", forbidden)
    monkeypatch.setattr(AugmentedFilling, "_trusted", forbidden)
    monkeypatch.setattr(fillings, "_walk", forbidden)
    monkeypatch.setattr(fillings, "_counts", forbidden)
    monkeypatch.setattr(macdonald, "_counts", forbidden)
    monkeypatch.setattr(XPoly, "div_exact", forbidden)
    for args, out in zip(cases, expected):
        assert hall_littlewood_p_oracle(*args) == out, args


@st.composite
def _flat_polynomials(draw):
    """(n, flat polynomial): x exponents + (q_exp, t_exp) -> int."""
    n = draw(st.integers(2, 4))
    keys = st.tuples(*[st.integers(0, 4)] * (n + 2))
    return n, draw(st.dictionaries(keys, st.integers(-3, 3).filter(bool), max_size=6))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_flat_polynomials(), st.data())
def test_divided_difference_laws(poly, data):
    n, f = poly
    i = data.draw(st.integers(1, n - 1))
    d = macdonald._divided_difference
    x = XPoly.variable(n, i) - XPoly.variable(n, i + 1)
    p = _unflat(n, f)
    assert x * _unflat(n, d(f, i)) == p - p.swap_variables(i, i + 1)
    assert d(d(f, i), i) == {}
    if i + 1 < n:
        assert d(d(d(f, i), i + 1), i) == d(d(d(f, i + 1), i), i + 1)


def test_reading_word_example():
    word = standard_filling_reading_word((3, 3, 1), ((5, 6, 1), (2, 7, 4), (3,)))
    assert word == (1, 4, 6, 7, 5, 2, 3)
