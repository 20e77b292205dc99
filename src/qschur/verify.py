"""Named property suites with bounded exhaustive checks.

This module is the one definition of every exhaustive property check:
the command line runs the suites at their default bounds and the test
suite runs them at its own.  Each suite takes its bounds as keyword
arguments and returns ``(cases_checked, failures)``: the number of
objects it checked and a list of failure descriptions (empty means
the suite passed).  A suite that checked no case proves nothing, so
callers treat zero cases as a failure.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Callable

from .compositions import (
    composition_of,
    compositions_of_partition,
    enumerate_compositions,
    enumerate_partitions,
    enumerate_weak_compositions,
    expand_to_weak,
    subset_of,
    triangle_cmp,
)
from .fillings import _terms, enumerate_fillings, is_ssaf_filling
from .insertion import commutation_check, schensted_insert, skyline_insert, skyline_uninsert
from .pieri import pieri_col, pieri_row, product_qschur, product_qschur_oracle, rem
from .polynomial import QtPoly, XPoly
from .qsym import (
    QSymExpr,
    demazure_atom,
    equals_fundamental_shape,
    equals_monomial_shape,
    m_to_f,
    monomial_qsym_poly,
    qschur_in_fundamental,
    qschur_in_monomial,
    qschur_polynomial,
    qsym_to_poly,
    qsym_unit,
    schur_in_monomial_oracle,
    transition_matrix,
)
from .macdonald import (
    hall_littlewood_p,
    hall_littlewood_p_oracle,
    hall_littlewood_qsym,
    j_fundamental_classes,
    macdonald_integral_form,
    macdonald_j_fundamental,
    ns_hall_littlewood,
)
from .tableaux import (
    CompositionTableau,
    ReverseTableau,
    comt_descents,
    comt_to_ssaf,
    enumerate_comts,
    enumerate_reverse_tableaux,
    enumerate_ssafs,
    enumerate_standard_reverse_tableaux,
    is_comt,
    rt_descents,
    rt_to_ssaf,
    ssaf_to_comt,
    ssaf_to_rt,
)

SuiteResult = tuple[int, list[str]]


def suite_core(max_size: int = 6) -> SuiteResult:
    """Composition counts, the subset encoding, the triangle order (total,
    antisymmetric, transitive, descending along the enumeration) and weak expansions."""
    cases, fails = 0, []
    for n in range(0, max_size + 1):
        comps = enumerate_compositions(n)
        cases += len(comps)
        if len(comps) != (1 if n == 0 else 2 ** (n - 1)):
            fails.append(f"composition count wrong for n={n}")
        for b in comps:
            if composition_of(subset_of(b, n), n) != b:
                fails.append(f"subset round trip fails for {tuple(b)}")
        if any(triangle_cmp(a, b) <= 0 for a, b in zip(comps, comps[1:])):
            fails.append(f"compositions of {n} not strictly descending in the triangle order")
        for a, b in itertools.combinations(comps, 2):
            if triangle_cmp(a, b) != -triangle_cmp(b, a) or triangle_cmp(a, b) == 0:
                fails.append(f"triangle order not antisymmetric on {a},{b}")
        for a, b, c in itertools.permutations(comps, 3):
            if triangle_cmp(a, b) > 0 and triangle_cmp(b, c) > 0 and triangle_cmp(a, c) <= 0:
                fails.append(f"triangle order not transitive on {a},{b},{c}")
        for a in comps:
            for nn in range(len(a), max_size + 2):
                if len(expand_to_weak(a, nn)) != math.comb(nn, len(a)):
                    fails.append(f"weak expansion count wrong for {tuple(a)},{nn}")
    return cases, fails


def suite_tableaux(max_size: int = 5, max_entry: int | None = None) -> SuiteResult:
    """Composition tableaux of size <= max_size with entries <= max_entry
    (default max_size + 1) against their fillings and reverse tableaux,
    and the count, column refill and descent set of standard reverse
    tableaux."""
    if max_entry is None:
        max_entry = max_size + 1
    cases, fails = 0, []
    for n in range(1, max_size + 1):
        for a in enumerate_compositions(n):
            for t in enumerate_comts(a, max_entry):
                cases += 1
                if not is_comt(t):
                    fails.append(f"enumerated non-tableau {t.rows}")
                    continue
                f = comt_to_ssaf(t)
                if not is_ssaf_filling(f):
                    fails.append(f"flattened tableau fails filling checks {t.rows}")
                if ssaf_to_comt(f) != t:
                    fails.append(f"round trip broken for {t.rows}")
                if tuple(f.weight()) != tuple(t.weight()):
                    fails.append(f"weight not preserved for {t.rows}")
                if rt_to_ssaf(ssaf_to_rt(f), n=len(f.shape)).rows != f.rows:
                    fails.append(f"reverse tableau round trip broken for {t.rows}")
                for i, row in enumerate(f.rows, start=1):
                    if row and row[0] != i:
                        fails.append(f"first column of row {i} is {row[0]} in {f.rows}")
                for col in itertools.zip_longest(*f.rows):
                    values = [v for v in col if v is not None]
                    if len(values) != len(set(values)):
                        fails.append(f"repeated entry in a column of {f.rows}")
    for k in range(1, max_size + 1):
        for lam in enumerate_partitions(k):
            standard = list(enumerate_standard_reverse_tableaux(lam))
            cases += len(standard)
            hooks = math.prod(p - j + sum(1 for q in lam[i + 1:] if q > j)
                              for i, p in enumerate(lam) for j in range(p))
            if len(standard) != math.factorial(k) // hooks:  # the hook length formula
                fails.append(f"{len(standard)} standard reverse tableaux of shape {tuple(lam)}")
            for t in standard:
                f = rt_to_ssaf(t)
                if ssaf_to_rt(f) != t:
                    fails.append(f"column refill round trip broken for {t.rows}")
                if comt_descents(ssaf_to_comt(f)) != rt_descents(t):
                    fails.append(f"column refill changed the descent set of {t.rows}")
                for j in range(max(lam)):
                    col_t = sorted(row[j] for row in t.rows if len(row) > j)
                    col_f = sorted(r[j] for r in f.rows if len(r) > j)
                    if col_t != col_f:
                        fails.append(f"column multiset changed for {t.rows}")
    return cases, fails


def row_bumping_check(t: ReverseTableau, x: int, xp: int) -> bool:
    """Both clauses of the row bumping statement on concrete paths."""
    r1 = schensted_insert(t, x)
    r2 = schensted_insert(r1.result, xp)
    path1, new1 = r1.path, r1.new_cell
    path2, new2 = r2.path, r2.new_cell
    col1 = {i: j for i, j in path1}
    col2 = {i: j for i, j in path2}
    shared = set(col1) & set(col2)
    if x >= xp:
        if not all(col1[i] < col2[i] for i in shared):
            return False
        return new1[1] < new2[1] and new1[0] >= new2[0]
    if not all(col2[i] <= col1[i] for i in shared):
        return False
    return new2[1] <= new1[1] and new2[0] > new1[0]


def augmented_row_uniqueness_check(t: CompositionTableau, k: int) -> bool:
    """After insertion, no lower row shares the augmented row's length."""
    res = skyline_insert(t, k)
    rows = res.result.rows
    i = res.augmented_row
    return all(len(rows[r]) != len(rows[i]) for r in range(i + 1, len(rows)))


def suite_insertion(max_size: int = 5, max_entry: int | None = None) -> SuiteResult:
    """Skyline insertion into composition tableaux, and row bumping in
    reverse tableaux, with tableau entries <= max_entry (default
    max_size) and inserted letters <= max_size + 1."""
    if max_entry is None:
        max_entry = max_size
    cases, fails = 0, []
    kmax = max_size + 1
    for n in range(1, max_size + 1):
        for a in enumerate_compositions(n):
            for t in enumerate_comts(a, max_entry):
                for k in range(1, kmax + 1):
                    cases += 1
                    res = skyline_insert(t, k)
                    if not is_comt(res.result):
                        fails.append(f"insertion broke {t.rows} <- {k}")
                    if res.result.size != t.size + 1:
                        fails.append(f"insertion did not add one cell to {t.rows} <- {k}")
                    if not commutation_check(t, k):
                        fails.append(f"commutation fails for {t.rows} <- {k}")
                    if not augmented_row_uniqueness_check(t, k):
                        fails.append(f"augmented row not unique for {t.rows} <- {k}")
                    length = len(res.result.rows[res.augmented_row])
                    try:
                        s, kk = skyline_uninsert(res.result, length)
                    except Exception as e:  # pragma: no cover
                        fails.append(f"uninsert raised on {t.rows} <- {k}: {e}")
                        continue
                    if s != t or kk != k:
                        fails.append(f"uninsert mismatch for {t.rows} <- {k}")
    for m in range(1, min(max_size, 5) + 1):
        for lam in enumerate_partitions(m):
            for t in enumerate_reverse_tableaux(lam, max_entry):
                for x in range(1, kmax + 1):
                    for xp in range(1, kmax + 1):
                        cases += 1
                        if not row_bumping_check(t, x, xp):
                            fails.append(f"row bumping fails on {t.rows}, {x}, {xp}")
    return cases, fails


def tableau_expansions(a) -> tuple[QSymExpr, QSymExpr]:
    """The M and F expansions of S_a counted off the composition tableaux
    of shape a with entries up to |a|: by weight, and the standard ones
    by descent composition."""
    n = sum(a)
    by_weight, by_descents = Counter(), Counter()
    for t in enumerate_comts(a, n):
        if all(w := t.weight()):
            by_weight[w] += 1
        if t.is_standard():
            by_descents[composition_of(comt_descents(t), n)] += 1
    return QSymExpr("M", by_weight), QSymExpr("F", by_descents)


def suite_bases(max_size: int = 6) -> SuiteResult:
    """The M and F expansions equal the composition tableau counts, the
    M/F coincidence shapes are classified exactly, the transition matrices
    are unitriangular and their rows equal the expansions, the
    rearrangement sums match the reverse-tableau Schur oracle and the
    abstract expansions evaluate to the polynomials."""
    cases, fails = 0, []
    for n in range(0, max_size + 1):
        comps = enumerate_compositions(n)
        expansions = {"M": [], "F": []}
        for a in comps:
            cases += 1
            in_m, in_f = qschur_in_monomial(a), qschur_in_fundamental(a)
            expansions["M"].append(in_m)
            expansions["F"].append(in_f)
            counted_m, counted_f = tableau_expansions(a)
            if in_m != counted_m:
                fails.append(f"monomial expansion disagrees with tableau counts at {tuple(a)}")
            if in_f != counted_f:
                fails.append(f"fundamental expansion disagrees with tableau counts at {tuple(a)}")
            if (in_m == qsym_unit("M", a)) != equals_monomial_shape(a):
                fails.append(f"monomial coincidence misclassified at {tuple(a)}")
            if (in_f == qsym_unit("F", a)) != equals_fundamental_shape(a):
                fails.append(f"fundamental coincidence misclassified at {tuple(a)}")
        for basis in ("M", "F"):
            cases += 1
            mat = transition_matrix(basis, n)
            for i, expansion in enumerate(expansions[basis]):
                if QSymExpr(basis, zip(comps, mat[i])) != expansion:
                    fails.append(f"matrix row {tuple(comps[i])} ({basis}) is not its expansion")
                if mat[i][i] != 1:
                    fails.append(f"diagonal not 1 at {tuple(comps[i])} ({basis})")
                for j in range(i):
                    if mat[i][j] != 0:
                        fails.append(
                            f"matrix not triangular at {tuple(comps[i])},{tuple(comps[j])}"
                        )
    for m in range(1, min(max_size, 6) + 1):
        for lam in enumerate_partitions(m):
            cases += 1
            total = None
            for a in compositions_of_partition(lam):
                e = qschur_in_monomial(a)
                total = e if total is None else total + e
            if total != schur_in_monomial_oracle(lam):
                fails.append(f"oracle mismatch for shape {tuple(lam)}")
    for n in range(1, min(max_size, 5) + 1):
        for a in enumerate_compositions(n):
            cases += 1
            direct = qschur_polynomial(a, 5)
            via_m = qsym_to_poly(qschur_in_monomial(a), 5)
            if direct != via_m:
                fails.append(f"polynomial/abstract disagreement at {tuple(a)}")
    return cases, fails


def suite_product(max_size: int = 6) -> SuiteResult:
    """The quasi-shuffle product equals the polynomial product for every
    pair of compositions of total size <= max_size, and S_a times the
    Schur function of a nonempty partition, the sum of the S elements of
    its rearrangements, has nonnegative integer coefficients."""
    cases, fails = 0, []
    for m in range(0, max_size + 1):
        for k in range(0, max_size - m + 1):
            for a in enumerate_compositions(m):
                for b in enumerate_compositions(k):
                    cases += 1
                    if product_qschur(a, b) != product_qschur_oracle(a, b):
                        fails.append(f"product disagrees with the oracle at {tuple(a)},{tuple(b)}")
                for lam in enumerate_partitions(k) if k else ():
                    cases += 1
                    terms = [product_qschur(a, g) for g in compositions_of_partition(lam)]
                    if any(not c.is_constant() or c.constant() < 0
                           for c in sum(terms[1:], terms[0]).terms.values()):
                        fails.append(f"negative coefficient in S{tuple(a)} times s{tuple(lam)}")
    return cases, fails


def suite_pieri(max_size: int = 5, max_strip: int = 3) -> SuiteResult:
    """The row and column rules equal both the polynomial product and
    the quasi-shuffle product, with every coefficient 1, and rem removes
    exactly one cell."""
    cases, fails = 0, []
    for m in range(0, max_size + 1):
        for a in enumerate_compositions(m):
            for n in range(1, max_strip + 1):
                cases += 1
                row = pieri_row(a, n)
                col = pieri_col(a, n)
                for rule, got, strip in (("row", row, (n,)), ("column", col, (1,) * n)):
                    for name, product in (("oracle", product_qschur_oracle),
                                          ("product", product_qschur)):
                        if got != product(strip, a):
                            fails.append(f"{rule} rule disagrees with {name} at {tuple(a)},{n}")
                for c in itertools.chain(row.terms.values(), col.terms.values()):
                    if c != QtPoly.one():
                        fails.append(f"coefficient above 1 at {tuple(a)},{n}")
            for s in range(1, m + 1):
                r = rem(a, s)
                if r is not None:
                    if r.size != a.size - 1:
                        fails.append(f"rem changed size oddly on {tuple(a)},{s}")
    return cases, fails


def suite_macdonald(max_cells: int = 4, max_vars: int = 4) -> SuiteResult:
    """Specializations of the integral forms: identity basement at
    q = t = 0 is the Demazure atom, q = 0 is the descentless form (whose
    t = 0 value is the atom again), the constant basement at q = t = 0 is
    the Schur polynomial; the constant-basement filling sum over every
    content, with none spread from a partition, is symmetric, fixed by
    every swap of adjacent variables; and the descentless fillings that
    are valid are exactly the enumerated ones."""
    cases, fails = 0, []
    for n in range(1, max_vars + 1):
        for total in range(1, max_cells + 1):
            for g in enumerate_weak_compositions(total, n):
                cases += 1
                atom = demazure_atom(g, n)
                E = macdonald_integral_form(g, "id", n)
                if E.specialize(q=0, t=0) != atom:
                    fails.append(f"identity basement specialization fails at {g}")
                ns = ns_hall_littlewood(g, n)
                if ns != E.specialize(q=0):
                    fails.append(f"descentless form disagrees at {g}")
                if ns.specialize(t=0) != atom:
                    fails.append(f"descentless form at t=0 is not the atom at {g}")
                lam = sorted((p for p in g if p), reverse=True)
                J = macdonald_integral_form(g, "const", n)
                if J.specialize(q=0, t=0) != qsym_to_poly(schur_in_monomial_oracle(lam), n):
                    fails.append(f"constant basement specialization fails at {g}")
                full = XPoly(n, _terms(g, "const", n))
                if any(full != full.swap_variables(i, i + 1) for i in range(1, n)):
                    fails.append(f"constant-basement filling sum is not symmetric at {g}")
                ssafs = {f.rows for f in enumerate_ssafs(g)}
                described = {
                    f.rows
                    for f in enumerate_fillings(g, "id", n, descentless=True)
                    if is_ssaf_filling(f)
                }
                if ssafs != described:
                    fails.append(f"filling sets disagree at {g}")
    return cases, fails


def suite_hall_littlewood(max_size: int = 4, max_vars: int = 3) -> SuiteResult:
    """Hall-Littlewood polynomials against the symmetrization oracle."""
    cases, fails = 0, []
    for m in range(1, max_size + 1):
        for lam in enumerate_partitions(m):
            for n in range(1, max_vars + 1):
                cases += 1
                if hall_littlewood_p(lam, n) != hall_littlewood_p_oracle(lam, n):
                    fails.append(f"oracle mismatch at {tuple(lam)}, n={n}")
    return cases, fails


def suite_hl_chain(max_size: int = 4) -> SuiteResult:
    """The quasisymmetric Hall-Littlewood form is the quasisymmetric
    Schur polynomial at t = 0 and the monomial one at t = 1, and the
    Hall-Littlewood polynomials in up to max_size variables are
    symmetric."""
    cases, fails = 0, []
    for m in range(1, max_size + 1):
        for a in enumerate_compositions(m):
            cases += 1
            n = m + 1
            L = hall_littlewood_qsym(a, n)
            if L.specialize(t=0) != qschur_polynomial(a, n):
                fails.append(f"t=0 specialization fails at {tuple(a)}")
            if L.specialize(t=1) != monomial_qsym_poly(a, n):
                fails.append(f"t=1 specialization fails at {tuple(a)}")
        for lam in enumerate_partitions(m):
            for n in range(1, max_size + 1):
                cases += 1
                p = hall_littlewood_p(lam, n)
                for i in range(1, n):
                    if p.swap_variables(i, i + 1) != p:
                        fails.append(f"not symmetric in x{i},x{i + 1} at {tuple(lam)}, n={n}")
    return cases, fails


def suite_j_fundamental(max_size: int = 3) -> SuiteResult:
    """The fundamental expansion of the symmetric integral form evaluates
    to the constant-basement filling sum over every content, with none
    spread from a partition, and equals the paper's construction: the
    merges of every standard filling, summed over the groups of
    :func:`j_fundamental_classes`."""
    cases, fails = 0, []
    for m in range(1, max_size + 1):
        for lam in enumerate_partitions(m):
            cases += 1
            jf = macdonald_j_fundamental(lam)
            if qsym_to_poly(jf, m) != XPoly(m, _terms(lam, "const", m)):
                fails.append(f"fundamental expansion disagrees at {tuple(lam)}")
            merged = sum((expr for _, _, expr in j_fundamental_classes(lam)), QSymExpr("M"))
            if m_to_f(merged) != jf:
                fails.append(f"fundamental expansion is not the sum of its merges at {tuple(lam)}")
    return cases, fails


def suite_macdonald_operator(max_size: int = 6, max_vars: int = 5) -> SuiteResult:
    """The symmetric integral form J_lam in n variables, as the
    constant-basement filling sum and as its fundamental expansion, is
    an eigenvector of Macdonald's operator D with eigenvalue
    sum_i q^(lam_i) t^(n-i), and its coefficient of x^lam is
    prod_s (1 - q^(a(s)) t^(l(s)+1)) (Macdonald, Ch. VI §3 and (8.3)).
    Together these pin J_lam; see :func:`_operator_failures`."""
    cases, fails = 0, []
    for m in range(1, max_size + 1):
        for lam in enumerate_partitions(m):
            for n in range(len(lam), min(m, max_vars) + 1):
                forms = (
                    ("constant basement", macdonald_integral_form(lam, "const", n)),
                    ("fundamental expansion", qsym_to_poly(macdonald_j_fundamental(lam), n)),
                )
                for name, J in forms:
                    cases += 1
                    for f in _operator_failures(lam, n, J):
                        fails.append(f"{name}: {f} at {tuple(lam)}, n={n}")
    return cases, fails


def _operator_failures(lam, n: int, J) -> list[str]:
    """How the polynomial ``J`` in n variables fails to be J_lam.

    D f = a^-1 sum_i (T_(t,x_i) a)(T_(q,x_i) f), where T_(u,x_i) scales
    each monomial by u^(e_i) and a = sum_w sign(w) x^(w delta) is the
    Vandermonde, delta = (n-1, ..., 0).  Both sides of D J = c J are
    symmetric, so they are compared in the Schur basis: the coefficient
    of s_mu in a symmetric h is that of x^(mu+delta) in a h, which for
    h = D J is sum_i sum_w sign(w) t^((w delta)_i) q^((mu+delta-w delta)_i)
    [x^(mu+delta-w delta)] J.  Every side is a sum of shifted
    coefficients of J: no division and no polynomial product.
    """
    lam = tuple(lam) + (0,) * (n - len(lam))
    delta = tuple(range(n - 1, -1, -1))
    a = [((-1) ** sum(x < y for x, y in itertools.combinations(w, 2)), w)
         for w in itertools.permutations(delta)]
    terms = dict(J.items())
    fails = []
    for mu in enumerate_partitions(sum(lam)):
        if len(mu) > n:
            continue
        top = [p + d for p, d in zip(tuple(mu) + (0,) * (n - len(mu)), delta)]
        lhs: dict = {}
        rhs: dict = {}
        for sign, w in a:
            e = tuple(p - d for p, d in zip(top, w))
            for (qe, te), c in terms.get(e, QtPoly.zero()).items():
                for i in range(n):
                    key = (qe + e[i], te + w[i])
                    lhs[key] = lhs.get(key, 0) + sign * c
                    key = (qe + lam[i], te + n - 1 - i)
                    rhs[key] = rhs.get(key, 0) + sign * c
        if QtPoly(lhs) != QtPoly(rhs):
            fails.append(f"D J is not its eigenvalue times J in the coefficient of s_{tuple(mu)}")
    lead = QtPoly.one()
    for i, p in enumerate(lam):
        for j in range(p):
            leg = sum(1 for r in lam[i + 1:] if r > j)
            lead = lead * (QtPoly.one() - QtPoly({(p - j - 1, leg + 1): 1}))
    if J.coefficient(lam) != lead:
        fails.append("the coefficient of x^lam is not prod_s (1 - q^a(s) t^(l(s)+1))")
    return fails


SUITES: dict[str, Callable[..., SuiteResult]] = {
    "core": suite_core,
    "tableaux": suite_tableaux,
    "insertion": suite_insertion,
    "bases": suite_bases,
    "product": suite_product,
    "pieri": suite_pieri,
    "macdonald": suite_macdonald,
    "hall-littlewood": suite_hall_littlewood,
    "hl-chain": suite_hl_chain,
    "j-fundamental": suite_j_fundamental,
    "macdonald-operator": suite_macdonald_operator,
}


def run_suite(name: str, max_size: int | None = None) -> list[tuple[str, int, list[str]]]:
    """Run one suite, or every suite for ``"all"``, at the default bounds
    or with the first bound set to ``max_size``.  Returns
    ``(suite, cases_checked, failures)`` per suite run."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    names = list(SUITES) if name == "all" else [name]
    args = () if max_size is None else (max_size,)
    return [(key, *SUITES[key](*args)) for key in names]
