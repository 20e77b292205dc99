"""Workload definitions: input pools, seeded op lists, op runners, output
digests and the independent output checks.

An op is a pair ``(kind, args)`` whose ``args`` are plain JSON data, so
``op_key`` gives every op a canonical text key.  Each workload draws its
ops from a finite pool; ``golden/<workload>.json`` holds, for every op of
the pool, the digest of its output at the commit that recorded it and
its cost then.  The cost is only used to order the pool into strata, so
that every seed draws ops of the same cost profile.

Nothing here reads the clock: timing is the caller's business.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")

WORKLOADS = ("product", "basis", "deform", "insert")

# The express and insert pools are drawn once from this fixed seed, so
# they are finite and every op in them has a recorded digest; the run
# seed then chooses which pool entries a run uses and in what order.
POOL_SEED = 20081024


def op_key(op) -> str:
    kind, args = op
    return kind + json.dumps(args, separators=(",", ":"))


# -- small combinatorics of the benchmark's own ---------------------------


def compositions(n: int) -> list[tuple[int, ...]]:
    """All compositions of n, in a fixed order."""
    if n == 0:
        return [()]
    out = []
    for cuts in itertools.product((0, 1), repeat=n - 1):
        parts, cur = [], 1
        for c in cuts:
            if c:
                parts.append(cur)
                cur = 1
            else:
                cur += 1
        parts.append(cur)
        out.append(tuple(parts))
    return sorted(out)


def partitions(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for p in range(min(n, max_part), 0, -1):
        out.extend((p,) + rest for rest in partitions(n - p, p))
    return out


def weak_compositions(n: int, k: int) -> list[tuple[int, ...]]:
    if k == 1:
        return [(n,)]
    return [(f,) + rest for f in range(n, -1, -1) for rest in weak_compositions(n - f, k - 1)]


def triangle_order(n: int) -> list[tuple[int, ...]]:
    """Compositions of n, largest first: sorted shape, then lexicographic."""
    return sorted(
        compositions(n), key=lambda a: (tuple(sorted(a, reverse=True)), a), reverse=True
    )


def random_reverse_tableau(rng: random.Random, size: int, alphabet: int) -> list[list[int]]:
    """Rows weakly decreasing, columns strictly decreasing, entries in
    [alphabet].  Each cell draws from [lo, hi]: hi keeps the row and
    column conditions with the cells already placed, lo leaves room for
    the cells still to come below it, so the range is never empty."""
    shapes = [p for p in partitions(size) if len(p) <= alphabet]
    shape = rng.choice(shapes)
    heights = [sum(1 for r in shape if r > j) for j in range(shape[0])]
    rows: list[list[int]] = []
    for i, length in enumerate(shape):
        row = []
        for j in range(length):
            hi = alphabet
            if j:
                hi = min(hi, row[j - 1])
            if i:
                hi = min(hi, rows[i - 1][j] - 1)
            row.append(rng.randint(heights[j] - i, hi))
        rows.append(row)
    return rows


# -- pools: every op a workload can draw, grouped into units ---------------
#
# A unit is a tuple of ops drawn together; pairs carry the partner that
# an independent check compares against.  A category is (units, draws
# per op list).


def _product_pool():
    pairs, pieri = [], []
    for n in (5, 6, 7):
        for k in range(1, n):
            for a in compositions(k):
                for b in compositions(n - k):
                    pairs.append((("product", [list(a), list(b)]),))
            for a in compositions(n - k):
                pieri.append(
                    (("pieri_row", [list(a), k]), ("product", [list(a), [k]]))
                )
                pieri.append(
                    (("pieri_col", [list(a), k]), ("product", [list(a), [1] * k]))
                )
    # pieri ops are a fifth of the list: 24 pieri ops, their 24 partner
    # products and 72 other products
    return [(pairs, 72), (pieri, 24)]


def _qtpoly_terms(rng: random.Random) -> list[list[int]]:
    terms = {}
    for _ in range(rng.randint(1, 2)):
        terms[(rng.randint(0, 2), rng.randint(0, 2))] = rng.choice((-3, -2, -1, 1, 2, 3))
    return [[qe, te, c] for (qe, te), c in sorted(terms.items())]


def _express_pool():
    rng = random.Random(POOL_SEED)
    by_degree = {}
    for n in (5, 6, 7):
        units = []
        for basis in ("F", "M"):
            for _ in range(32):
                comps = rng.sample(compositions(n), rng.randint(1, 4))
                terms = [[list(c), _qtpoly_terms(rng)] for c in sorted(comps)]
                units.append((("express", [basis, terms]),))
        by_degree[n] = units
    return by_degree


def _basis_pool():
    matrices = [(("matrix", [b, n]),) for b in ("F", "M") for n in (5, 6, 7)]
    in_mf = [
        (("in_M", [list(a)]), ("in_F", [list(a)]))
        for n in (6, 7)
        for a in compositions(n)
    ]
    express = _express_pool()
    # every matrix once; degree-7 ops are a twentieth of the list and
    # degree-6 matrix builds about a tenth, so the 90th percentile falls
    # inside the plateau of ops that build a degree-6 matrix cold
    return [(matrices, 6), (in_mf, 36), (express[5], 12), (express[6], 10), (express[7], 2)]


def _deform_pool():
    # (5) and (4,1) in 5 variables are left out: together they take
    # about 3.7 s, a third of a pass, so the machine's speed during those
    # two ops alone would set the run's throughput
    const = [
        (("const", [list(mu), nv]),)
        for size in (3, 4, 5)
        for mu in partitions(size)
        for nv in (4, 5)
        if len(mu) <= nv and not (nv == 5 and mu in ((5,), (4, 1)))
    ]
    shapes = [g for n in range(3, 7) for g in weak_compositions(n, 3)]
    shapes += [g for n in range(3, 6) for g in weak_compositions(n, 4)]
    idrev = [(("idrev", [list(g), b]),) for g in shapes for b in ("id", "rev")]
    hl = [
        (("hl_p", [list(mu), n]), ("hl_oracle", [list(mu), n]))
        for size in range(1, 6)
        for mu in partitions(size)
        for n in (3, 4)
        if len(mu) <= n
    ]
    jfund = [(("jfund", [list(mu)]),) for size in range(1, 6) for mu in partitions(size)]
    # every case of the small pools, because their costs differ up to a
    # hundredfold and a sample of them would make the list's cost depend
    # on the seed; only the id/rev shapes are sampled
    return [(const, len(const)), (idrev, 60), (hl, len(hl)), (jfund, len(jfund))]


def _insert_pool():
    rng = random.Random(POOL_SEED)
    words = [
        (("roundtrip", [[rng.randint(1, 6) for _ in range(rng.randint(6, 12))]]),)
        for _ in range(512)
    ]
    plactic = [
        (
            (
                "plactic",
                [
                    random_reverse_tableau(rng, rng.randint(3, 8), 6),
                    random_reverse_tableau(rng, rng.randint(3, 8), 6),
                ],
            ),
        )
        for _ in range(256)
    ]
    return [(words, 80), (plactic, 24)]


POOLS = {
    "product": _product_pool,
    "basis": _basis_pool,
    "deform": _deform_pool,
    "insert": _insert_pool,
}


def pool_ops(workload: str) -> list:
    """Every distinct op of the workload's pool, in a fixed order."""
    seen, out = set(), []
    for units, _ in POOLS[workload]():
        for unit in units:
            for op in unit:
                key = op_key(op)
                if key not in seen:
                    seen.add(key)
                    out.append(op)
    return out


def load_golden(workload: str) -> dict:
    """op key -> [digest, cost in ms when recorded]."""
    with open(os.path.join(GOLDEN_DIR, f"{workload}.json")) as fh:
        return json.load(fh)


def build_ops(workload: str, seed: int, golden: dict) -> list:
    """The seeded op list.

    Each category's units are sorted by recorded cost and cut into as
    many strata as the category has draws; one unit is drawn from each
    stratum.  The drawn ops are then shuffled.
    """
    rng = random.Random(seed)
    ops = []
    for units, draws in POOLS[workload]():
        ranked = sorted(
            units,
            key=lambda u: (sum(golden[op_key(op)][1] for op in u), op_key(u[0])),
        )
        for i in range(draws):
            stratum = ranked[i * len(ranked) // draws : (i + 1) * len(ranked) // draws]
            ops.extend(rng.choice(stratum))
    rng.shuffle(ops)
    return ops


# -- running ops ----------------------------------------------------------


def _qsym_expr(Q, basis, terms):
    return Q.QSymExpr(
        basis,
        {tuple(c): Q.QtPoly({(qe, te): v for qe, te, v in coeff}) for c, coeff in terms},
    )


def _roundtrip(Q, word):
    t = Q.CompositionTableau()
    inserted = []
    for k in word:
        res = Q.skyline_insert(t, k)
        inserted.append((t, res))
        t = res.result
    final = t
    restored = []
    for _, res in reversed(inserted):
        t, value = Q.skyline_uninsert(t, len(res.result.rows[res.augmented_row]))
        restored.append((t, value))
    return final, inserted, restored


RUNNERS = {
    "product": lambda Q, a: Q.product_qschur(tuple(a[0]), tuple(a[1])),
    "pieri_row": lambda Q, a: Q.pieri_row(tuple(a[0]), a[1]),
    "pieri_col": lambda Q, a: Q.pieri_col(tuple(a[0]), a[1]),
    "matrix": lambda Q, a: Q.transition_matrix(a[0], a[1]),
    "in_M": lambda Q, a: Q.qschur_in_monomial(tuple(a[0])),
    "in_F": lambda Q, a: Q.qschur_in_fundamental(tuple(a[0])),
    "express": lambda Q, a: Q.express_in_qschur(_qsym_expr(Q, a[0], a[1])),
    "const": lambda Q, a: Q.macdonald_integral_form(tuple(a[0]), "const", a[1]),
    "idrev": lambda Q, a: Q.macdonald_integral_form(tuple(a[0]), a[1]),
    "hl_p": lambda Q, a: Q.hall_littlewood_p(tuple(a[0]), a[1]),
    "hl_oracle": lambda Q, a: Q.hall_littlewood_p_oracle(tuple(a[0]), a[1]),
    "jfund": lambda Q, a: Q.macdonald_j_fundamental(tuple(a[0])),
    "roundtrip": lambda Q, a: _roundtrip(Q, a[0]),
    "plactic": lambda Q, a: Q.plactic_product(Q.ReverseTableau(a[0]), Q.ReverseTableau(a[1])),
}


def prepare(Q, workload: str):
    """Untimed warm-up paid once per process."""
    if workload == "product":
        # products only read the F matrices; build them before timing
        for n in range(1, 8):
            Q.transition_matrix("F", n)


def before_op(Q, workload: str):
    """Untimed step before each op."""
    if workload == "basis":
        # a `qschur matrix` or `qschur in-s` process builds its matrices cold
        Q.transition_matrix.cache_clear()


# -- canonical output and digest -------------------------------------------


def _xpoly_canon(p):
    return [p.n, sorted([list(e), sorted(list(k) + [v] for k, v in c.items())] for e, c in p.items())]


def canonical(kind: str, out):
    if kind in ("product", "pieri_row", "pieri_col", "in_M", "in_F", "express", "jfund"):
        return out.to_json()
    if kind == "matrix":
        return [list(r) for r in out]
    if kind in ("const", "idrev", "hl_p", "hl_oracle"):
        return _xpoly_canon(out)
    if kind == "roundtrip":
        final, inserted, restored = out
        return [
            [list(r) for r in final.rows],
            [res.augmented_row for _, res in inserted],
            [value for _, value in restored],
        ]
    if kind == "plactic":
        return [list(r) for r in out.rows]
    raise ValueError(f"unknown op kind {kind!r}")


def digest(kind: str, out) -> str:
    text = json.dumps(canonical(kind, out), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- independent output checks ----------------------------------------------


class Checker:
    """Checks one op's output against a relation that holds independently
    of the code path that produced it.  ``outputs`` maps op keys to the
    outputs of this run, so paired ops are compared with each other;
    values the check computes itself are memoised per run."""

    def __init__(self, Q, outputs: dict):
        self.Q = Q
        self.outputs = outputs
        self._in_f = {}
        self._const = {}

    def __call__(self, op, out) -> str | None:
        """None if the output passes, else the reason it fails."""
        kind, args = op
        method = getattr(self, "check_" + kind, None)
        if method is None or method(args, out):
            return None
        return f"{kind} check failed"

    def _partner(self, kind, args):
        return self.outputs[op_key((kind, args))]

    def check_pieri_row(self, args, out):
        a, k = args
        return out == self._partner("product", [a, [k]])

    def check_pieri_col(self, args, out):
        a, k = args
        return out == self._partner("product", [a, [1] * k])

    def check_matrix(self, args, out):
        _, n = args
        order = [tuple(c) for c in self.Q.enumerate_compositions(n)]
        if order != triangle_order(n):
            return False
        return all(
            row[i] == 1 and not any(row[:i]) for i, row in enumerate(out)
        ) and len(out) == len(order)

    def check_in_M(self, args, out):
        return self.Q.f_to_m(self._partner("in_F", args)) == out

    def check_express(self, args, out):
        Q = self.Q
        source = _qsym_expr(Q, args[0], args[1])
        if source.basis == "M":
            source = Q.m_to_f(source)
        back = Q.QSymExpr("F")
        for comp, coeff in out.terms.items():
            if comp not in self._in_f:
                self._in_f[comp] = Q.qschur_in_fundamental(comp)
            back = back + self._in_f[comp].scale(coeff)
        return out.basis == "S" and back == source

    def check_hl_p(self, args, out):
        return out == self._partner("hl_oracle", args)

    def check_jfund(self, args, out):
        mu = tuple(args[0])
        m = sum(mu)
        if mu not in self._const:
            self._const[mu] = self.Q.macdonald_integral_form(mu, "const", m)
        return self.Q.qsym_to_poly(out, m) == self._const[mu]

    def check_idrev(self, args, out):
        shape, basement = args
        if basement != "id":
            return True
        return out.specialize(q=0, t=0) == self.Q.demazure_atom(tuple(shape))

    def check_roundtrip(self, args, out):
        word = args[0]
        _, inserted, restored = out
        for (before, _), (after, value), k in zip(
            inserted, reversed(restored), word
        ):
            if after != before or value != k:
                return False
            if not self.Q.commutation_check(before, k):
                return False
        return len(restored) == len(word)

    def check_plactic(self, args, out):
        return self.Q.is_reversetableau(out)
