"""Command line front end.

Every verb maps to one library operation and writes deterministic
output: aligned text by default, JSON with ``--json``.  Exit codes:
0 success, 1 domain error, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .compositions import (
    enumerate_compositions,
    format_composition,
    parse_composition,
    parse_weak_composition,
    to_partition,
)
from .macdonald import (
    hall_littlewood_p,
    hall_littlewood_qsym,
    macdonald_integral_form,
    macdonald_j_fundamental,
)
from .pieri import pieri_col, pieri_row, product_qschur
from .polynomial import XPoly
from .qsym import (
    QSymExpr,
    demazure_atom,
    qschur_in_fundamental,
    qschur_in_monomial,
    express_in_qschur,
    transition_matrix,
)
from .verify import run_suite

DEFAULT_MAX_CELLS = 8
DEFAULT_MAX_VARS = 6


class DomainError(ValueError):
    pass


def _as_int(label: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise DomainError(f"{label} must be an integer, got {value!r}") from None


def _max_cells() -> int:
    value = os.environ.get("QSCHUR_MAX_CELLS")
    return _as_int("QSCHUR_MAX_CELLS", value) if value else DEFAULT_MAX_CELLS


def _check_guard(cells: int, nvars: int, force: bool):
    if force:
        return
    max_cells = _max_cells()
    limits = ((cells, max_cells, "cells"), (nvars, DEFAULT_MAX_VARS, "variables"))
    over = [f"{v} {name} exceeds the limit of {limit}" for v, limit, name in limits if v > limit]
    if over:
        env = " or set QSCHUR_MAX_CELLS" if cells > max_cells else ""
        raise DomainError(f"enumeration guard: {' and '.join(over)}; pass --force{env} to override")


def _emit(args, text: str, payload):
    out = json.dumps(payload, indent=2) if args.json else text
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def _emit_qsym(args, expr: QSymExpr):
    _emit(args, str(expr), expr.to_json())


def _emit_xpoly(args, p: XPoly):
    payload = {
        "variables": p.n,
        "terms": [
            {"exponents": list(e), "coeff": [[qe, te, c] for (qe, te), c in sorted(coeff.items())]}
            for e, coeff in sorted(p.items(), reverse=True)
        ],
    }
    _emit(args, str(p), payload)


def _specialized(p: XPoly, spec: str | None) -> XPoly:
    if not spec:
        return p
    q = t = None
    for piece in spec.split(","):
        name, _, value = piece.partition("=")
        name = name.strip()
        if name == "q":
            q = _as_int("--spec q", value)
        elif name == "t":
            t = _as_int("--spec t", value)
        else:
            raise DomainError(f"unknown parameter {name!r} in --spec")
    return p.specialize(q=q, t=t)


def cmd_expand(args):
    a = parse_composition(args.composition)
    _check_guard(a.size, 0, args.force)
    expr = qschur_in_monomial(a) if args.basis == "M" else qschur_in_fundamental(a)
    _emit_qsym(args, expr)


def cmd_matrix(args):
    _check_guard(args.n, 0, args.force)
    comps = enumerate_compositions(args.n)
    mat = transition_matrix(args.basis, args.n)
    lines = []
    width = max(len(format_composition(c)) for c in comps)
    for comp, row in zip(comps, mat):
        cells = " ".join("." if v == 0 else str(v) for v in row)
        lines.append(f"{format_composition(comp):>{width}}  {cells}")
    payload = {
        "basis": args.basis,
        "n": args.n,
        "order": [list(c) for c in comps],
        "matrix": [list(r) for r in mat],
    }
    _emit(args, "\n".join(lines), payload)


def cmd_in_s(args):
    with open(args.expr_file) as fh:
        data = json.load(fh)
    expr = QSymExpr.from_json(data)
    _check_guard(max((comp.size for comp in expr.terms), default=0), 0, args.force)
    _emit_qsym(args, express_in_qschur(expr))


def cmd_pieri(args):
    a = parse_composition(args.composition)
    _check_guard(a.size + args.k, 0, args.force)
    _emit_qsym(args, args.rule(a, args.k))


def cmd_product(args):
    a = parse_composition(args.left)
    b = parse_composition(args.right)
    _check_guard(a.size + b.size, 0, args.force)
    _emit_qsym(args, product_qschur(a, b))


def cmd_atom(args):
    g = parse_weak_composition(args.shape)
    n = args.vars if args.vars is not None else len(g)
    _check_guard(g.size, n, args.force)
    _emit_xpoly(args, demazure_atom(g, n))


def cmd_e_poly(args):
    g = parse_weak_composition(args.shape)
    n = args.vars if args.vars is not None else len(g)
    _check_guard(g.size, n, args.force)
    p = macdonald_integral_form(g, args.basement, n)
    _emit_xpoly(args, _specialized(p, args.spec))


def cmd_l_alpha(args):
    a = parse_composition(args.shape)
    n = args.vars if args.vars is not None else max(len(a) + 1, a.size)
    _check_guard(a.size, n, args.force)
    _emit_xpoly(args, _specialized(hall_littlewood_qsym(a, n), args.spec))


def cmd_hl_p(args):
    l = to_partition(parse_composition(args.shape))
    n = args.vars if args.vars is not None else len(l)
    _check_guard(l.size, n, args.force)
    _emit_xpoly(args, _specialized(hall_littlewood_p(l, n), args.spec))


def cmd_j_fund(args):
    l = to_partition(parse_composition(args.shape))
    # J has |l| variables, so the cell count already bounds them
    _check_guard(l.size, 0, args.force)
    _emit_qsym(args, macdonald_j_fundamental(l))


def cmd_verify(args):
    if args.max_size is not None:
        # the first bound counts cells; hl-chain also runs that many variables
        nvars = args.max_size if args.suite == "hl-chain" else 0
        _check_guard(args.max_size, nvars, args.force)
    rc = 0
    for name, cases, fails in run_suite(args.suite, args.max_size):
        for msg in fails:
            print(f"[{name}] {msg}", file=sys.stderr)
        if fails:
            print(f"suite {name}: {len(fails)} failures in {cases} cases", file=sys.stderr)
            rc = 1
        elif not cases:
            print(f"suite {name}: checked 0 cases", file=sys.stderr)
            rc = 1
        else:
            print(f"suite {name}: all checks passed ({cases} cases)")
    return rc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qschur",
        description="exact computations in the quasisymmetric Schur basis",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON")
    parser.add_argument("--out", help="write output to a file")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("expand", help="expand an S element over M or F")
    p.add_argument("--basis", choices=("M", "F"), required=True)
    p.add_argument("composition")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("matrix", help="transition matrix from S to M or F")
    p.add_argument("--basis", choices=("M", "F"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("in-s", help="rewrite an M/F expression file over S")
    p.add_argument("expr_file")
    p.set_defaults(func=cmd_in_s)

    for name, rule, line in (("pieri-row", pieri_row, "row"), ("pieri-col", pieri_col, "column")):
        p = sub.add_parser(name, help=f"multiply by a one-{line} S element")
        p.add_argument("composition")
        p.add_argument("k", type=int)
        p.set_defaults(func=cmd_pieri, rule=rule)

    p = sub.add_parser("product", help="product of two S elements")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("atom", help="Demazure atom of a weak shape")
    p.add_argument("--shape", required=True)
    p.add_argument("--vars", type=int)
    p.set_defaults(func=cmd_atom)

    p = sub.add_parser("e-poly", help="integral form over a chosen basement")
    p.add_argument("--shape", required=True)
    p.add_argument("--vars", type=int)
    p.add_argument("--basement", choices=("id", "rev", "const"), default="id")
    p.add_argument("--spec", help="specialize, e.g. q=0,t=1")
    p.set_defaults(func=cmd_e_poly)

    p = sub.add_parser("l-alpha", help="quasisymmetric Hall-Littlewood polynomial")
    p.add_argument("--shape", required=True)
    p.add_argument("--vars", type=int)
    p.add_argument("--spec", help="specialize, e.g. t=1")
    p.set_defaults(func=cmd_l_alpha)

    p = sub.add_parser("hl-p", help="Hall-Littlewood polynomial of a partition")
    p.add_argument("--shape", required=True)
    p.add_argument("--vars", type=int)
    p.add_argument("--spec", help="specialize, e.g. t=0")
    p.set_defaults(func=cmd_hl_p)

    p = sub.add_parser("j-fund", help="fundamental expansion of the integral form")
    p.add_argument("--shape", required=True)
    p.set_defaults(func=cmd_j_fund)

    p = sub.add_parser("verify", help="run a named property suite")
    p.add_argument("suite")
    p.add_argument("--max-size", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    # every verb runs under the enumeration guard
    for p in sub.choices.values():
        p.add_argument("--force", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verb == "verify" and args.suite == "all" and args.max_size is not None:
        parser.error("--max-size bounds one suite (a cell count for some, a size for "
                     "others); name the suite instead of 'all'")
    try:
        rc = args.func(args)
    except (ValueError, OSError) as exc:  # DomainError and JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return rc or 0


if __name__ == "__main__":
    sys.exit(main())
