"""Command-line interface.

Subcommands: lambda, rank, table, genus, classify, equiv, census, verify.
Exit codes: 0 success/match, 4 table or check mismatch; an error ends
with the exit_code its class in errors.py carries (2 invalid input,
3 precondition violation, 4 internal inconsistency), and a KeyError or
ValueError with 2. Machine output via --json is byte-stable for fixed
inputs. Only census and verify import the brute-force oracles, so the
other commands do not pay for them at start-up.

verify runs the suites lambda (brute-force closure and scan against
lefschetz_number), polygon (the census at bound 4 against the literal
class table, lattice_counts against a box scan) and delta (the catalog's
delta and j evaluated at rational points against its a and b), or all
three.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from itertools import chain

from .catalog import load_catalog
from .errors import DelsarteError, GroupTooLargeError, PolynomialSyntaxError, SingularMatrixError
from .lattice import group_order, homogenize, lefschetz_number, validate_terms
from .polygon import classify_one_interior, convex_hull, integral_equivalence, lattice_counts

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_MISMATCH = 4


# --- polynomial input --------------------------------------------------------

#: One token of --poly text, matched anywhere but in whitespace: a variable
#: with an optional '^' and ASCII digits (str.isdigit() also accepts
#: superscripts and other scripts' digits), a digit run, an operator, or any
#: other character, which is an error. An exponent left empty after '^' ends
#: the match at the next token. Kept as text: re compiles and caches it on
#: first use, so commands that take no --poly never compile it.
_POLY_TOKEN = r"([tXY])(?:\s*\^\s*([0-9]*))?|([0-9]+)|([*+^])|(\S)"


def parse_polynomial(text: str):
    """Parse a four-term polynomial in t, X, Y into exponent triples.

    Grammar: terms joined by '+'; a term is a product (optional '*') of
    factors t, X, Y, each with an optional '^' and a nonnegative integer
    exponent, or the constant 1. Unit coefficients only: forms like
    (1+t^n)X^3 are entered as two terms. Raises PolynomialSyntaxError,
    with a character position when the text does not parse, and without
    one when the terms are not four distinct monomials (validate_terms).
    """
    tokens = list(re.finditer(_POLY_TOKEN, text))
    for match in tokens:
        if match[5]:
            raise PolynomialSyntaxError(f"unexpected character {match[5]!r}", match.start())
    if not tokens:
        raise PolynomialSyntaxError("empty polynomial", 0)
    terms = []
    term = None  # the exponents of the term being read, None before its first factor
    for match in tokens:
        var, power, number, op, _ = match.groups()
        pos = match.start()
        if number not in (None, "1"):
            raise PolynomialSyntaxError(f"coefficient {number} not supported (unit coefficients only)", pos)
        if power == "":
            raise PolynomialSyntaxError("expected integer exponent", match.end())
        if var or number:
            term = term or [0, 0, 0]
            if var:
                try:
                    term["tXY".index(var)] += int(power or 1)
                except ValueError:  # beyond the interpreter's int-from-str digit limit
                    raise PolynomialSyntaxError("exponent too long", match.start(2)) from None
        elif term is None:
            raise PolynomialSyntaxError("unexpected '*'" if op == "*" else "expected a term", pos)
        elif op == "^":
            raise PolynomialSyntaxError("expected '+', got '^'", pos)
        elif op == "+":
            terms.append(tuple(term))
            term = None
    if term is None:
        raise PolynomialSyntaxError("expected a term", len(text))
    terms.append(tuple(term))
    try:
        return validate_terms(terms)
    except ValueError as exc:
        raise PolynomialSyntaxError(str(exc)) from None


# --- helpers ------------------------------------------------------------------

def _emit(args, payload, lines):
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _terms_for(args, catalog):
    if getattr(args, "poly", None) is not None:
        return parse_polynomial(args.poly)
    if args.n is None:
        raise ValueError("--family requires --n")
    return catalog().family_terms(args.family, args.n)


def _fmt_poly(polygon):
    return " ".join(f"({x},{y})" for x, y in polygon)


def _fmt_witness(umap):
    (a, b), (c, d) = umap.matrix
    return f"matrix [[{a},{b}],[{c},{d}]] shift ({umap.shift[0]},{umap.shift[1]})"


# --- subcommands ---------------------------------------------------------------

def _cmd_lambda(args, catalog):
    matrix = homogenize(_terms_for(args, catalog))
    order = group_order(matrix)
    lam = lefschetz_number(matrix)
    _emit(
        args,
        {"group_order": order, "lambda": lam},
        [f"group order |L| = {order}", f"lambda          = {lam}"],
    )
    return EXIT_OK


def _cmd_rank(args, catalog):
    cat = catalog()
    lines = []
    if args.rep:
        rep_id, rep_n = args.rep, args.n
    else:
        rep_id, rep_n = cat.representative_at(args.family, args.n)
        if (args.family, rep_n) != (rep_id, args.n):
            lines.append(
                f"family {args.family} at n = {args.n} -> representative {rep_id} at n = {rep_n}"
            )
    report = cat.representative_rank(rep_id, rep_n)
    lines += [
        f"representative  = {report.family} (n = {report.n})",
        f"group order |L| = {report.group_order}",
        f"lambda          = {report.lefschetz}",
        f"euler number    = {report.euler}",
        f"h2              = {report.h2}",
        f"rho_triv        = {report.rho_triv}",
        f"rank            = {report.rank}",
        "checks: " + "; ".join(f"{name} {'ok' if ok else 'FAIL'}" for name, ok in report.checks),
    ]
    _emit(args, report.to_dict(), lines)
    return EXIT_OK if all(ok for _, ok in report.checks) else EXIT_MISMATCH


def _cmd_table(args, catalog):
    entries = catalog().reproduce_table()
    payload = [entry.to_dict() for entry in entries]
    header = f"{'id':<4} {'poly':<5} {'n':>5} {'rep':<4} {'rep_n':>5} {'lambda':>7} {'rank':>5} {'expected':>9} ok"
    lines = [header, "-" * len(header)]
    for e in entries:
        lines.append(
            f"{e.id:<4} {e.polygon:<5} {e.table_n:>5} {e.rep:<4} {e.rep_n:>5} "
            f"{e.own_lambda:>7} {e.computed_rank:>5} {e.expected_rank:>9} "
            f"{'yes' if e.match else 'NO'}"
        )
    matches = sum(e.match for e in entries)
    lines.append(f"{matches}/{len(entries)} rows match")
    _emit(args, payload, lines)
    return EXIT_OK if matches == len(entries) else EXIT_MISMATCH


def _cmd_genus(args, catalog):
    terms = parse_polynomial(args.poly)
    hull = convex_hull({(x, y) for _, x, y in terms})
    # The interior count bounds the genus; it is exact when the curve is
    # nondegenerate, which a nonsingular exponent matrix certifies.
    try:
        homogenize(terms)
        exact = True
    except SingularMatrixError:
        exact = False
    interior = lattice_counts(hull)[0]
    payload = {
        "polygon": [list(v) for v in hull],
        "interior": interior,
        "exact": exact,
    }
    lines = [
        f"newton polygon  = {_fmt_poly(hull)}",
        f"interior points = {interior}",
        f"genus           = {interior} ({'exact' if exact else 'upper bound'})",
    ]
    if interior == 1:
        label = classify_one_interior(hull).label
        payload["class"] = label
        lines.append(f"class           = {label}")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_classify(args, catalog):
    terms = parse_polynomial(args.poly)
    hull = convex_hull({(x, y) for _, x, y in terms})
    cls = classify_one_interior(hull)
    _emit(
        args,
        {"class": cls.label, "canonical": [list(v) for v in cls.vertices]},
        [f"class     = {cls.label}", f"canonical = {_fmt_poly(cls.vertices)}"],
    )
    return EXIT_OK


def _cmd_equiv(args, catalog):
    if len(args.poly) != 2:
        raise PolynomialSyntaxError("equiv needs exactly two --poly arguments")
    hulls = [
        convex_hull({(x, y) for _, x, y in parse_polynomial(text)}) for text in args.poly
    ]
    witness = integral_equivalence(hulls[0], hulls[1])
    if witness is None:
        _emit(args, {"equivalent": False}, ["not equivalent"])
    else:
        _emit(
            args,
            {
                "equivalent": True,
                "matrix": [list(row) for row in witness.matrix],
                "shift": list(witness.shift),
            },
            [f"equivalent: {_fmt_witness(witness)}"],
        )
    return EXIT_OK


def _cmd_census(args, catalog):
    from . import oracles
    classes, histogram = oracles.class_census(args.bound)
    payload = {
        "bound": args.bound,
        "classes": [
            {"label": cls.label, "vertices": [list(v) for v in cls.vertices]}
            for cls in classes
        ],
        "corner_histogram": {str(k): v for k, v in sorted(histogram.items())},
    }
    lines = [f"census in [0,{args.bound}]^2: {len(classes)} classes"]
    for cls in classes:
        lines.append(f"  {cls.label:<4} {len(cls.vertices)} corners  {_fmt_poly(cls.vertices)}")
    lines.append(
        "corners histogram: "
        + ", ".join(f"{k}: {v}" for k, v in sorted(histogram.items()))
    )
    _emit(args, payload, lines)
    return EXIT_OK


# --- verify suites --------------------------------------------------------------

#: Most characters, summed over every case, that the lambda suite may
#: enumerate by brute force; --nmax 120 takes 44429 of them.
LAMBDA_SUITE_BUDGET = 50_000


def _verify_lambda(cat, nmax):
    """Brute force against the fast count at n = div, 2 div, ..., nmax and at 7, 9, 25.

    The cases are built first, adding up |L| as they go, n ascending
    through each representative's multiples of div. GroupTooLargeError is
    raised as soon as the sum passes LAMBDA_SUITE_BUDGET, so no brute force
    runs on a workload above it and a huge --nmax stops after a few cases.
    """
    from . import oracles
    cases = []
    total = 0
    for rep_id, rep in cat.representatives.items():
        matrices = []
        for n in chain(range(rep.divisibility, nmax + 1, rep.divisibility), (7, 9, 25)):
            matrix = homogenize(cat.family_terms(rep_id, n))
            matrices.append((n, matrix))
            total += group_order(matrix)
            if total > LAMBDA_SUITE_BUDGET:
                raise GroupTooLargeError(
                    f"the lambda suite up to --nmax {nmax} enumerates more than "
                    f"{LAMBDA_SUITE_BUDGET} characters"
                )
        cases.append((rep_id, matrices))
    results = []
    for rep_id, matrices in cases:
        bad = [n for n, matrix in matrices if oracles.brute_lambda(matrix) != lefschetz_number(matrix)]
        values = [n for n, _ in matrices]
        results.append(
            (f"lambda {rep_id} (n in {values})", not bad, f"mismatch at {bad}" if bad else "")
        )
    return results


def _verify_polygon(cat):
    from . import oracles
    results = []
    classes, histogram = oracles.class_census(4)
    results.append(
        (
            "census bound 4",
            len(classes) == 16 and sum(1 for c in classes if len(c.vertices) <= 4) == 12,
            f"{len(classes)} classes, histogram {histogram}",
        )
    )
    bad = []
    for row_id in cat.rows:
        hull = convex_hull(cat.support(row_id))
        interior, boundary, _ = lattice_counts(hull)
        if (interior, boundary) != oracles.interior_scan(hull):
            bad.append(row_id)
    results.append(("table hulls: counts vs scan", not bad, f"mismatch at {bad}" if bad else ""))
    return results


#: The rational points t at which the delta suite evaluates each representative.
DELTA_SUITE_POINTS = (2, 3, Fraction(1, 2), -5)


def _verify_delta(cat):
    """The catalog's delta and j against its a and b at n = div, 2 div and DELTA_SUITE_POINTS.

    Point evaluation in Fraction arithmetic (oracles.identities_at), so
    the suite shares only the catalog parse with the identity proof of
    the rank path. A representative fails at the first (n, t) where an
    identity fails, and at an n where 4a^3 + 27b^2 vanishes at every
    point: a root at some points is allowed, an identically zero form is not.
    """
    from . import oracles
    results = []
    for rep_id, rep in cat.representatives.items():
        detail = ""
        for n in (rep.divisibility, 2 * rep.divisibility):
            held = [oracles.identities_at(rep, n, t) for t in DELTA_SUITE_POINTS]
            if False in held:
                detail = f"fails at n={n}, t={DELTA_SUITE_POINTS[held.index(False)]}"
                break
            if all(held_at is None for held_at in held):
                detail = f"4a^3 + 27b^2 vanishes at every sample point of n={n}"
                break
        results.append((f"delta/j {rep_id}", not detail, detail))
    return results


def _cmd_verify(args, catalog):
    cat = catalog()
    checks = []
    if args.suite in ("lambda", "all"):
        checks += _verify_lambda(cat, args.nmax)
    if args.suite in ("polygon", "all"):
        checks += _verify_polygon(cat)
    if args.suite in ("delta", "all"):
        checks += _verify_delta(cat)
    payload = [{"check": name, "passed": ok, "detail": detail} for name, ok, detail in checks]
    lines = [
        f"{'ok' if ok else 'FAIL':<5} {name}" + (f"  [{detail}]" if detail and not ok else "")
        for name, ok, detail in checks
    ]
    passed = sum(ok for _, ok, _ in checks)
    lines.append(f"{passed}/{len(checks)} checks passed")
    _emit(args, payload, lines)
    return EXIT_OK if passed == len(checks) else EXIT_MISMATCH


# --- entry point ----------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="delsarte",
        description="Lefschetz numbers and Mordell-Weil ranks of four-term curve families over k(t).",
    )
    parser.add_argument("--catalog", metavar="PATH", help="override the bundled catalog file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("lambda", _cmd_lambda, help="group order and Lefschetz number")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--poly", help="four-term polynomial in t, X, Y")
    group.add_argument("--family", help="catalog family id")
    p.add_argument("--n", type=int, help="family parameter (with --family)")

    p = add("rank", _cmd_rank, help="full rank report")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", help="catalog family id (mapped to its representative)")
    group.add_argument("--rep", help="representative id")
    p.add_argument("--n", type=int, required=True, help="parameter n")

    add("table", _cmd_table, help="reproduce the 42-row classification table")

    p = add("genus", _cmd_genus, help="newton polygon and genus of a polynomial")
    p.add_argument("--poly", required=True)

    p = add("classify", _cmd_classify, help="classify a one-interior-point polygon")
    p.add_argument("--poly", required=True)

    p = add("equiv", _cmd_equiv, help="integral equivalence of two newton polygons")
    p.add_argument("--poly", action="append", required=True, help="give twice")

    p = add("census", _cmd_census, help="census of one-interior-point polygon classes")
    p.add_argument("--bound", type=int, choices=(4, 5), default=4)

    p = add("verify", _cmd_verify, help="run brute-force oracles against the main paths")
    p.add_argument(
        "--suite", choices=("lambda", "polygon", "delta", "all"), default="all"
    )
    p.add_argument("--nmax", type=int, default=60, help="lambda suite parameter cap")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    def catalog():
        return load_catalog(args.catalog)

    try:
        return args.func(args, catalog)
    except (DelsarteError, KeyError, ValueError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_INVALID)


if __name__ == "__main__":
    sys.exit(main())
