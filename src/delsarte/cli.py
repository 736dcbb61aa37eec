"""Command-line interface.

Subcommands: lambda, rank, table, genus, classify, equiv, census, verify.
Exit codes: 0 success/match, 4 table or check mismatch; an error ends
with the exit_code its class in errors.py carries (2 invalid input,
3 precondition violation, 4 internal inconsistency), and a KeyError or
ValueError with 2. Machine output via --json is byte-stable for fixed
inputs. Only census and verify import the brute-force oracles, so the
other commands do not pay for them at start-up.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain

from .catalog import load_catalog
from .errors import DelsarteError, GroupTooLargeError, PolynomialSyntaxError, SingularMatrixError
from .lattice import group_order, homogenize, lefschetz_number, validate_terms
from .polygon import classify_one_interior, convex_hull, integral_equivalence, lattice_counts
from .weierstrass import discriminant, j_invariant

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_MISMATCH = 4


# --- polynomial input --------------------------------------------------------

_VARS = {"t": 0, "X": 1, "Y": 2}
# ASCII only: str.isdigit() also accepts superscripts and other scripts' digits.
_DIGITS = "0123456789"


def _tokenize_poly(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "tXY^*+":
            tokens.append((ch if ch in "^*+" else "var", ch, pos))
            pos += 1
            continue
        if ch in _DIGITS:
            start = pos
            while pos < len(text) and text[pos] in _DIGITS:
                pos += 1
            tokens.append(("num", text[start:pos], start))
            continue
        raise PolynomialSyntaxError(f"unexpected character {ch!r}", pos)
    return tokens


def parse_polynomial(text: str):
    """Parse a four-term polynomial in t, X, Y into exponent triples.

    Grammar: terms joined by '+'; a term is a product (optional '*') of
    factors t, X, Y, each with an optional '^' and a nonnegative integer
    exponent, or the constant 1. Unit coefficients only: forms like
    (1+t^n)X^3 are entered as two terms. Raises PolynomialSyntaxError,
    with a character position when the text does not parse, and without
    one when the terms are not four distinct monomials (validate_terms).
    """
    tokens = _tokenize_poly(text)
    if not tokens:
        raise PolynomialSyntaxError("empty polynomial", 0)
    terms = []
    index = 0

    def peek():
        return tokens[index] if index < len(tokens) else (None, None, len(text))

    while True:
        exponents = [0, 0, 0]
        saw_factor = False
        while True:
            kind, value, pos = peek()
            if kind == "var":
                index += 1
                power = 1
                if peek()[0] == "^":
                    index += 1
                    nkind, nvalue, npos = peek()
                    if nkind != "num":
                        raise PolynomialSyntaxError("expected integer exponent", npos)
                    index += 1
                    try:
                        power = int(nvalue)
                    except ValueError:  # beyond the interpreter's int-from-str digit limit
                        raise PolynomialSyntaxError("exponent too long", npos) from None
                exponents[_VARS[value]] += power
                saw_factor = True
            elif kind == "num":
                if value != "1":
                    raise PolynomialSyntaxError(
                        f"coefficient {value} not supported (unit coefficients only)", pos
                    )
                index += 1
                saw_factor = True
            elif kind == "*":
                if not saw_factor:
                    raise PolynomialSyntaxError("unexpected '*'", pos)
                index += 1
                continue
            else:
                break
            kind, value, pos = peek()
            if kind == "*":
                index += 1
        if not saw_factor:
            raise PolynomialSyntaxError("expected a term", peek()[2])
        terms.append(tuple(exponents))
        kind, value, pos = peek()
        if kind is None:
            break
        if kind != "+":
            raise PolynomialSyntaxError(f"expected '+', got {value!r}", pos)
        index += 1
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


def _verify_polygon(cat, bound):
    from . import oracles
    results = []
    classes, histogram = oracles.class_census(bound)
    results.append(
        (
            f"census bound {bound}",
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


def _verify_lemma():
    from . import oracles
    hits = oracles.prime_gap_scan(200)
    return [("prime gaps up to 200", hits == [6, 12, 30], f"got {hits}")]


def _verify_delta(cat):
    results = []
    for rep_id, rep in cat.representatives.items():
        ok = True
        detail = ""
        for n in (rep.divisibility, 2 * rep.divisibility):
            curve = cat.weierstrass_at(rep_id, n)
            if discriminant(curve) != cat.delta_at(rep_id, n):
                ok, detail = False, f"delta mismatch at n={n}"
                break
            j_num, j_den = j_invariant(curve)
            cat_num, cat_den = cat.j_at(rep_id, n)
            if j_num * cat_den != cat_num * j_den:
                ok, detail = False, f"j mismatch at n={n}"
                break
        results.append((f"delta/j {rep_id}", ok, detail))
    return results


def _cmd_verify(args, catalog):
    cat = catalog()
    checks = []
    if args.suite in ("lambda", "all"):
        checks += _verify_lambda(cat, args.nmax)
    if args.suite in ("polygon", "all"):
        checks += _verify_polygon(cat, args.bound)
    if args.suite in ("lemma", "all"):
        checks += _verify_lemma()
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
        "--suite", choices=("lambda", "polygon", "lemma", "delta", "all"), default="all"
    )
    p.add_argument("--nmax", type=int, default=60, help="lambda suite parameter cap")
    p.add_argument("--bound", type=int, choices=(4, 5), default=4, help="polygon suite bound")

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
