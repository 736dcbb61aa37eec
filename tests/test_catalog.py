import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsarte import (
    Kodaira,
    SparsePoly,
    UnimodularAffineMap,
    discriminant,
    j_invariant,
    load_catalog,
)
from delsarte.catalog import _REP_FIELDS, _ROW_FIELDS, DEFAULT_CATALOG
from delsarte.errors import CatalogError, DivisibilityError, NonEllipticError
from delsarte.fibers import KODAIRA_TYPES
from delsarte.weierstrass import MAX_TERMS, affine_at, affine_text, parse_affine, parse_poly

REP_IDS = ["1a", "1b", "1c", "1d", "1g", "2a", "2b", "2e", "3d", "11", "12"]


def test_bundled_counts(catalog):
    assert len(catalog.rows) == 42
    assert list(catalog.representatives) == REP_IDS


def test_group_sizes(catalog):
    sizes = {rep_id: 0 for rep_id in REP_IDS}
    for row in catalog.rows.values():
        sizes[row.rep] += 1
    assert [sizes[rep_id] for rep_id in REP_IDS] == [8, 5, 3, 7, 1, 6, 5, 2, 2, 1, 2]
    assert sum(sizes.values()) == 42


def test_affine_parsing():
    # parse_affine returns the ring's exponent pair (c, s) for c + s*n.
    assert parse_affine("2n-72") == (Fraction(-72), Fraction(2))
    # Integral parts parse to ints, which equal and hash like the Fractions.
    assert hash(parse_affine("2n-72")) == hash((Fraction(-72), Fraction(2)))
    assert parse_affine("2n-72") != (-72, 3)
    assert parse_affine("n") == (Fraction(0), Fraction(1))
    assert parse_affine("-72+2n") == (Fraction(-72), Fraction(2))
    assert parse_affine("n/3") == (Fraction(0), Fraction(1, 3))
    assert parse_affine("12") == (Fraction(12), Fraction(0))
    assert affine_at(parse_affine("n/3"), 6) == 2
    with pytest.raises(ValueError, match="n/3 is not integral at n=7"):
        affine_at(parse_affine("n/3"), 7)
    assert parse_affine("-2n/3+1") == (1, Fraction(-2, 3))
    for text in ("n^2", "2n-72-", "+", "2n--72", "--n", "3n+-2", "n/", "1/3"):
        with pytest.raises(ValueError, match="bad affine expression"):
            parse_affine(text)
    with pytest.raises(ValueError, match="zero denominator in '6n/0'"):
        parse_affine("6n/0")


def test_affine_text_round_trips():
    assert [affine_text(p) for p in [(-72, 2), (0, 0), (12, 0), (0, -1), (1, Fraction(-2, 3))]] == [
        "2n-72", "0", "12", "-n", "-2n/3+1",
    ]
    rng = random.Random(22)
    slopes = [0, 1, -1, 3, Fraction(2, 3), Fraction(-1, 3), Fraction(5, 12)]
    for _ in range(500):
        pair = (rng.randint(-400, 400), rng.choice(slopes) * rng.choice([1, 1, 2, -5]))
        assert parse_affine(affine_text(pair)) == pair, pair


def test_catalog_grammar_names_the_loader_fields():
    # The grammar comment at the top of the catalog is the format's only
    # documentation, so it must name exactly the fields the loader accepts.
    grammar = re.findall(r"^#   (family|representative) (.*\n(?:#          .*\n)*)",
                         DEFAULT_CATALOG.read_text(), re.M)
    fields = {kind: set(re.findall(r"(\w+)=", text)) for kind, text in grammar}
    assert fields == {"family": _ROW_FIELDS, "representative": _REP_FIELDS}


def test_catalog_grammar_names_the_kodaira_types():
    # The TYPE line names exactly the types of the Kodaira table, and the
    # ones among them that take an index.
    names, indexed = re.search(r"^#   TYPE : Kodaira type (.*); (.*) take a$",
                               DEFAULT_CATALOG.read_text(), re.M).groups()
    assert names.split(", ") == list(KODAIRA_TYPES)
    assert indexed.split(" and ") == [
        name for name, (_, _, least) in KODAIRA_TYPES.items() if least is not None
    ]


def test_records_are_immutable(catalog):
    records = [
        (Kodaira("I", 3), "k"),
        (catalog.row("1a"), "nmap"),
        (catalog.representative_rank("1a", 360), "rank"),
        (UnimodularAffineMap(((1, 1), (0, 1))), "shift"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)


def test_to_dict_keys(catalog):
    report = catalog.representative_rank("1a", 360)
    assert set(report.to_dict()) == {
        "family", "n", "group_order", "lambda", "euler", "h2", "rho_triv", "rank", "checks",
    }
    assert set(catalog.reproduce_table()[0].to_dict()) == {
        "id", "polygon", "table_n", "rep", "rep_n", "own_lambda", "computed_rank",
        "expected_rank", "match",
    }


def test_poly_expr():
    poly = parse_poly("-432*(1+t^n)^2").evaluate(2)
    # items() keys are monomials (c, s); at a fixed n every s is 0
    assert poly.items() == [((0, 0), -432), ((2, 0), -864), ((4, 0), -432)]
    assert parse_poly("-3*t^(n/3)").evaluate(6).items() == [((2, 0), -3)]
    assert parse_poly("2/27-1/3*t^n").evaluate(1).items() == [
        ((0, 0), Fraction(2, 27)),
        ((1, 0), Fraction(-1, 3)),
    ]
    with pytest.raises(ValueError):
        parse_poly("t^^2")
    with pytest.raises(ValueError, match=r"^n/3 is not integral at n=7$"):
        parse_poly("t^(n/3)").evaluate(7)


def test_family_terms(catalog):
    assert set(catalog.family_terms("1d", 60)) == {(0, 0, 0), (0, 3, 0), (60, 3, 0), (0, 0, 2)}
    assert set(catalog.family_terms("12", 2)) == {(2, 0, 0), (0, 2, 0), (0, 0, 2), (0, 2, 2)}
    assert set(catalog.family_terms("1a", 6)) == {(0, 0, 0), (6, 0, 0), (0, 3, 0), (0, 0, 2)}
    with pytest.raises(KeyError):
        catalog.family_terms("9z", 6)


def test_representative_at(catalog):
    assert catalog.representative_at("5b", 120) == ("1a", 360)
    assert catalog.representative_at("1a", 7) == ("1a", 7)
    assert catalog.representative_at("8", 560) == ("1b", 840)
    for family_id, n in (("8", 3), ("1a", 0)):
        with pytest.raises(DivisibilityError, match="not a positive integer"):
            catalog.representative_at(family_id, n)
    with pytest.raises(KeyError):
        catalog.representative_at("9z", 6)


def test_table_parameters(catalog):
    assert catalog.table_parameter("10") == 2
    assert catalog.table_parameter("12") == 2
    assert catalog.table_parameter("8") == 840
    assert catalog.table_parameter("5b") == 360


def test_representative_rank_1a(catalog):
    report = catalog.representative_rank("1a", 360)
    assert (report.rank, report.lefschetz, report.h2, report.rho_triv) == (68, 648, 718, 2)
    assert report.group_order == 2160
    assert all(ok for _, ok in report.checks)


def test_representative_rank_12(catalog):
    report = catalog.representative_rank("12", 2)
    assert (report.rank, report.lefschetz, report.h2, report.rho_triv) == (0, 0, 10, 10)
    assert all(ok for _, ok in report.checks)


def test_representative_rank_divisibility(catalog):
    with pytest.raises(DivisibilityError):
        catalog.representative_rank("1a", 7)
    with pytest.raises(DivisibilityError):
        catalog.representative_rank("1d", 0)


def test_per_n_accessors_check_divisibility(catalog):
    # Every representative's div is above 1 and none is 7, so n = 7 is
    # refused by each per-n accessor, exit 3, naming the representative.
    accessors = (catalog.weierstrass_at, catalog.delta_at, catalog.j_at, catalog.fibers_at,
                 catalog.representative_rank)
    for rep_id, rep in catalog.representatives.items():
        message = rf"^representative {rep_id} requires {rep.divisibility} \| n; got n = 7$"
        for accessor in accessors:
            with pytest.raises(DivisibilityError, match=message) as caught:
                accessor(rep_id, 7)
            assert caught.value.exit_code == 3


def test_representative_rank_rejects_non_integral_n(catalog):
    with pytest.raises(ValueError, match="360.5 is not an integer"):
        catalog.representative_rank("1a", 360.5)
    assert catalog.representative_rank("1a", 360.0) == catalog.representative_rank("1a", 360)


def test_row_4f_maps_through_doubling(catalog):
    assert catalog.representative_at("4f", 12) == ("2a", 24)
    assert catalog.table_parameter("4f") == 24
    entry = next(e for e in catalog.reproduce_table() if e.id == "4f")
    assert (entry.rep, entry.rep_n, entry.computed_rank, entry.match) == ("2a", 24, 24, True)


# h2 and rho_triv closed forms of the 11 representatives, as (slope, const)
# in the parameter n; frozen reference data for the fiber bookkeeping.
H2_FORMS = {
    "1a": (2, -2), "1b": (3, -2), "1c": (6, -2), "1d": (4, -2), "1g": (6, -2),
    "2a": (3, -2), "2b": (3, -2), "2e": (6, -2), "3d": (12, -2), "11": (2, -2),
    "12": (6, -2),
}
RHO_FORMS = {
    "1a": (0, 2), "1b": (0, 2), "1c": (3, 1), "1d": (2, 2), "1g": (4, 2),
    "2a": (1, 2), "2b": (2, 1), "2e": (4, 2), "3d": (9, 1), "11": (1, 2),
    "12": (5, 0),
}


def test_h2_and_rho_closed_forms(catalog):
    from delsarte import rho_triv, second_betti

    for rep_id, rep in catalog.representatives.items():
        for n in (rep.divisibility, 3 * rep.divisibility):
            config = catalog.fibers_at(rep_id, n)
            slope, const = H2_FORMS[rep_id]
            assert second_betti(config) == slope * n + const, (rep_id, n)
            slope, const = RHO_FORMS[rep_id]
            assert rho_triv(config) == slope * n + const, (rep_id, n)


def test_poly_expr_terms():
    # (c, s) -> coefficient, one entry per monomial t^(c+s*n); ints where integral.
    assert parse_poly("-(t^4n+24*t^n)^3") == SparsePoly({
        (0, 12): -1, (0, 9): -72, (0, 6): -1728, (0, 3): -13824,
    })
    assert parse_poly("-432*(1+t^n)^2+t^(2n)-t^(n+360)") == SparsePoly({
        (0, 0): -432, (0, 1): -864, (0, 2): -431, (360, 1): -1,
    })
    assert parse_poly("(t^(n-3)+t^2)*t^(n/3)") == SparsePoly({
        (-3, Fraction(4, 3)): 1, (2, Fraction(1, 3)): 1,
    })
    assert parse_poly("7") == SparsePoly({(0, 0): 7})
    for text in ("-(t^4n+24*t^n)^3", "t^(n/3)*t^(2n/3)-1/3*3", "7"):
        for (c, s), coeff in parse_poly(text).items():
            assert (type(c), type(s), type(coeff)) == (int, int, int), text


def test_bundled_monomial_counts_stay_below_the_cap(catalog):
    polys = [
        poly
        for rep in catalog.representatives.values()
        for poly in (rep.a, rep.b, rep.delta, rep.j_num, rep.j_den)
    ]
    assert len(polys) == 55
    assert max(len(poly) for poly in polys) == 7 < MAX_TERMS
    assert len(catalog.representative("12").j_num) == 7


_RATIONAL = re.compile(r"(\d+)/(\d+)")
_POWER_OF_T = re.compile(r"t(?:\^(\([^)]*\)|\d*n|\d+))?")


def _reference_evaluate(text, n):
    """The catalog polynomial at n, built differently from parse_poly.

    Each exponent of t is first replaced by its integer value at n, and the
    result is computed by Python's own parser with SparsePoly arithmetic.
    """

    def monomial(match):
        exponent = affine_at(parse_affine((match.group(1) or "1").strip("()")), n)
        return f"T({exponent})"

    code = _RATIONAL.sub(r"F(\1, \2)", _POWER_OF_T.sub(monomial, text)).replace("^", "**")
    value = eval(code, {"T": lambda exponent: SparsePoly({exponent: 1}), "F": Fraction})
    return value if isinstance(value, SparsePoly) else SparsePoly(value)


def test_evaluate_matches_reference_on_bundled_expressions(catalog):
    # The polynomial fields of each representative record, as written in the file.
    fields = {"a": "a", "b": "b", "delta": "delta", "jnum": "j_num", "jden": "j_den"}
    checked = 0
    for line in DEFAULT_CATALOG.read_text().split("\n"):
        tokens = line.split("#", 1)[0].split()
        if tokens[:1] != ["representative"]:
            continue
        record = dict(token.split("=", 1) for token in tokens[1:])
        rep = catalog.representative(record["id"])
        for key, attr in fields.items():
            for k in range(1, 5):
                n = rep.divisibility * k
                assert getattr(rep, attr).evaluate(n) == _reference_evaluate(record[key], n), (rep.id, key, n)
            checked += 1
    assert checked == 55


# Exponents c + s*n that are nonnegative integers at every n = 6k.
_EXPONENTS = ["", "^0", "^5", "^n", "^3n", "^(n/2)", "^(n/3+1)", "^(2n-5)", "^(n/6+2)", "^(5n/6)"]
_NUMBERS = ["0", "1", "2", "12", "2/27", "1/3", "5/4"]


def _random_poly_text(rng, depth):
    """A random catalog polynomial of nesting depth at most depth."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(["t" + rng.choice(_EXPONENTS), rng.choice(_NUMBERS)])
    left = f"({_random_poly_text(rng, depth - 1)})"
    right = f"({_random_poly_text(rng, depth - 1)})"
    return rng.choice([f"{left}+{right}", f"{left}-{right}+t", f"-{left}*{right}",
                       f"{left}*{right}", f"{left}^{rng.randrange(4)}"])


def test_evaluate_matches_reference_on_generated_expressions():
    rng = random.Random(5)
    texts = set()
    while len(texts) < 200:
        text = _random_poly_text(rng, 4)
        try:
            poly = parse_poly(text)
        except ValueError as exc:
            assert "monomials" in str(exc), text
            continue
        assert len(poly) <= MAX_TERMS
        for n in (6, 12, 18, 24):
            assert poly.evaluate(n) == _reference_evaluate(text, n), (text, n)
        texts.add(text)


def test_delta_and_j_identities(catalog):
    for rep_id, rep in catalog.representatives.items():
        n = rep.divisibility
        curve = catalog.weierstrass_at(rep_id, n)
        assert discriminant(curve) == catalog.delta_at(rep_id, n), rep_id
        j_num, j_den = j_invariant(curve)
        cat_num, cat_den = catalog.j_at(rep_id, n)
        assert j_num * cat_den == cat_num * j_den, rep_id


def _mutated_catalog(tmp_path, old, new):
    text = DEFAULT_CATALOG.read_text()
    assert old in text
    path = tmp_path / "families.cat"
    path.write_text(text.replace(old, new))
    return path


def test_parse_error_carries_line_number(tmp_path):
    path = _mutated_catalog(tmp_path, "table_n=360 rank=68", "table_n=x rank=68")
    with pytest.raises(CatalogError) as err:
        load_catalog(path)
    assert "line" in str(err.value)


def test_collinear_row_rejected(tmp_path):
    path = _mutated_catalog(
        tmp_path,
        "family id=1a terms=(t:0,x:0,y:0);(t:n,x:0,y:0);(t:0,x:3,y:0);(t:0,x:0,y:2)",
        "family id=1a terms=(t:0,x:0,y:0);(t:n,x:1,y:0);(t:0,x:2,y:0);(t:0,x:3,y:0)",
    )
    with pytest.raises(CatalogError) as err:
        load_catalog(path)
    assert "1a" in str(err.value)


def test_higher_genus_row_rejected(tmp_path):
    # raising the Y-degree gives a three-interior-point hull; the loader
    # must reject it while naming the row
    path = _mutated_catalog(
        tmp_path,
        "family id=5a terms=(t:0,x:0,y:0);(t:n,x:0,y:0);(t:0,x:3,y:0);(t:0,x:0,y:3)",
        "family id=5a terms=(t:0,x:0,y:0);(t:n,x:0,y:0);(t:0,x:3,y:0);(t:0,x:0,y:4)",
    )
    with pytest.raises(CatalogError) as err:
        load_catalog(path)
    assert "5a" in str(err.value)


def test_wrong_polygon_label_rejected(tmp_path):
    path = _mutated_catalog(tmp_path, "polygon=w12", "polygon=w9")
    with pytest.raises(CatalogError) as err:
        load_catalog(path)
    assert "classifies" in str(err.value)


@pytest.mark.parametrize(
    "old, new, line, says",
    [
        # a zero divisibility would reach `n % div` in the row checks
        ("representative id=1a div=360", "representative id=1a div=0", 86, "div=0 is not"),
        ("representative id=1a div=360", "representative id=1a div=-360", 86, "div=-360 is not"),
        # unbounded nesting would exhaust the recursive-descent parser's stack
        ("b=1+t^n ", "b=" + "(" * 400 + "1" + ")" * 400 + " ", 86, "nested deeper"),
        # a power's cost grows about fivefold per doubling, so it is capped
        ("delta=-432*(1+t^n)^2 ", "delta=-432*(1+t^n)^800 ", 86, "above the cap"),
        ("family id=1a terms", "family id= terms", 27, "missing id="),
        # row 11 renamed: representative 11 is left without a row of its id
        ("family id=11 terms", "family id=13 terms", 95, "has no family row"),
        # the identity proof needs every exponent c + s*n to have s >= 0,
        # s*div integral and c + s*div >= 0
        ("b=1+t^n ", "b=1+t^(-n) ", 86, "b=: exponent -n"),
        ("b=1+t^n ", "b=1+t^(n/7) ", 86, "b=: exponent n/7"),
        (" jden=1\nrepresentative id=1b", " jden=t^(n-361)\nrepresentative id=1b", 86,
         "jden=: exponent n-361"),
        # a written-out product or sum is capped by MAX_TERMS monomials, which
        # MAX_POWER does not see; each of these loaded under a cap on the degree
        ("b=1+t^n ", "b=" + "*".join(["(1+t^n)"] * 800) + " ", 86, "more than 32 monomials"),
        ("b=(1+t^n)^3 ", "b=" + "*".join(["(1+t^5)"] * 800) + " ", 90, "more than 32 monomials"),
        ("b=1+t^n ", "b=" + "*".join(["(1+t)"] * 1000) + " ", 86, "more than 32 monomials"),
        (" a=0 b=1+t^n ", " a=" + "+".join(f"t^{k}" for k in range(1, 1001)) + " b=1+t^n ", 86,
         "more than 32 monomials"),
        # an affine field is one sign at most, then terms joined by single
        # signs; each of these once loaded with a sign dropped or ignored
        ("lambda=2n-72 ", "lambda=2n-72- ", 86, "bad affine expression '2n-72-'"),
        ("lambda=2n-72 ", "lambda=+ ", 86, "bad affine expression '+'"),
        ("lambda=2n-72 ", "lambda=2n--72 ", 86, "bad affine expression '2n--72'"),
        ("fibers=II:n ", "fibers=II:--n ", 86, "bad affine expression '--n'"),
        ("lambda=2n-72 ", "lambda=3n+-2 ", 86, "bad affine expression '3n+-2'"),
        # a zero denominator is named, not reported as a bare Fraction(1, 0)
        ("lambda=2n-72 ", "lambda=6n/0 ", 86, "zero denominator in '6n/0'"),
        ("b=1+t^n ", "b=1+t^(n/0) ", 86, "zero denominator in 'n/0'"),
        ("b=1+t^n ", "b=1/0 ", 86, "zero denominator in '1/0'"),
        # neff is gone: the table parameter is lcm(nmap*table_n, div)
        ("table_n=1 rank=0 rep=12 nmap=1\nfamily id=11", "table_n=1 rank=0 rep=12 nmap=1 neff=2\nfamily id=11",
         81, "unknown fields ['neff']"),
        # fiber and lambda fields must be valid at every n = div*m, not only
        # at the n a run happens to use
        ("fibers=I(1):3n ", "fibers=I(n-840):3n ", 87, "fibers=: I index n-840"),
        ("fibers=I(1):3n ", "fibers=I(1):3n-2520 ", 87, "fibers=: I count 3n-2520"),
        ("lambda=2n-72 ", "lambda=n/7 ", 86, "lambda=: n/7"),
        # a row's term exponents must be nonnegative integers at every n >= 1,
        # not only at table_n
        ("family id=1a terms=(t:0,x:0,y:0);(t:n,", "family id=1a terms=(t:0,x:0,y:0);(t:n/2,", 27,
         "terms=: exponent n/2"),
        ("family id=1a terms=(t:0,x:0,y:0);(t:n,", "family id=1a terms=(t:0,x:0,y:0);(t:n-10,", 27,
         "terms=: exponent n-10"),
    ],
    ids=[
        "div-zero", "div-negative", "deep-nesting", "power-cap", "empty-id",
        "orphan-representative", "negative-slope", "slope-off-div", "negative-exponent",
        "product-degree-cap", "constant-product-degree-cap", "product-term-cap",
        "sum-term-cap", "affine-trailing-sign", "affine-bare-sign", "affine-double-sign",
        "affine-leading-double-sign", "affine-plus-minus", "affine-zero-denominator",
        "exponent-zero-denominator", "rational-zero-denominator", "neff-field",
        "fiber-index-below-one", "fiber-count-below-one", "lambda-slope-off-div",
        "term-exponent-fractional", "term-exponent-negative",
    ],
)
def test_bad_record_rejected_at_its_line(tmp_path, old, new, line, says):
    path = _mutated_catalog(tmp_path, old, new)
    start = time.perf_counter()
    with pytest.raises(CatalogError) as err:
        load_catalog(path)
    assert time.perf_counter() - start < 1.0
    assert err.value.line == line
    assert says in str(err.value)
    assert len(str(err.value)) < 200, str(err.value)


def test_missing_row_rejected(tmp_path):
    text = DEFAULT_CATALOG.read_text()
    lines = [line for line in text.splitlines() if not line.startswith("family id=5j")]
    path = tmp_path / "families.cat"
    path.write_text("\n".join(lines))
    with pytest.raises(CatalogError) as err:
        load_catalog(path)
    assert "42" in str(err.value)


_CATALOG_LINES = DEFAULT_CATALOG.read_text().split("\n")
# Characters of the catalog grammar, then strays: separators that str.splitlines
# breaks lines at but a text editor does not, a tab, NUL, and non-ASCII
# letters and digits. Newlines are left out, so line numbers stay put.
_MUTATION_CHARS = list("familyrepsntv=();:,/*^+-#0123456789 I") + [
    "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028", "\u2029",
    "\t", "\x00", "\u00e9", "\u00b2", "\u0663",
]


_RECORD_INDICES = [
    i for i, line in enumerate(_CATALOG_LINES) if line.startswith(("family", "representative"))
]
# Field values at the edges of the grammar: zero and negative parameters,
# zero denominators, deep nesting, and integers past the int-from-str limit.
_HOSTILE_VALUES = [
    "", "0", "-1", "-360", "1/0", "n/0", "0n", "t^(n/0)", "x", "n^2", "=",
    "(" * 400 + "1" + ")" * 400, "9" * 5000, "I(0):0", "II", "(t:n,x:0,y:0)",
]


@st.composite
def _mutated_line(draw):
    """(line index, new text): a slice of a line rewritten, or a record's field value replaced."""
    if draw(st.booleans()):
        index = draw(st.integers(0, len(_CATALOG_LINES) - 1))
        line = _CATALOG_LINES[index]
        start = draw(st.integers(0, len(line)))
        stop = draw(st.integers(start, min(len(line), start + 12)))
        insert = draw(st.text(st.sampled_from(_MUTATION_CHARS), max_size=12))
        return index, line[:start] + insert + line[stop:]
    index = draw(st.sampled_from(_RECORD_INDICES))
    tokens = _CATALOG_LINES[index].split()
    field = draw(st.integers(1, len(tokens) - 1))
    key = tokens[field].split("=", 1)[0]
    tokens[field] = key + "=" + draw(st.sampled_from(_HOSTILE_VALUES))
    return index, " ".join(tokens)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _load(path, lines):
    """(catalog, None) when the lines load, else (None, the CatalogError)."""
    path.write_text("\n".join(lines))
    try:
        return load_catalog(path), None
    except CatalogError as err:
        return None, err


#: Seconds a loaded mutation may take to evaluate a, b and delta of every
#: representative at its div (the bundled catalog takes a few ms).
_EVALUATION_BUDGET = 2.0


def _evaluate_at_div(catalog):
    start = time.perf_counter()
    for rep_id, rep in catalog.representatives.items():
        n = rep.divisibility
        try:
            discriminant(catalog.weierstrass_at(rep_id, n))
        except NonEllipticError:
            pass  # a documented refusal: the CLI exits 3
        catalog.delta_at(rep_id, n)
    return time.perf_counter() - start


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_mutated_line())
def test_mutated_catalog_loads_or_names_its_line(fuzz_dir, mutation):
    # A record that fails to parse on its own (alone in a file, where the
    # only other error is the row count) must be reported at its own line;
    # the lines before it are untouched, so no earlier error can come first.
    # A mutation that loads must also evaluate within the time budget.
    index, line = mutation
    _, own = _load(fuzz_dir / "alone.cat", [line])
    parses = own.line is None
    lines = list(_CATALOG_LINES)
    lines[index] = line
    catalog, err = _load(fuzz_dir / "families.cat", lines)
    if catalog is not None:
        assert _evaluate_at_div(catalog) < _EVALUATION_BUDGET, line
    if not parses:
        assert own.line == 1, own
        assert err is not None and err.line == index + 1, err
    elif err is not None and err.line is None:
        assert str(err).startswith("expected "), err
    elif err is not None:
        assert lines[err.line - 1].split("#", 1)[0].strip(), err
