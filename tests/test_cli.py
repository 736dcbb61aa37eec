import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delsarte
from delsarte import lattice, lefschetz_number, oracles

from delsarte.catalog import DEFAULT_CATALOG
from delsarte.cli import LAMBDA_SUITE_BUDGET, main, parse_polynomial
from delsarte.errors import DelsarteError, PolynomialSyntaxError


def test_parse_polynomial_basic():
    assert set(parse_polynomial("1 + t^6 + X^3 + Y^2")) == {
        (0, 0, 0),
        (6, 0, 0),
        (0, 3, 0),
        (0, 0, 2),
    }


def test_parse_polynomial_products():
    assert parse_polynomial("t^2*X*Y + X^3 + Y^2 + 1") == (
        (2, 1, 1),
        (0, 3, 0),
        (0, 0, 2),
        (0, 0, 0),
    )
    assert parse_polynomial("t^2 X Y + X^3 + Y^2 + 1")[0] == (2, 1, 1)


def test_parse_polynomial_errors():
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("1 + X^3 + Y^2")  # three terms
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("1 + 1 + X^3 + Y^2")  # duplicate monomial
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("2 + t + X^3 + Y^2")  # coefficient
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial("1 + t^ + X^3 + Y^2")
    assert err.value.position is not None
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("1 + z + X^3 + Y^2")


def test_parse_polynomial_accepts_ascii_digits_only():
    # str.isdigit() accepts both; int() rejects the superscript and reads the Arabic-Indic 3.
    for text in ("1 + t^\u00b2 X^3 + X^3 + Y^2", "1 + t^\u0663 + X^3 + Y^2"):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial(text)
        assert err.value.position == 6
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("1 + t^" + "9" * 5000 + " + X^3 + Y^2")


# Non-ASCII digits (superscript two, Arabic-Indic three, fullwidth three) and other strays.
_POLY_CHARS = list("tXY^*+ 0123456789") + ["\u00b2", "\u0663", "\uff13", "\n", "z", "-", "("]
_FACTOR = st.one_of(
    st.just("1"),
    st.builds(
        str.__add__,
        st.sampled_from(["t", "X", "Y"]),
        st.sampled_from(["", "^0", "^1", "^2", "^3", "^6", "^12", "^\u00b2"]),
    ),
)
_TERM = st.builds(str.join, st.sampled_from(["*", " ", ""]), st.lists(_FACTOR, min_size=1, max_size=3))
_POLY_TEXT = st.one_of(
    # Code points below U+0800 (Latin-1, Greek, Cyrillic, Arabic and its
    # digits), drawn from a list: st.characters() makes hypothesis build its
    # Unicode category table on first use, 2-3 s.
    st.text(st.sampled_from([chr(c) for c in range(0x800)])),
    st.text(st.sampled_from(_POLY_CHARS)),
    st.lists(_TERM, min_size=4, max_size=4).map(" + ".join),
)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_POLY_TEXT)
def test_parse_polynomial_yields_terms_or_syntax_error(text):
    try:
        terms = parse_polynomial(text)
    except PolynomialSyntaxError:
        return
    assert len(terms) == 4 and len(set(terms)) == 4
    assert all(type(e) is int and e >= 0 for term in terms for e in term)
    assert all(len(term) == 3 for term in terms)


def test_rank_command(capsys):
    assert main(["rank", "--family", "1a", "--n", "360"]) == 0
    out = capsys.readouterr().out
    assert "rank            = 68" in out


def test_rank_divisibility_exit_code(capsys):
    assert main(["rank", "--family", "1a", "--n", "7"]) == 3


def test_rank_maps_through_representative(capsys):
    assert main(["rank", "--family", "5b", "--n", "120"]) == 0
    out = capsys.readouterr().out
    assert "representative 1a at n = 360" in out
    assert "rank            = 68" in out


def test_lambda_command_and_plain_lambda_for_inadmissible_n(capsys):
    # rank needs divisibility, but a plain lambda is still computable
    assert main(["lambda", "--family", "1a", "--n", "7"]) == 0
    out = capsys.readouterr().out
    assert "group order |L| = 42" in out


def test_lambda_poly_json_roundtrip(capsys):
    assert main(["lambda", "--poly", "1 + t^60 X^3 + X^3 + Y^2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"group_order": 360, "lambda": 98}


def test_lambda_syntax_error_exit_code(capsys):
    assert main(["lambda", "--poly", "1 + q + X^3 + Y^2"]) == 2
    assert "error" in capsys.readouterr().err
    # An empty --poly is a polynomial to parse, not a missing --family.
    assert main(["lambda", "--poly", ""]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: empty polynomial (at position 0)\n")


@pytest.mark.parametrize(
    "argv, err",
    [
        (["genus", "--poly", "1 + 1 + X^3 + Y^2"], "error: repeated identical monomial\n"),
        (["lambda", "--poly", "1 + X^3 + Y^2"], "error: need exactly 4 terms, got 3\n"),
    ],
)
def test_four_term_rule_exit_code(argv, err, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", err)


def test_lambda_singular_exit_code(capsys):
    assert main(["lambda", "--poly", "1 + X + X^2 + X^3"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["lambda", "--poly", "1 + t^1000000 X^3 + X^3 + Y^2"],  # |L| = 6000000
        ["rank", "--rep", "1a", "--n", "360000"],  # |L| = 2160000
    ],
)
def test_group_above_cap_exit_code(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 2
    assert "above the cap" in capsys.readouterr().err


def test_group_order_mismatch_exit_code(monkeypatch, capsys):
    lattice.lefschetz_number.cache_clear()
    monkeypatch.setattr(lattice, "group_order", lambda matrix: 1)
    assert main(["lambda", "--poly", "1 + t^12 X^3 + X^3 + Y^2"]) == 4
    assert "|det A| / d" in capsys.readouterr().err


def test_table_command(capsys):
    assert main(["table"]) == 0
    out = capsys.readouterr().out
    assert "42/42 rows match" in out


def test_table_json_roundtrip(catalog, capsys):
    assert main(["table", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == [entry.to_dict() for entry in catalog.reproduce_table()]
    assert max(entry["computed_rank"] for entry in payload) == 68


def test_genus_command(capsys):
    assert main(["genus", "--poly", "1 + t^2 X Y + X^3 + Y^2"]) == 0
    out = capsys.readouterr().out
    assert "interior points = 1" in out
    assert "exact" in out
    assert "class           = w1" in out


def test_genus_upper_bound_when_singular(capsys):
    assert main(["genus", "--poly", "1 + X^2 + Y^2 + X*Y"]) == 0
    out = capsys.readouterr().out
    assert "upper bound" in out


def test_classify_command(capsys):
    assert main(["classify", "--poly", "1 + t^4 X^2 Y + X^3 + Y^2"]) == 0
    assert "class     = w8" in capsys.readouterr().out


def test_classify_rejects_higher_genus(capsys):
    assert main(["classify", "--poly", "1 + t^4 + X^4 + Y^4"]) == 3


def test_equiv_command(capsys):
    assert (
        main(["equiv", "--poly", "1 + t^5 + X^3 + Y^2", "--poly", "Y + t^2 X Y + X^3 + Y^2"])
        == 0
    )
    assert "not equivalent" in capsys.readouterr().out
    assert (
        main(["equiv", "--poly", "1 + t^5 + X^3 + Y^2", "--poly", "1 + t^3 X^3 + X^3 + Y^2"])
        == 0
    )
    assert "equivalent: matrix" in capsys.readouterr().out


def test_census_command(capsys):
    assert main(["census", "--bound", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["classes"]) == 16
    assert payload["corner_histogram"] == {"3": 5, "4": 7, "5": 3, "6": 1}


def test_census_scan_disagreement_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(oracles, "interior_scan", lambda polygon: (1, 0))
    assert main(["census", "--bound", "4"]) == 4
    assert "scan (1, 0) != counts" in capsys.readouterr().err


def test_verify_lemma_suite(capsys):
    assert main(["verify", "--suite", "lemma"]) == 0
    assert "1/1 checks passed" in capsys.readouterr().out


def test_verify_delta_suite(capsys):
    assert main(["verify", "--suite", "delta"]) == 0
    assert "11/11 checks passed" in capsys.readouterr().out


def test_verify_lambda_suite_small_cap(capsys):
    assert main(["verify", "--suite", "lambda", "--nmax", "12"]) == 0
    assert "11/11 checks passed" in capsys.readouterr().out


def test_verify_lambda_suite_refuses_work_above_its_budget(monkeypatch, capsys):
    # Sum of |L| over the cases: 49595 at --nmax 131, 52103 at 132. The
    # brute force is stood in for by the fast count, so only the budget is
    # under test, and it must refuse before any brute force runs.
    calls = []

    def brute(matrix):
        calls.append(matrix)
        return lefschetz_number(matrix)

    monkeypatch.setattr(oracles, "brute_lambda", brute)
    for nmax in ("60", "131"):
        assert main(["verify", "--suite", "lambda", "--nmax", nmax]) == 0, nmax
        assert "11/11 checks passed" in capsys.readouterr().out
    calls.clear()
    for nmax in ("132", "1000000000000"):
        start = time.perf_counter()
        assert main(["verify", "--suite", "lambda", "--nmax", nmax]) == 3, nmax
        assert time.perf_counter() - start < 1.0
        assert f"{LAMBDA_SUITE_BUDGET} characters" in capsys.readouterr().err
    assert not calls


GOLDEN_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "cli.json"


def test_golden_cli_outputs_replay(capsys):
    # Every command the benchmark checks its CLI outputs against, run in
    # process: exit 0 and the same stdout, byte for byte.
    golden = json.loads(GOLDEN_CLI.read_text())
    cases = [case for kind in sorted(golden) for case in golden[kind]]
    assert len(cases) == 265
    for case in cases:
        assert main(case["argv"]) == 0, case["argv"]
        assert capsys.readouterr().out == case["stdout"], case["argv"]


def test_output_byte_stability(capsys):
    main(["rank", "--family", "11", "--n", "120", "--json"])
    first = capsys.readouterr().out
    main(["rank", "--family", "11", "--n", "120", "--json"])
    assert capsys.readouterr().out == first


def test_catalog_override(tmp_path, capsys):
    copy = tmp_path / "families.cat"
    copy.write_text(DEFAULT_CATALOG.read_text())
    assert main(["--catalog", str(copy), "rank", "--rep", "12", "--n", "2"]) == 0
    assert "rank            = 0" in capsys.readouterr().out
    broken = tmp_path / "broken.cat"
    broken.write_text("family id=zz\n")
    assert main(["--catalog", str(broken), "table"]) == 2


@pytest.mark.parametrize("name", ["missing.cat", ""])
def test_unreadable_catalog_exit_code(tmp_path, name, capsys):
    path = tmp_path / name  # a missing file, then a directory
    assert main(["--catalog", str(path), "table"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: ")
    assert err.count("\n") == 1


def test_catalog_that_is_not_utf8_names_its_path_and_line(tmp_path, capsys):
    lines = DEFAULT_CATALOG.read_bytes().split(b"\n")
    lines[9] += b" \xff"
    path = tmp_path / "families.cat"
    path.write_bytes(b"\n".join(lines))
    assert main(["--catalog", str(path), "table"]) == 2
    assert capsys.readouterr().err == f"error: line 10: {path} is not UTF-8: byte 0xff\n"


#: The exit code each concrete error class documents: 2 invalid input,
#: 3 precondition violation, 4 internal inconsistency.
EXIT_CODES = {
    "CatalogError": 2,
    "InvalidConfigError": 2,
    "PolynomialSyntaxError": 2,
    "DegenerateSupportError": 3,
    "DivisibilityError": 3,
    "GroupTooLargeError": 3,
    "NonEllipticError": 3,
    "NotOneInteriorError": 3,
    "SingularMatrixError": 3,
    "ClassificationError": 4,
    "GroupOrderError": 4,
    "RankInconsistencyError": 4,
}


def test_error_classes_carry_their_exit_codes():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    concrete = [cls for cls in subclasses(DelsarteError) if not cls.__subclasses__()]
    assert {cls.__name__: cls.exit_code for cls in concrete} == EXIT_CODES


def test_unknown_family_exit_code(capsys):
    assert main(["rank", "--family", "zz", "--n", "6"]) == 2
    assert capsys.readouterr().err == "error: unknown family id 'zz'\n"
    assert main(["rank", "--rep", "zz", "--n", "6"]) == 2
    assert capsys.readouterr().err == "error: unknown representative id 'zz'\n"


def test_rank_reports_failed_check(tmp_path, capsys):
    # a wrong closed form must surface as a failed check and exit code 4
    doctored = DEFAULT_CATALOG.read_text().replace("lambda=2n-72", "lambda=2n-70")
    path = tmp_path / "families.cat"
    path.write_text(doctored)
    assert main(["--catalog", str(path), "rank", "--rep", "1a", "--n", "360"]) == 4
    assert "lambda-formula FAIL" in capsys.readouterr().out


def test_long_sum_chain_in_catalog_exits_cleanly(tmp_path, capsys):
    # A 1201-term b= once overflowed the recursive evaluator; it now
    # evaluates, and the wrong b fails the delta identity (exit 4).
    chain = "+".join(["1"] * 1200) + "+t^n"
    text = DEFAULT_CATALOG.read_text().replace(" b=1+t^n ", f" b={chain} ", 1)
    path = tmp_path / "families.cat"
    path.write_text(text)
    assert main(["--catalog", str(path), "rank", "--rep", "1a", "--n", "360"]) == 4
    captured = capsys.readouterr()
    assert "delta-identity FAIL" in captured.out
    assert "Traceback" not in captured.err


def test_delta_identity_is_proved_for_every_n(tmp_path, capsys):
    # The two extra terms cancel at n = 360 only; a check at that n alone
    # would pass, the identity proved once for every n fails.
    text = DEFAULT_CATALOG.read_text().replace(
        "delta=-432*(1+t^n)^2 ", "delta=-432*(1+t^n)^2+t^(2n)-t^(n+360) ", 1
    )
    path = tmp_path / "families.cat"
    path.write_text(text)
    for n in ("360", "720"):
        assert main(["--catalog", str(path), "rank", "--rep", "1a", "--n", n]) == 4, n
        assert "delta-identity FAIL" in capsys.readouterr().out


def test_j_identity_is_checked_on_the_rank_path(tmp_path, capsys):
    text = DEFAULT_CATALOG.read_text().replace("jnum=6912*t^3n ", "jnum=6913*t^3n ", 1)
    path = tmp_path / "families.cat"
    path.write_text(text)
    assert main(["--catalog", str(path), "rank", "--rep", "1b", "--n", "840"]) == 4
    assert "delta-identity FAIL" in capsys.readouterr().out


def test_vanishing_discriminant_exits_3(tmp_path, capsys):
    # 1a has a=0, so b=0 makes 4a^3 + 27b^2 vanish identically
    text = DEFAULT_CATALOG.read_text().replace(" b=1+t^n ", " b=0 ", 1)
    path = tmp_path / "families.cat"
    path.write_text(text)
    assert main(["--catalog", str(path), "rank", "--rep", "1a", "--n", "360"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: representative 1a: the discriminant vanishes\n")


def test_long_product_chain_in_catalog_exits_at_its_line(tmp_path, capsys):
    # 800 factors of (1+t^n) once loaded and took about 0.5 s per evaluation;
    # the expansion passes MAX_TERMS monomials at the 32nd factor and is
    # refused at load.
    chain = "*".join(["(1+t^n)"] * 800)
    text = DEFAULT_CATALOG.read_text().replace(" b=1+t^n ", f" b={chain} ", 1)
    path = tmp_path / "families.cat"
    path.write_text(text)
    start = time.perf_counter()
    assert main(["--catalog", str(path), "rank", "--rep", "1a", "--n", "360"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "line 86" in err
    assert len(err) < 200, err


_NO_NUMPY_SCRIPT = """
import contextlib, io, sys
from delsarte.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["table", "--json"]),
        main(["rank", "--rep", "1a", "--n", "360", "--json"]),
        main(["classify", "--poly", "1 + t^4 X^2 Y + X^3 + Y^2"]),
        main(["census", "--bound", "4"]),
    ]
    cold = "numpy" in sys.modules
    codes.append(main(["verify", "--suite", "lambda", "--nmax", "12"]))
print(codes, cold, "numpy" in sys.modules)
"""


def _run_fresh(script):
    """The stdout words of `script` run in a fresh interpreter with the package's src on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(delsarte.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_no_command_loads_numpy():
    assert _run_fresh(_NO_NUMPY_SCRIPT) == ["[0,", "0,", "0,", "0,", "0]", "False", "False"]


_COLD_IMPORT_SCRIPT = """
import contextlib, io, sys
before = set(sys.modules)
from delsarte import load_catalog
from delsarte.cli import main

load_catalog()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["rank", "--rep", "1a", "--n", "360"]), main(["classify", "--poly", "1 + t^4 X^2 Y + X^3 + Y^2"])]
    loaded = sorted(set(sys.modules) - before)
    codes += [main(["census"]), main(["verify", "--suite", "lemma"])]
print(codes, "dataclasses" in loaded, "delsarte.oracles" in loaded, "delsarte.oracles" in sys.modules)
"""


def test_cold_start_imports_neither_dataclasses_nor_oracles():
    # Start-up cost: the records are NamedTuples and slotted classes, and only
    # census and verify import the brute-force oracles.
    assert _run_fresh(_COLD_IMPORT_SCRIPT) == ["[0,", "0,", "0,", "0]", "False", "False", "True"]
