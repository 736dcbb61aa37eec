"""The bundled family catalog and the end-to-end rank pipeline.

The catalog file is line-oriented text (grammar documented at the top of
``data/families.cat``): 42 ``family`` rows, each mapping to one of 11
``representative`` records that carry the divisibility assumption, the
closed-form Lefschetz count, the singular-fiber configuration and the
Weierstrass data. ``representative_rank`` runs the whole pipeline
(exponent matrix -> Lefschetz number, fibers -> Euler number -> h2 and
trivial-lattice rank -> Mordell-Weil rank) and ``reproduce_table``
replays every table row through its representative.
"""

from __future__ import annotations

import gc
import re
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import NamedTuple

from .errors import CatalogError, DivisibilityError, NonEllipticError
from .fibers import KODAIRA_TYPES, Kodaira, euler_number, mordell_weil_rank, rho_triv, second_betti
from .lattice import group_order, homogenize, lefschetz_number
from .polygon import classify_one_interior, convex_hull
from .weierstrass import (SparsePoly, WeierstrassData, affine_at, affine_text, j_invariant,
                          parse_affine, parse_poly)

DEFAULT_CATALOG = Path(__file__).with_name("data") / "families.cat"


class FamilyRow(NamedTuple):
    """One table row: a four-term family with its rank data and mapping."""

    id: str
    terms: tuple  # ((t: (c, s), x: int, y: int), ...) exactly 4
    polygon: str
    table_n: int
    max_rank: int
    rep: str
    nmap: Fraction


class Representative(NamedTuple):
    """A family with full invariant data, valid when divisibility | n."""

    id: str
    divisibility: int
    lambda_formula: tuple  # (c, s) for c + s*n
    fibers: tuple  # ((family, index (c, s) | None, count (c, s)), ...)
    a: SparsePoly  # each monomial (c, s) is t^(c+s*n)
    b: SparsePoly
    delta: SparsePoly
    j_num: SparsePoly
    j_den: SparsePoly


class RankReport(NamedTuple):
    """Full pipeline output for one representative at one parameter."""

    family: str
    n: int
    group_order: int
    lefschetz: int
    euler: int
    h2: int
    rho_triv: int
    rank: int
    checks: tuple

    def to_dict(self):
        out = self._asdict()
        out["lambda"] = out.pop("lefschetz")
        out["checks"] = [{"name": name, "passed": ok} for name, ok in self.checks]
        return out


class TableEntry(NamedTuple):
    """One row of the reproduced table."""

    id: str
    polygon: str
    table_n: int
    rep: str
    rep_n: int
    own_lambda: int
    computed_rank: int
    expected_rank: int
    match: bool

    def to_dict(self):
        return self._asdict()


_FIBER_ENTRY = re.compile(rf"^({'|'.join(map(re.escape, KODAIRA_TYPES))})(?:\(([^)]*)\))?:(.+)$")


def _parse_fibers(text: str):
    entries = []
    for chunk in text.split(","):
        match = _FIBER_ENTRY.match(chunk)
        if match is None:
            raise ValueError(f"bad fiber entry {chunk!r}")
        family, index, count = match.groups()
        _, _, least = KODAIRA_TYPES[family]
        if (index is None) == (least is not None):
            need = "needs an" if index is None else "takes no"
            raise ValueError(f"type {family} {need} index in {chunk!r}")
        entries.append((family, None if index is None else parse_affine(index), parse_affine(count)))
    return tuple(entries)


_TERM_ENTRY = re.compile(r"^\(t:([^,]+),x:(\d+),y:(\d+)\)$")


def _parse_terms(text: str):
    chunks = text.split(";")
    if len(chunks) != 4:
        raise ValueError(f"need 4 terms, got {len(chunks)}")
    terms = []
    for chunk in chunks:
        match = _TERM_ENTRY.match(chunk)
        if match is None:
            raise ValueError(f"bad term {chunk!r}")
        terms.append((parse_affine(match.group(1)), int(match.group(2)), int(match.group(3))))
    return tuple(terms)


#: The code points that errors="surrogateescape" decodes the bytes that are not UTF-8 to.
_NOT_UTF8 = re.compile("[\udc80-\udcff]")
_ROW_FIELDS = {"id", "terms", "polygon", "table_n", "rank", "rep", "nmap"}
_REP_FIELDS = {"id", "div", "lambda", "fibers", "a", "b", "delta", "jnum", "jden"}


class Catalog:
    """Immutable-after-load catalog with a memoized rank pipeline."""

    def __init__(self, rows, representatives):
        self.rows = rows
        self.representatives = representatives
        self._rank_cache = {}
        self._identity_cache = {}

    def row(self, family_id: str) -> FamilyRow:
        try:
            return self.rows[family_id]
        except KeyError:
            raise KeyError(f"unknown family id {family_id!r}") from None

    def representative(self, rep_id: str) -> Representative:
        try:
            return self.representatives[rep_id]
        except KeyError:
            raise KeyError(f"unknown representative id {rep_id!r}") from None

    def family_terms(self, family_id: str, n: int):
        """The four exponent triples (t, x, y) of a family at parameter n."""
        if n < 1:
            raise ValueError("n must be at least 1")
        row = self.row(family_id)
        return tuple((affine_at(t, n), x, y) for t, x, y in row.terms)

    def support(self, family_id: str):
        """The (x, y) support set; independent of n."""
        row = self.row(family_id)
        return sorted({(x, y) for _, x, y in row.terms})

    def representative_at(self, family_id: str, n: int):
        """(representative id, its parameter): the row at n maps to its representative at nmap*n.

        Raises DivisibilityError unless nmap*n is a positive integer.
        """
        row = self.row(family_id)
        rep_n = row.nmap * n
        if rep_n.denominator != 1 or rep_n < 1:
            raise DivisibilityError(
                f"family {family_id} at n={n} maps to the representative "
                f"at {rep_n}, which is not a positive integer"
            )
        return row.rep, int(rep_n)

    def _checked_parameter(self, rep_id: str, n: int):
        """(representative, n as an int); raises DivisibilityError unless div | n."""
        rep = self.representative(rep_id)
        if n != int(n):
            raise ValueError(f"n = {n} is not an integer")
        n = int(n)
        if n < 1 or n % rep.divisibility:
            raise DivisibilityError(
                f"representative {rep.id} requires {rep.divisibility} | n; got n = {n}"
            )
        return rep, n

    def fibers_at(self, rep_id: str, n: int):
        rep, n = self._checked_parameter(rep_id, n)
        return tuple(
            (Kodaira(family, affine_at(index, n) if index is not None else 0), affine_at(count, n))
            for family, index, count in rep.fibers
        )

    def weierstrass_at(self, rep_id: str, n: int) -> WeierstrassData:
        rep, n = self._checked_parameter(rep_id, n)
        return WeierstrassData(rep.a.evaluate(n), rep.b.evaluate(n))

    def delta_at(self, rep_id: str, n: int) -> SparsePoly:
        rep, n = self._checked_parameter(rep_id, n)
        return rep.delta.evaluate(n)

    def j_at(self, rep_id: str, n: int):
        rep, n = self._checked_parameter(rep_id, n)
        return rep.j_num.evaluate(n), rep.j_den.evaluate(n)

    def _identities_hold(self, rep: Representative) -> bool:
        """Whether the catalog delta and j follow from a and b at every valid n.

        With n = div*m and u = t^m, each expansion is a polynomial in
        t^(+-1) and u (the loader checks the exponents for this), its
        monomial (c, s) standing for t^c u^(s*div), and evaluating at n is
        the ring map u -> t^m. So comparing expansions compares the
        polynomials, which agree exactly when they agree at every valid n.
        Memoized per representative.
        """
        if rep.id not in self._identity_cache:
            try:
                # j_den is 4a^3 + 27b^2, which is -delta/16.
                j_num, j_den = j_invariant(WeierstrassData(rep.a, rep.b))
            except NonEllipticError:
                raise NonEllipticError(f"representative {rep.id}: the discriminant vanishes") from None
            self._identity_cache[rep.id] = (
                rep.delta == -16 * j_den and rep.j_num * j_den == j_num * rep.j_den
            )
        return self._identity_cache[rep.id]

    def representative_rank(self, rep_id: str, n: int) -> RankReport:
        """Full pipeline for a representative; requires divisibility | n."""
        rep, n = self._checked_parameter(rep_id, n)
        key = (rep_id, n)
        if key not in self._rank_cache:
            matrix = homogenize(self.family_terms(rep.id, n))
            lam = lefschetz_number(matrix)
            order = group_order(matrix)
            config = self.fibers_at(rep.id, n)
            euler = euler_number(config)
            h2 = second_betti(config)
            rho = rho_triv(config)
            rank = mordell_weil_rank(h2, lam, rho)
            checks = (
                ("divisibility", True),
                ("lambda-formula", lam == affine_at(rep.lambda_formula, n)),
                ("delta-identity", self._identities_hold(rep)),
            )
            self._rank_cache[key] = RankReport(
                rep.id, n, order, lam, euler, h2, rho, rank, checks
            )
        return self._rank_cache[key]

    def table_parameter(self, family_id: str) -> int:
        """The representative parameter used to reproduce a table row: lcm(nmap*table_n, div)."""
        rep_id, rep_n = self.representative_at(family_id, self.row(family_id).table_n)
        return lcm(rep_n, self.representative(rep_id).divisibility)

    def reproduce_table(self):
        """Recompute every table row through its representative mapping."""
        entries = []
        for row in self.rows.values():
            rep_n = self.table_parameter(row.id)
            report = self.representative_rank(row.rep, rep_n)
            own = lefschetz_number(homogenize(self.family_terms(row.id, row.table_n)))
            match = report.rank == row.max_rank and all(ok for _, ok in report.checks)
            entries.append(
                TableEntry(
                    row.id,
                    row.polygon,
                    row.table_n,
                    row.rep,
                    rep_n,
                    own,
                    report.rank,
                    row.max_rank,
                    match,
                )
            )
        return entries


def _check_affine(field, pair, divisibility, low=None):
    """Reject c + s*n unless s >= 0, s*div is integral and c + s*div >= low.

    Then at every valid n = div*m it is an integer of at least low, and a
    monomial t^(c+s*n) with low = 0 is t^c u^(s*div) in u = t^m, as the
    identity proof needs. A family row is valid at every n, so its term
    exponents are checked with div = 1.
    """
    _, s = pair
    if s < 0 or (s * divisibility) % 1 or (low is not None and affine_at(pair, divisibility) < low):
        bound = "" if low is None else f" and c + s*div >= {low}"
        raise ValueError(f"{field} {affine_text(pair)} = c + s*n needs s >= 0, "
                         f"s*div integral{bound} (div={divisibility})")


def _parse_record(kind, fields, line_no):
    def need(key):
        if not fields.get(key):
            raise CatalogError(f"{kind} record missing {key}=", line_no)
        return fields[key]

    try:
        if kind == "family":
            unknown = set(fields) - _ROW_FIELDS
            if unknown:
                raise ValueError(f"unknown fields {sorted(unknown)}")
            row = FamilyRow(
                id=need("id"),
                terms=_parse_terms(need("terms")),
                polygon=need("polygon"),
                table_n=int(need("table_n")),
                max_rank=int(need("rank")),
                rep=need("rep"),
                nmap=Fraction(need("nmap")),
            )
            for exponent, _, _ in row.terms:
                _check_affine("terms=: exponent", exponent, 1, 0)
            return row
        unknown = set(fields) - _REP_FIELDS
        if unknown:
            raise ValueError(f"unknown fields {sorted(unknown)}")
        divisibility = int(need("div"))
        if divisibility < 1:
            raise ValueError(f"div={divisibility} is not a positive integer")
        rep = Representative(
            id=need("id"),
            divisibility=divisibility,
            lambda_formula=parse_affine(need("lambda")),
            fibers=_parse_fibers(need("fibers")),
            a=parse_poly(need("a")),
            b=parse_poly(need("b")),
            delta=parse_poly(need("delta")),
            j_num=parse_poly(need("jnum")),
            j_den=parse_poly(need("jden")),
        )
        _check_affine("lambda=:", rep.lambda_formula, divisibility)
        for family, index, count in rep.fibers:
            if index is not None:
                _check_affine(f"fibers=: {family} index", index, divisibility, KODAIRA_TYPES[family][2])
            _check_affine(f"fibers=: {family} count", count, divisibility, 1)
        for key, poly in (("a", rep.a), ("b", rep.b), ("delta", rep.delta),
                          ("jnum", rep.j_num), ("jden", rep.j_den)):
            for mono, _ in poly.items():
                _check_affine(f"{key}=: exponent", mono, divisibility, 0)
        return rep
    except CatalogError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise CatalogError(str(exc), line_no) from exc


def load_catalog(path=None) -> Catalog:
    """Parse and validate a catalog file (the bundled one by default).

    Raises CatalogError with a line number on parse problems and on
    violated invariants (wrong counts, unknown representative, polygon
    label mismatch, inconsistent parameter mapping).
    """
    path = Path(path) if path is not None else DEFAULT_CATALOG
    rows: dict[str, FamilyRow] = {}
    reps: dict[str, Representative] = {}
    record_lines: dict[tuple[str, str], int] = {}
    # Split at newlines only: str.splitlines also breaks at form feeds, U+2028
    # and other separators, which would shift every later line number.
    try:
        text = path.read_text(encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise CatalogError(f"cannot read {path}: {exc.strerror}") from None
    bad = _NOT_UTF8.search(text)
    if bad:
        line_no = text.count("\n", 0, bad.start()) + 1
        raise CatalogError(f"{path} is not UTF-8: byte 0x{ord(bad.group()) - 0xDC00:02x}", line_no)
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind not in ("family", "representative"):
            raise CatalogError(f"unknown record type {kind!r}", line_no)
        fields = {}
        for token in tokens[1:]:
            if "=" not in token:
                raise CatalogError(f"expected key=value, got {token!r}", line_no)
            key, value = token.split("=", 1)
            if key in fields:
                raise CatalogError(f"duplicate field {key!r}", line_no)
            fields[key] = value
        record = _parse_record(kind, fields, line_no)
        target = rows if kind == "family" else reps
        if record.id in target:
            raise CatalogError(f"duplicate {kind} id {record.id!r}", line_no)
        target[record.id] = record
        record_lines[kind, record.id] = line_no

    if len(rows) != 42:
        raise CatalogError(f"expected 42 family rows, found {len(rows)}")
    if len(reps) != 11:
        raise CatalogError(f"expected 11 representatives, found {len(reps)}")

    catalog = Catalog(rows, reps)
    for row in rows.values():
        line_no = record_lines["family", row.id]
        if row.rep not in reps:
            raise CatalogError(f"row {row.id}: unknown representative {row.rep!r}", line_no)
        try:
            homogenize(catalog.family_terms(row.id, row.table_n))
            hull = convex_hull(catalog.support(row.id))
            label = classify_one_interior(hull).label
            _, rep_n = catalog.representative_at(row.id, row.table_n)
        except Exception as exc:
            raise CatalogError(f"row {row.id}: {exc}", line_no) from exc
        if label != row.polygon:
            raise CatalogError(
                f"row {row.id}: hull classifies as {label}, catalog says {row.polygon}",
                line_no,
            )
        # The table replays a row at lcm(rep_n, div). By base change the rank
        # there bounds the rank at rep_n from above, which pins it only at 0.
        divisibility = reps[row.rep].divisibility
        if rep_n % divisibility and row.max_rank:
            raise CatalogError(
                f"row {row.id}: parameter {rep_n} violates divisibility "
                f"{divisibility} of representative {row.rep}",
                line_no,
            )
    for rep_id in reps:
        if rep_id not in rows:
            raise CatalogError(
                f"representative {rep_id!r} has no family row",
                record_lines["representative", rep_id],
            )
    # The catalog and most objects the imports made live as long as the
    # process. Collecting the young generations now moves them to the old
    # one, so the young collection that scans them all runs here, not in
    # whichever early operation crosses the allocation threshold.
    gc.collect(1)
    return catalog
