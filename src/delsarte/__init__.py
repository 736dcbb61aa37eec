"""Lefschetz numbers and Mordell-Weil rank bounds for elliptic curves over
k(t) cut out by four-term polynomials.

The pipeline: a four-term polynomial homogenizes to an exponent matrix;
its inverse generates a finite character group in (Q/Z)^4 whose
admissible elements are counted by the Lefschetz number; together with
the singular-fiber data this yields the Mordell-Weil rank through the
Shioda-Tate formula. The bundled catalog carries the full classification
of these families (42 rows, 11 representatives) and reproduces their
maximal ranks, the largest being 68.
"""

from .catalog import (
    Catalog,
    FamilyRow,
    RankReport,
    Representative,
    TableEntry,
    load_catalog,
)
from .errors import DelsarteError
from .fibers import Kodaira, euler_number, mordell_weil_rank, rho_triv, second_betti
from .lattice import (
    ExponentMatrix,
    group_order,
    homogenize,
    lattice_generators,
    lefschetz_number,
)
from .polygon import (
    PolygonClass,
    UnimodularAffineMap,
    classify_one_interior,
    convex_hull,
    enumerate_one_interior_classes,
    integral_equivalence,
    lattice_counts,
    to_default_position,
)
from .weierstrass import SparsePoly, WeierstrassData, discriminant, j_invariant

__version__ = "0.1.0"

__all__ = [
    "Catalog",
    "DelsarteError",
    "ExponentMatrix",
    "FamilyRow",
    "Kodaira",
    "PolygonClass",
    "RankReport",
    "Representative",
    "SparsePoly",
    "TableEntry",
    "UnimodularAffineMap",
    "WeierstrassData",
    "classify_one_interior",
    "convex_hull",
    "discriminant",
    "enumerate_one_interior_classes",
    "euler_number",
    "group_order",
    "homogenize",
    "integral_equivalence",
    "j_invariant",
    "lattice_counts",
    "lattice_generators",
    "lefschetz_number",
    "load_catalog",
    "mordell_weil_rank",
    "rho_triv",
    "second_betti",
    "to_default_position",
]
