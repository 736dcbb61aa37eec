"""Kodaira fiber types and the numerical surface invariants they drive.

``KODAIRA_TYPES`` is the one table of the types, read by ``Kodaira`` and
by the catalog loader. A type with a least index is written with an
index k of at least that value (I_k with k >= 1, I*_k with k >= 0); the
other six take none, and their k is 0. The Euler number of a fiber is
its type's Euler offset plus k, and its component count the component
offset plus k (the standard tables).

The second Betti number of the elliptic surfaces handled here is the
total Euler number minus 2, and the trivial-lattice rank is
2 + sum over fibers of (components - 1). The Mordell-Weil rank is then
h2 - lambda - rho_triv.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidConfigError, RankInconsistencyError

#: Kodaira type -> (Euler offset, component offset, least index or None).
KODAIRA_TYPES = {
    "I": (0, 0, 1),
    "I*": (6, 5, 0),
    "II": (2, 1, None),
    "III": (3, 2, None),
    "IV": (4, 3, None),
    "IV*": (8, 7, None),
    "III*": (9, 8, None),
    "II*": (10, 9, None),
}


class Kodaira(NamedTuple("Kodaira", [("family", str), ("k", int)])):
    """A Kodaira type: a name in KODAIRA_TYPES and its index k (0 when it takes none)."""

    __slots__ = ()

    def __new__(cls, family, k=0):
        try:
            _, _, least = KODAIRA_TYPES[family]
        except KeyError:
            raise ValueError(f"unknown Kodaira type {family!r}") from None
        if least is None:
            if k:
                raise ValueError(f"type {family} takes no index")
        elif k < least:
            raise ValueError(f"{family}_k needs k >= {least}")
        return super().__new__(cls, family, k)

    @property
    def euler(self) -> int:
        return KODAIRA_TYPES[self.family][0] + self.k

    @property
    def components(self) -> int:
        return KODAIRA_TYPES[self.family][1] + self.k

    def __str__(self):
        # The index follows the leading I: I3, I0*.
        if KODAIRA_TYPES[self.family][2] is None:
            return self.family
        return f"{self.family[:1]}{self.k}{self.family[1:]}"


#: A fiber configuration: ((Kodaira, count), ...); order never matters.
FiberConfig = tuple


def _validated(config) -> FiberConfig:
    config = tuple((fiber, int(count)) for fiber, count in config)
    if any(count <= 0 for _, count in config):
        raise InvalidConfigError("fiber counts must be positive")
    return config


def euler_number(config) -> int:
    """Total Euler number of a nonempty fiber configuration."""
    config = _validated(config)
    if not config:
        raise InvalidConfigError("empty fiber configuration")
    return sum(count * fiber.euler for fiber, count in config)


def second_betti(config) -> int:
    """Second Betti number: total Euler number minus 2."""
    return euler_number(config) - 2


def rho_triv(config) -> int:
    """Trivial-lattice rank 2 + sum(count * (components - 1))."""
    config = _validated(config)
    return 2 + sum(count * (fiber.components - 1) for fiber, count in config)


def mordell_weil_rank(h2: int, lam: int, rho: int) -> int:
    """h2 - lambda - rho_triv; a negative value flags inconsistent inputs."""
    rank = h2 - lam - rho
    if rank < 0:
        raise RankInconsistencyError(
            f"h2 - lambda - rho_triv = {h2} - {lam} - {rho} = {rank} < 0"
        )
    return rank
