"""Kodaira fiber types and the numerical surface invariants they drive.

The per-type Euler numbers and component counts are the standard tables:

    type      I_k   I*_k   II  III  IV  IV*  III*  II*
    euler      k    k+6     2    3   4    8     9   10
    components k    k+5     1    2   3    7     8    9

The second Betti number of the elliptic surfaces handled here is the
total Euler number minus 2, and the trivial-lattice rank is
2 + sum over fibers of (components - 1). The Mordell-Weil rank is then
h2 - lambda - rho_triv.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidConfigError, RankInconsistencyError

_PLAIN = {"II": (2, 1), "III": (3, 2), "IV": (4, 3), "IV*": (8, 7), "III*": (9, 8), "II*": (10, 9)}


class Kodaira(NamedTuple("Kodaira", [("family", str), ("k", int)])):
    """A Kodaira type: I_k (k >= 1), I*_k (k >= 0) or one of the six constants."""

    __slots__ = ()

    def __new__(cls, family, k=0):
        if family == "I":
            if k < 1:
                raise ValueError("I_k needs k >= 1")
        elif family == "I*":
            if k < 0:
                raise ValueError("I*_k needs k >= 0")
        elif family in _PLAIN:
            if k:
                raise ValueError(f"type {family} takes no index")
        else:
            raise ValueError(f"unknown Kodaira type {family!r}")
        return super().__new__(cls, family, k)

    @property
    def euler(self) -> int:
        if self.family == "I":
            return self.k
        if self.family == "I*":
            return self.k + 6
        return _PLAIN[self.family][0]

    @property
    def components(self) -> int:
        if self.family == "I":
            return self.k
        if self.family == "I*":
            return self.k + 5
        return _PLAIN[self.family][1]

    def __str__(self):
        if self.family == "I":
            return f"I{self.k}"
        if self.family == "I*":
            return f"I{self.k}*"
        return self.family


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
