import pytest

from delsarte import Kodaira, euler_number, mordell_weil_rank, rho_triv, second_betti
from delsarte.errors import InvalidConfigError, RankInconsistencyError
from delsarte.fibers import KODAIRA_TYPES


def test_kodaira_tables():
    # (type, index): (Euler number, components, name), from the standard tables.
    expected = {
        ("I", 1): (1, 1, "I1"),
        ("I", 24): (24, 24, "I24"),
        ("I*", 0): (6, 5, "I0*"),
        ("I*", 3): (9, 8, "I3*"),
        ("II", 0): (2, 1, "II"),
        ("III", 0): (3, 2, "III"),
        ("IV", 0): (4, 3, "IV"),
        ("IV*", 0): (8, 7, "IV*"),
        ("III*", 0): (9, 8, "III*"),
        ("II*", 0): (10, 9, "II*"),
    }
    assert {family for family, _ in expected} == set(KODAIRA_TYPES)
    for (family, k), values in expected.items():
        fiber = Kodaira(family, k)
        assert (fiber.euler, fiber.components, str(fiber)) == values, fiber


def test_kodaira_validation():
    with pytest.raises(ValueError, match=r"^I_k needs k >= 1$"):
        Kodaira("I", 0)
    with pytest.raises(ValueError, match=r"^I\*_k needs k >= 0$"):
        Kodaira("I*", -1)
    with pytest.raises(ValueError, match=r"^type II takes no index$"):
        Kodaira("II", 2)
    with pytest.raises(ValueError, match=r"^unknown Kodaira type 'V'$"):
        Kodaira("V")
    assert Kodaira("II") == Kodaira(family="II", k=0)
    assert repr(Kodaira("I", 3)) == "Kodaira(family='I', k=3)"


def test_euler_and_betti():
    assert euler_number(((Kodaira("II"), 360),)) == 720
    assert second_betti(((Kodaira("II"), 360),)) == 718
    assert euler_number(((Kodaira("IV"), 60),)) == 240
    assert second_betti(((Kodaira("IV"), 60),)) == 238
    assert second_betti(((Kodaira("I", 1), 12),)) == 10
    with pytest.raises(InvalidConfigError):
        euler_number(())
    with pytest.raises(InvalidConfigError):
        euler_number(((Kodaira("II"), 0),))


def test_rho_triv():
    assert rho_triv(((Kodaira("IV"), 60),)) == 122
    assert rho_triv(()) == 2
    assert rho_triv(((Kodaira("I", 1), 12), (Kodaira("I", 24), 1))) == 25


def test_order_invariance():
    config = ((Kodaira("I", 1), 12), (Kodaira("I", 24), 1), (Kodaira("III"), 5))
    reordered = (config[2], config[0], config[1])
    assert euler_number(config) == euler_number(reordered)
    assert rho_triv(config) == rho_triv(reordered)
    assert second_betti(config) == second_betti(reordered)


def test_mordell_weil_rank():
    assert mordell_weil_rank(238, 98, 122) == 18
    assert mordell_weil_rank(718, 648, 2) == 68
    assert mordell_weil_rank(10, 8, 2) == 0
    with pytest.raises(RankInconsistencyError):
        mordell_weil_rank(10, 8, 3)
