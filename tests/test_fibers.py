import pytest

from delsarte import Kodaira, euler_number, mordell_weil_rank, rho_triv, second_betti
from delsarte.errors import InvalidConfigError, RankInconsistencyError


def test_kodaira_tables():
    assert (Kodaira("I", 1).euler, Kodaira("I", 1).components) == (1, 1)
    assert (Kodaira("I", 24).euler, Kodaira("I", 24).components) == (24, 24)
    assert (Kodaira("I*", 0).euler, Kodaira("I*", 0).components) == (6, 5)
    assert (Kodaira("II").euler, Kodaira("II").components) == (2, 1)
    assert (Kodaira("III").euler, Kodaira("III").components) == (3, 2)
    assert (Kodaira("IV").euler, Kodaira("IV").components) == (4, 3)
    assert (Kodaira("IV*").euler, Kodaira("IV*").components) == (8, 7)
    assert (Kodaira("III*").euler, Kodaira("III*").components) == (9, 8)
    assert (Kodaira("II*").euler, Kodaira("II*").components) == (10, 9)
    assert str(Kodaira("I*", 0)) == "I0*"
    assert str(Kodaira("I", 3)) == "I3"


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
