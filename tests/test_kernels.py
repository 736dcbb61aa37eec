import pytest

from delsarte import _speedups_py

_speedups = pytest.importorskip("delsarte._speedups")


def test_implementation_names():
    assert _speedups_py.implementation() == "python"
    assert _speedups.implementation() == "c"


def test_census_agreement():
    for bound in (3, 4):
        assert _speedups.one_interior_polygons(bound) == _speedups_py.one_interior_polygons(
            bound
        ), bound


def test_census_kernel_bound_guard():
    with pytest.raises(ValueError):
        _speedups.one_interior_polygons(8)
