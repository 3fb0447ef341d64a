"""Each input rule lives in the record or function that reads it.

A library caller who passes the wrong type, width or count is refused with
ValueError, as the CLI is, instead of getting a record built from part of
the input.  Before these checks, each call below returned an answer or
failed with another error: the note beside it says which.
"""

import pytest

from logfirm.campana import MonomialIdeal, campana_member
from logfirm.fan import (
    ConeComplexMap,
    complex_map,
    cone_complex,
    lattice_points_box,
    orthant,
    point,
    sigma_n,
    star_subdivision,
)
from logfirm.firmament import Firmament, firmament_member
from logfirm.intlinalg import identity, ilp_budget
from logfirm.lift import log_smooth_primes
from logfirm.monoid import MonoidHom, saturate


def _hom(matrix=None, **local):
    n2 = saturate(2, [(1, 0), (0, 1)])
    return MonoidHom(n2, n2, matrix, **local)


def _budget(nodes):
    with ilp_budget(nodes):
        pass


def _firmament_on_ray(matrix):
    """A firmament N -> N whose ray carries ``matrix``, asked about [1]."""
    gamma = Firmament(ConeComplexMap(orthant(1), orthant(1),
                                     ((0, ((0,),)), (1, matrix))))
    return firmament_member(gamma, [1])


def _compose_apart():
    """A map of orthant(2) after one of orthant(1): they do not meet."""
    outer = complex_map(orthant(2), orthant(2), identity(2))
    return outer.compose(complex_map(orthant(1), orthant(1), identity(1)))


PROBES = {
    # the third row was dropped
    "hom matrix with an extra row": lambda: _hom([[1, 0], [0, 1], [5, 5]]),
    # kept a float in the group matrix
    "hom matrix with a float": lambda: _hom([[1.0, 0], [0, 1]]),
    # IndexError
    "hom matrix with a missing row": lambda: _hom([[1, 0]]),
    # a cone with rays of widths 3 and 2
    "cone rays of two widths": lambda: cone_complex(2, [[[1, 0, 0], [0, 1]]]),
    # the short ray was dropped
    "short cone ray": lambda: cone_complex(2, [[[1, 0], [0]]]),
    # the monoid kept the rank True, and 2.0
    "boolean monoid rank": lambda: saturate(True, [(1,)]),
    "float monoid rank": lambda: saturate(2.0, [(1, 0)]),
    # the orthant
    "negative sigma_n level": lambda: sigma_n(2, -1),
    # an empty set
    "negative box bound": lambda: lattice_points_box(orthant(2), -1),
    # accepted
    "negative ideal variable count": lambda: MonomialIdeal.of(-1, []),
    "fractional ILP budget": lambda: _budget(2.5),
    # {2, 3.0}
    "float lattice map": lambda: log_smooth_primes([[2.0, 0], [0, 3]]),
    # IndexError
    "ragged lattice map": lambda: log_smooth_primes([[1, 2], [3]]),
    # IndexError
    "short subdivision vector": lambda: star_subdivision(orthant(2), (1,)),
    # kept the coordinate True
    "boolean point coordinate": lambda: point(orthant(2), (True, 0)),
    # built, and [1] answered True
    "firmament ray matrix too wide": lambda: _firmament_on_ray(((1, 5),)),
    "firmament ray matrix of a float": lambda: _firmament_on_ray(((0.5,),)),
    # a map of orthant(1) into orthant(2)'s cones
    "maps that do not meet": _compose_apart,
    # False, and True
    "negative multiplicity": lambda: campana_member(-3, 2),
    "float multiplicity": lambda: campana_member(4.0, 2),
    # True, and True
    "float multiplicity level": lambda: campana_member(3, 2.5),
    "boolean multiplicity level": lambda: campana_member(1, True),
    # a map assigning every cone of the orthant, and one holding the float
    "complex map matrix too tall": lambda: complex_map(
        orthant(2), orthant(1), [[1, 0], [0, 1]]),
    "complex map matrix of a float": lambda: complex_map(
        orthant(2), orthant(2), [[1.5, 0], [0, 1]]),
    # a hom with one row for a rank-2 target, and one keeping the float
    "hom local with a missing row": lambda: _hom(local=[[1, 0]]),
    "hom local with a float": lambda: _hom(local=[[1.5, 0], [0, 1]]),
}


class TestLibraryBoundary:
    @pytest.mark.parametrize("probe", PROBES.values(), ids=PROBES)
    def test_wrong_input_raises_value_error(self, probe):
        with pytest.raises(ValueError):
            probe()
