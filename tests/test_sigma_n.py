"""``sigma_n`` as the positive orthant cut by the hyperplanes b·x_i = a·x_k,
checked against the tower as its definition reads, the overlay of the
stellar subdivisions of the orthant (``fan_oracle.star_overlay_sigma_n``),
against the braid arrangement, against the brute-force fan oracle and
against the facets and incidence recomputed from the rays."""

import itertools
import math

import pytest

from fan_oracle import fan_faults, star_overlay_sigma_n
from logfirm import fan, intlinalg
from logfirm.fan import make_cone, sigma_n
from logfirm.intlinalg import dot

# every level at which the star-overlay oracle finishes within about 10 s;
# (3, 6) takes about 12 s and (4, 3) about 40 s
ORACLE_LEVELS = [(1, 0), (1, 3), (2, 0), (2, 1), (2, 6), (2, 12), (3, 1), (3, 2),
                 (3, 3), (3, 4), (3, 5), (4, 1), (4, 2), (5, 1)]


def described(c):
    """Everything a complex holds: the rays, facets and incidence of each
    maximal cone, and the face keys."""
    return [(m.rays, m.facets, m.incidence) for m in c.maximal], c.faces


@pytest.mark.parametrize("rank, n", ORACLE_LEVELS)
def test_matches_the_star_overlay(rank, n):
    assert described(sigma_n(rank, n)) == described(star_overlay_sigma_n(rank, n))


@pytest.mark.parametrize("rank, n", [(2, 6), (3, 2), (4, 1)])
def test_star_overlay_steps_are_fans(rank, n, every_fan_checked):
    # the fixture runs fan_faults on every star and overlay of the oracle
    assert described(star_overlay_sigma_n(rank, n)) == described(sigma_n(rank, n))


# test_acceptance.py::test_rank_3_levels_are_fans checks (3, 2) and (3, 3)
@pytest.mark.parametrize("rank, n", [(1, 3), (2, 12), (4, 1), (5, 1)])
def test_results_are_fans(rank, n):
    assert not fan_faults(sigma_n(rank, n))


@pytest.mark.parametrize("rank", range(1, 6))
def test_level_one_is_the_braid_arrangement(rank):
    # the chamber x_p(1) >= ... >= x_p(d) >= 0 of each permutation p is
    # spanned by the indicator vectors of the prefixes of p
    chambers = {tuple(sorted(tuple(int(i in p[:j]) for i in range(rank))
                             for j in range(1, rank + 1)))
                for p in itertools.permutations(range(rank))}
    s = sigma_n(rank, 1)
    assert len(s.maximal) == math.factorial(rank)
    assert {c.rays for c in s.maximal} == chambers


@pytest.mark.parametrize("rank, n", [(3, 5), (3, 6), (4, 3)])
def test_deep_levels_hold_their_incidence(rank, n):
    for c in sigma_n(rank, n).maximal:
        assert c.full
        assert c.incidence == tuple(frozenset(i for i, r in enumerate(c.rays) if dot(f, r) == 0)
                                    for f in c.facets)
        assert c == make_cone(rank, c.rays)


def test_each_split_takes_one_double_description_per_half(monkeypatch):
    def refuse(*args):
        raise AssertionError("sigma_n built a star or an overlay")

    calls = []

    def counting(normals, dim, *start, run=intlinalg.dual_rays):
        calls.append(start)
        return run(normals, dim, *start)
    monkeypatch.setattr(fan, "_star", refuse)
    monkeypatch.setattr(fan, "_overlay", refuse)
    monkeypatch.setattr(intlinalg, "dual_rays", counting)
    s = sigma_n(3, 3)
    # none for the orthant, which is simplicial, then two started ones for
    # each chamber that splits
    assert len(calls) == 2 * (len(s.maximal) - 1)
    assert sum(1 for start in calls if start) == 2 * (len(s.maximal) - 1)
