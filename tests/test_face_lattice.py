"""Face lattices from incidences, checked against subset enumeration.

The library closes a cone's ray-facet incidence under intersection
(``intlinalg.face_closure``), for the cones of fans and of monoids alike.
``_subset_faces`` is the enumeration it used before: every subset of the
normals, and the points on which all of them vanish.  It is exponential in
the number of normals and is kept here as an oracle only.
"""

import itertools
import random

import pytest

from logfirm.charts import parity_cover
from logfirm.fan import cone_faces, make_cone
from logfirm.firmament import firmament_from_charts
from logfirm.intlinalg import dot, face_closure, smith_normal_form, solve_lattice
from logfirm.monoid import faces, saturate


def _subset_faces(points, normals):
    out = set()
    for size in range(len(normals) + 1):
        for sub in itertools.combinations(range(len(normals)), size):
            out.add(frozenset(i for i, p in enumerate(points)
                              if all(dot(normals[j], p) == 0 for j in sub)))
    return out


def _embed(v):
    """An injective linear map Z^3 -> Z^5."""
    a, b, c = v
    return (a, b, c, a + b, c - a)


def _cone_corpus():
    rng = random.Random(4021)
    cones = []
    # lower-dimensional cones in Z^4 .. Z^6
    for d in (4, 5, 6):
        for _ in range(6):
            k = rng.randint(1, 4)
            rays = [tuple(rng.randint(0, 3) for _ in range(d - 1))
                    + (rng.randint(1, 2),) for _ in range(k)]
            cones.append(make_cone(d, rays))
    # full-dimensional cones over polygons and polytopes: mostly not simplicial
    for d in (3, 4):
        for _ in range(8):
            rays = [tuple(rng.randint(-2, 2) for _ in range(d - 1)) + (1,)
                    for _ in range(rng.randint(4, 7))]
            cones.append(make_cone(d, rays))
    # a cone over a square, and the same cone embedded in Z^5
    square = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    cones.append(make_cone(3, square))
    cones.append(make_cone(5, [_embed(v) for v in square]))
    # the source cones of the parity-cover firmament (2-ray cones in Z^6)
    cones += firmament_from_charts(*parity_cover()).map.source.maximal
    return cones


CONES = _cone_corpus()


def test_corpus_has_non_simplicial_and_lower_dimensional_cones():
    assert any(len(c.rays) > smith_normal_form(c.rays, c.ambient_rank).rank for c in CONES)
    assert any(not c.full for c in CONES)
    assert any(c.ambient_rank == 6 and len(c.facets) >= 10 for c in CONES)


@pytest.mark.parametrize("c", CONES, ids=lambda c: str(c.rays))
def test_face_lattice_matches_subset_enumeration(c):
    assert face_closure(c.incidence, len(c.rays)) == _subset_faces(c.rays, c.facets)
    assert c.incidence == tuple(
        frozenset(i for i, r in enumerate(c.rays) if dot(a, r) == 0)
        for a in c.facets)


@pytest.mark.parametrize("c", CONES, ids=lambda c: str(c.rays))
def test_cone_faces_match_subset_enumeration(c):
    want = {tuple(c.rays[i] for i in sorted(face))
            for face in _subset_faces(c.rays, c.facets)} | {()}
    got = cone_faces(c)
    assert [f.rays for f in got] == sorted(want)
    for f in got:
        assert f == make_cone(c.ambient_rank, f.rays)


def _monoid_corpus():
    rng = random.Random(977)
    out = [
        saturate(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]),
        saturate(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]),
        saturate(3, [(2, 0, 1), (0, 2, 1), (1, 1, 0)]),
    ]
    while len(out) < 40:
        r = rng.randint(1, 4)
        gens = [tuple(rng.randint(0, 2) for _ in range(r))
                for _ in range(rng.randint(1, 5))]
        group = None if rng.random() < 0.5 else [
            tuple(int(i == j) for i in range(r)) for j in range(r)]
        m = saturate(r, gens, group=group)
        if m.sharp:
            out.append(m)
    return out


MONOIDS = _monoid_corpus()


def test_monoid_corpus_has_non_simplicial_cones():
    assert any(len(m.rays_local) > m.group_rank for m in MONOIDS)


@pytest.mark.parametrize("m", MONOIDS, ids=lambda m: str(m.generators))
def test_monoid_faces_match_subset_enumeration(m):
    hb_local = [m.coords(h) for h in m.hilbert]
    want = {tuple(sorted(face))
            for face in _subset_faces(hb_local, m.facets_local)}
    got = [f.generator_subset for f in faces(m)]
    assert len(got) == len(set(got))
    assert set(got) == want


@pytest.mark.parametrize("m", MONOIDS, ids=lambda m: str(m.generators))
def test_face_normal_supports_exactly_the_face(m):
    hb = m.hilbert
    for f in faces(m):
        for i, h in enumerate(hb):
            assert dot(f.normal, h) >= 0
            assert (dot(f.normal, h) == 0) == (i in f.generator_subset)


@pytest.mark.parametrize("m", MONOIDS, ids=lambda m: str(m.generators))
def test_face_normal_is_least_multiple_of_vanishing_facet_sum(m):
    basis = [list(b) for b in m.group_basis]
    hb_local = [m.coords(h) for h in m.hilbert]
    for f in faces(m):
        lam = [0] * m.group_rank
        for a in m.facets_local:
            if all(dot(a, hb_local[i]) == 0 for i in f.generator_subset):
                lam = [x + y for x, y in zip(lam, a)]
        on_basis = [dot(f.normal, b) for b in basis]
        if not any(lam):
            assert not any(f.normal)
            continue
        k = next(i for i, x in enumerate(lam) if x)
        t, rem = divmod(on_basis[k], lam[k])
        assert rem == 0 and t >= 1
        assert on_basis == [t * x for x in lam]
        for smaller in range(1, t):
            assert solve_lattice(basis, [smaller * x for x in lam],
                                 m.ambient_rank) is None


def test_faces_of_a_large_index_copy_of_n():
    # 10007*N is isomorphic to N: two faces, whatever the index
    fs = faces(saturate(1, [(10007,)]))
    assert [f.generator_subset for f in fs] == [(), (0,)]
    assert [f.normal for f in fs] == [(1,), (0,)]
