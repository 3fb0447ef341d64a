"""Test-only oracles for fans, independent of the face lattice in ``fan``
and of the sign tests that decide most pairs of cones there.

``cone_complex`` checks that its input cones form a fan; overlays and
stellar subdivisions are assembled without that check, because the overlay
and the stellar subdivision of a fan are fans.  ``fan_faults`` makes the
pairwise common-face check on any complex, and also checks its maximal cones
and face keys against faces found by brute force over subsets of rays.
``all_pairs_overlay`` is the overlay that builds the piece of every pair of
maximal cones from two double descriptions, one for its rays and one for its
facets.  ``star_overlay_sigma_n`` is the tower as the definition reads: the
overlay, with the exact support check, of the stellar subdivisions of the
orthant at every primitive vector in {0, ..., n}^d.  ``facets_to_rays``
gives the generators of a cone from its facets, lines included, by one
double description.

The point-location oracles are the scans that ``fan`` ran before
``ConeComplex.locate``: ``scan_point`` scans the maximal cones twice, once
for the support and once for the cone to read the carrier in,
``scan_canonicalize`` tests a point against its named cone built as a
``Cone``, and ``scan_map`` scans the target for every face of the source.
``smallest_containing`` finds the carrier with no face lattice, among every
cone of the complex built by ``make_cone`` (``face_cones``)."""

import itertools
from math import lcm

from logfirm import fan
from logfirm.fan import (
    ConeComplexMap,
    IntegralPoint,
    InvalidMap,
    PointOutsideCone,
    SupportMismatch,
    _assemble,
    _covers,
    make_cone,
)
from logfirm.intlinalg import dot, dual_rays, identity, mat_vec, primitive


def facets_to_rays(facets, dim: int) -> tuple:
    """Minimal generators of {x : <f, x> >= 0 for all f in facets}: the
    extreme rays, and each lineality vector with its negative."""
    lin, rays, _ = dual_rays(facets, dim)
    return tuple(sorted({*rays, *lin, *(tuple(-x for x in l) for l in lin)}))


def is_face(rays, cone) -> bool:
    """Whether ``rays`` are the rays of a face of ``cone``: rays of the cone
    that are all the rays on which the facets vanishing on them vanish."""
    if not set(rays) <= set(cone.rays):
        return False
    tight = [f for f in cone.facets if all(dot(f, r) == 0 for r in rays)]
    return set(rays) == {r for r in cone.rays
                         if all(dot(f, r) == 0 for f in tight)}


def brute_faces(cone) -> set:
    """Sorted ray tuples of all faces, and the zero cone, by subsets."""
    return {()} | {t for k in range(1, len(cone.rays) + 1)
                   for t in itertools.combinations(cone.rays, k)
                   if is_face(t, cone)}


def fan_faults(c) -> list[str]:
    """What is wrong with complex ``c`` as a fan; empty when nothing is."""
    faults = []
    for a, b in itertools.combinations(c.maximal, 2):
        inter = facets_to_rays(a.facets + b.facets, c.ambient_rank)
        if not (is_face(inter, a) and is_face(inter, b)):
            faults.append(f"{a.rays} and {b.rays} meet in {inter}, not a common face")
    for a, b in itertools.permutations(c.maximal, 2):
        if is_face(a.rays, b):
            faults.append(f"maximal cone {a.rays} is a face of {b.rays}")
    faces = set().union(*(brute_faces(m) for m in c.maximal))
    if list(c.faces) != sorted(faces):
        faults.append(f"face keys {c.faces} are not the faces {sorted(faces)}")
    return faults


def all_pairs_overlay(f1, f2):
    """``common_refinement`` from every pairwise intersection of maximal
    cones, each by two double descriptions, and the walls check on every
    row and column."""
    if f1.ambient_rank != f2.ambient_rank:
        raise SupportMismatch("different ambient lattices")
    d = f1.ambient_rank
    grid = [[make_cone(d, facets_to_rays(a.facets + b.facets, d)) for b in f2.maximal]
            for a in f1.maximal]
    columns = [[row[j] for row in grid] for j in range(len(f2.maximal))]
    for c, pieces in zip(f1.maximal + f2.maximal, grid + columns):
        if not _covers(c, pieces):
            raise SupportMismatch(f"cone {c.rays} is not covered by the other fan")
    return _assemble(f1.ambient_rank, [p for row in grid for p in row if p.rays],
                     lcm(f1.scale, f2.scale))


def star_overlay_sigma_n(rank: int, n: int):
    """``sigma_n`` as the overlay of the stellar subdivisions of the positive
    orthant at every primitive vector with coordinates in {0, ..., n}, one
    star at a time, each overlay with ``common_refinement``'s support check.
    Both are looked up on ``fan``, so that a wrapper put there sees them."""
    base = result = fan.orthant(rank)
    for v in sorted(itertools.product(range(n + 1), repeat=rank)):
        if any(v) and primitive(v) == v:
            result = fan.common_refinement(result, fan._star(base, v))
    return result


def face_cones(c) -> list:
    """Every cone of ``c`` built by ``make_cone``, in the order of ``c.faces``."""
    return [make_cone(c.ambient_rank, rays) for rays in c.faces]


def smallest_containing(cones, vectors) -> int:
    """The index, in ``cones`` (see :func:`face_cones`), of the cone that
    contains the vectors and lies inside every other cone containing them."""
    containing = [i for i, cone in enumerate(cones)
                  if all(cone.contains(v) for v in vectors)]
    smallest = [i for i in containing
                if all(cones[j].contains(r) for j in containing for r in cones[i].rays)]
    if len(smallest) != 1:
        raise AssertionError(f"{len(smallest)} smallest cones hold {vectors}")
    return smallest[0]


def scan_point(c, v):
    """The canonical point at v, or None outside the support: a scan of the
    maximal cones for the support, and a second for the first cone that
    holds v, where the carrier is read."""
    if not any(m.contains(v) for m in c.maximal):
        return None
    sigma = next(m for m in c.maximal if m.contains(v))
    return IntegralPoint(c.carrier(sigma, [v]), v)


def scan_canonicalize(c, cones, p):
    """``canonicalize_point`` with the named cone built as a ``Cone`` (one
    of ``cones``, see :func:`face_cones`) and the carrier read in it.  An
    index that names no cone, negative ones included, is outside."""
    v = tuple(p.coordinates)
    if p.cone_index not in range(len(cones)):
        raise PointOutsideCone(f"no cone has index {p.cone_index}")
    sigma = cones[p.cone_index]
    if not sigma.contains(v):
        raise PointOutsideCone(f"{v} not in cone {sigma.rays}")
    return IntegralPoint(c.carrier(sigma, [v]), v)


def scan_map(source, target, matrix=None):
    """``complex_map`` by a scan of the target's maximal cones for the images
    of the rays of every source cone, faces included."""
    if matrix is None:
        matrix = identity(source.ambient_rank)
    matrix = tuple(tuple(r) for r in matrix)
    assignments = []
    for rays in source.faces:
        images = [mat_vec(matrix, r) for r in rays]
        sigma = next((tc for tc in target.maximal
                      if all(tc.contains(v) for v in images)), None)
        if sigma is None:
            raise InvalidMap(f"image of cone {rays} lies in no target cone")
        assignments.append((target.carrier(sigma, images), matrix))
    return ConeComplexMap(source, target, tuple(assignments))
