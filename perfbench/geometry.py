"""Independent exact geometry for checking the `tower` workload.

Everything here is plain integer arithmetic on cones in Z^3 (and a brute
force for rank 2); nothing calls into logfirm, so the fans it predicts are
an oracle for `fan subdivide`, `fan refine` and `fan sigma-n`.

A cone is kept as a sorted tuple of primitive extreme rays.  In rank 3 a
pointed full-dimensional cone is fixed by its rays, and its facet normals
are the cross products of ray pairs that every other ray lies on one side of.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

Vec = tuple[int, ...]
Cone = tuple[Vec, ...]


def dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def cross(a, b) -> Vec:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def det3(a, b, c) -> int:
    return dot(a, cross(b, c))


def primitive(v) -> Vec:
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v) if g else tuple(v)


def primitive_box(rank: int, n: int) -> list[Vec]:
    """Primitive nonzero vectors with coordinates in {0, ..., n}."""
    return [v for v in itertools.product(range(n + 1), repeat=rank)
            if any(v) and primitive(v) == v]


def orthant3() -> list[Cone]:
    return [((0, 0, 1), (0, 1, 0), (1, 0, 0))]


# ---------------------------------------------------------------------------
# simplicial fans: stellar subdivision by barycentric coordinates


def _barycentric(cone: Cone, v) -> list[Fraction]:
    """Coefficients of v in the basis given by a simplicial cone's rays."""
    d = det3(*cone)
    out = []
    for i in range(3):
        cols = list(cone)
        cols[i] = v
        out.append(Fraction(det3(*cols), d))
    return out


def star(fan: list[Cone], v) -> list[Cone]:
    """Stellar subdivision of a simplicial fan in Z^3 at a primitive v: every
    cone containing v loses, one at a time, each ray with a positive
    coefficient in v, and v takes its place."""
    v = tuple(v)
    out = []
    for cone in fan:
        lam = _barycentric(cone, v)
        if min(lam) < 0:
            out.append(cone)
            continue
        for i, li in enumerate(lam):
            if li > 0:
                rays = list(cone)
                rays[i] = v
                out.append(tuple(sorted(rays)))
    return out


# ---------------------------------------------------------------------------
# general cones in rank 3: rays <-> facets, intersections, overlays


def facets3(rays: Cone) -> list[Vec]:
    """Inward facet normals of a pointed full-dimensional cone in Z^3."""
    out = set()
    for a, b in itertools.combinations(rays, 2):
        n = cross(a, b)
        if not any(n):
            continue
        signs = [dot(n, r) for r in rays]
        if all(s >= 0 for s in signs):
            out.add(primitive(n))
        elif all(s <= 0 for s in signs):
            out.add(primitive(tuple(-x for x in n)))
    return sorted(out)


def rays3(normals) -> Cone:
    """Extreme rays of {x : <n, x> >= 0 for every normal}, assumed pointed:
    each is the line where two independent facet planes meet."""
    out = set()
    for a, b in itertools.combinations(normals, 2):
        c = cross(a, b)
        if not any(c):
            continue
        for s in (c, tuple(-x for x in c)):
            if all(dot(n, s) >= 0 for n in normals):
                out.add(primitive(s))
    return tuple(sorted(out))


def full_dimensional(rays: Cone) -> bool:
    return any(det3(*t) for t in itertools.combinations(rays, 3))


def overlay(first: list[Cone], second: list[Cone]) -> list[Cone]:
    """Maximal cones of the common refinement of two complete fans of the
    orthant: the full-dimensional pairwise intersections."""
    out = set()
    for a in first:
        fa = facets3(a)
        for b in second:
            rays = rays3(fa + facets3(b))
            if len(rays) >= 3 and full_dimensional(rays):
                out.add(rays)
    return sorted(out)


def sigma3(n: int) -> list[Cone]:
    """The rank-3 tower level: overlay of the stellar subdivisions of the
    orthant at every primitive vector of {0, ..., n}^3."""
    result = orthant3()
    for v in primitive_box(3, n):
        result = overlay(result, star(orthant3(), v))
    return result
