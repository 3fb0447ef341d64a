"""Cone complexes: embedded fans, integral points, maps, and subdivisions.

A cone complex is a collection of sharp rational polyhedral cones glued along
faces.  This module works with embedded complexes: every cone lives in one
ambient lattice Z^d, so face inclusions are identity maps and gluing is
literal intersection.  A positive ``scale`` k means the working lattice is
(1/k)·Z^d; stored coordinates are always the integer numerators, i.e. k times
the geometric coordinates.

A complex keys its cones by their sorted ray tuples.  The carrier of some
vectors, the smallest cone containing them, is looked up by that key; this
relies on pairwise intersections of cones being common faces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .intlinalg import (
    Vec,
    dot,
    dual_description,
    face_lattice,
    facets_to_rays,
    hermite_normal_form,
    identity,
    mat_vec,
    primitive,
)


class NotPrimitive(Exception):
    """The subdivision vector is not a primitive lattice vector."""


class OutsideSupport(Exception):
    """The vector or point lies outside the support of the complex."""


class SupportMismatch(Exception):
    """The two fans do not cover the same region."""


class PointOutsideCone(Exception):
    """The coordinates do not lie in the named cone."""


class InvalidMap(Exception):
    """A cone map assignment does not send its cone into the target cone."""


# ---------------------------------------------------------------------------
# cones


@dataclass(frozen=True)
class Cone:
    """A sharp rational polyhedral cone in Z^d, stored by extreme rays and a
    complete facet description (membership is all ⟨facet, x⟩ >= 0)."""

    ambient_rank: int
    rays: tuple[Vec, ...]
    facets: tuple[Vec, ...]

    def contains(self, v) -> bool:
        return all(dot(f, v) >= 0 for f in self.facets)

    @property
    def dim(self) -> int:
        h, _ = hermite_normal_form([list(r) for r in self.rays]) if self.rays else ((), ())
        return sum(1 for row in h if any(row))

    def key(self):
        return self.rays


def make_cone(ambient_rank: int, rays) -> Cone:
    """Canonical cone from generating rays (extreme rays recomputed, sorted,
    primitive)."""
    rays = [primitive(tuple(r)) for r in rays if any(r)]
    if not rays:
        return Cone(ambient_rank, (),
                    tuple(tuple(r) for m in (identity(ambient_rank),)
                          for s in (1, -1) for r in [[s * x for x in row] for row in m]))
    dd = dual_description(rays, ambient_rank)
    return Cone(ambient_rank, tuple(sorted(dd.rays)), tuple(dd.facets))


def _face_rays(c: Cone) -> set[tuple[Vec, ...]]:
    """The ray tuple of every face of a cone, the zero cone included."""
    return {()} | {tuple(c.rays[i] for i in sorted(on_face))
                   for on_face in face_lattice(c.rays, c.facets)}


def cone_faces(c: Cone) -> list[Cone]:
    """All faces of a cone (including the zero cone and the cone itself)."""
    return [c if rays == c.rays else make_cone(c.ambient_rank, rays)
            for rays in sorted(_face_rays(c))]


def cone_subset(a: Cone, b: Cone) -> bool:
    """Whether cone a is contained in cone b."""
    return all(b.contains(r) for r in a.rays)


def cone_intersection(a: Cone, b: Cone) -> Cone:
    rays = facets_to_rays(list(a.facets) + list(b.facets), a.ambient_rank)
    return make_cone(a.ambient_rank, rays)


# ---------------------------------------------------------------------------
# complexes


@dataclass(frozen=True)
class ConeComplex:
    """An embedded fan: all cones share one ambient lattice and pairwise
    intersections of cones are faces of both, which :meth:`carrier` relies
    on.  Cones are keyed by their sorted ray tuple."""

    ambient_rank: int
    maximal: tuple[Cone, ...]
    cones: tuple[Cone, ...]  # every face of every maximal cone, sorted
    scale: int = 1

    @cached_property
    def _index(self) -> dict[tuple[Vec, ...], int]:
        return {c.rays: i for i, c in enumerate(self.cones)}

    def cone_index(self, c: Cone) -> int:
        return self._index[c.rays]

    def carrier(self, sigma: Cone, vectors) -> int:
        """Index of the smallest cone containing ``vectors``, given a cone
        ``sigma`` of the complex that contains them all."""
        if not any(any(v) for v in vectors):  # even if sigma is not sharp
            return self._index[()]
        tight = [f for f in sigma.facets
                 if all(dot(f, v) == 0 for v in vectors)]
        return self._index[tuple(r for r in sigma.rays
                                 if all(dot(f, r) == 0 for f in tight))]

    def supports(self, v) -> bool:
        return any(c.contains(v) for c in self.maximal)

    def same_cones(self, other: "ConeComplex") -> bool:
        return (self.ambient_rank == other.ambient_rank
                and self.scale == other.scale
                and {c.rays for c in self.maximal} == {c.rays for c in other.maximal})


def cone_complex(ambient_rank: int, maximal_rays, scale: int = 1) -> ConeComplex:
    """Build a complex from the ray lists of its maximal cones; raises
    ValueError unless every two maximal cones meet in a common face, or
    when the scale is below 1."""
    if scale < 1:
        raise ValueError("scale factor must be positive")
    maximal = []
    for rays in maximal_rays:
        c = make_cone(ambient_rank, rays)
        if all(c.rays != m.rays for m in maximal):
            maximal.append(c)
    # drop cones contained in another maximal cone
    maximal = [c for c in maximal
               if not any(c is not m and cone_subset(c, m) for m in maximal)]
    face_rays = [_face_rays(m) for m in maximal]
    for (a, fa), (b, fb) in itertools.combinations(zip(maximal, face_rays), 2):
        inter = cone_intersection(a, b)
        if inter.rays not in fa or inter.rays not in fb:
            raise ValueError("cones do not meet along a common face")
    built = {m.rays: m for m in maximal}
    cones = tuple(built[rays] if rays in built else make_cone(ambient_rank, rays)
                  for rays in sorted(set().union(*face_rays)))
    return ConeComplex(ambient_rank, tuple(sorted(maximal, key=Cone.key)),
                       cones, scale)


def orthant(rank: int) -> ConeComplex:
    return cone_complex(rank, [identity(rank)])


# ---------------------------------------------------------------------------
# integral points


@dataclass(frozen=True)
class IntegralPoint:
    """A lattice point of a complex: coordinates in the ambient lattice,
    tagged with the index of a cone containing it (the minimal one in
    canonical form).  With scale k, coordinates are k times geometric."""

    cone_index: int
    coordinates: Vec


def canonicalize_point(c: ConeComplex, p: IntegralPoint) -> IntegralPoint:
    """Representative in the minimal cone containing the point; equality of
    integral points of the complex is equality of canonical forms."""
    v = tuple(p.coordinates)
    sigma = c.cones[p.cone_index]
    if not sigma.contains(v):
        raise PointOutsideCone(f"{v} not in cone {sigma.rays}")
    return IntegralPoint(c.carrier(sigma, [v]), v)


def point(c: ConeComplex, coordinates) -> IntegralPoint:
    """Canonical integral point of an embedded complex from raw coordinates."""
    v = tuple(coordinates)
    for sigma in c.maximal:
        if sigma.contains(v):
            return IntegralPoint(c.carrier(sigma, [v]), v)
    raise OutsideSupport(f"{v} outside the support")


def lattice_points_box(c: ConeComplex, bound: int) -> set[IntegralPoint]:
    """All canonical integral points with geometric coordinates in [0, B]^d.
    With scale k these are the numerator vectors in [0, B*k]^d."""
    out = set()
    top = bound * c.scale
    for v in itertools.product(range(top + 1), repeat=c.ambient_rank):
        if c.supports(v):
            out.add(point(c, v))
    return out


# ---------------------------------------------------------------------------
# maps


@dataclass(frozen=True)
class ConeComplexMap:
    """A map of complexes: for each source cone, a target cone index and an
    integer matrix sending the source cone into that target cone.
    Assignments agree on shared faces because they are restrictions of the
    per-maximal-cone matrices."""

    source: ConeComplex
    target: ConeComplex
    assignments: tuple[tuple[int, tuple[Vec, ...]], ...]  # per source cone

    def compose(self, inner: "ConeComplexMap") -> "ConeComplexMap":
        assignments = []
        for i, cone in enumerate(inner.source.cones):
            mid_idx, m1 = inner.assignments[i]
            out_idx, m2 = self.assignments[mid_idx]
            prod = tuple(tuple(dot(row, col) for col in zip(*m1))
                         for row in m2)
            assignments.append((out_idx, prod))
        return ConeComplexMap(inner.source, self.target, tuple(assignments))


def map_point(f: ConeComplexMap, p: IntegralPoint) -> IntegralPoint:
    idx, matrix = f.assignments[p.cone_index]
    image = tuple(mat_vec([list(r) for r in matrix], list(p.coordinates)))
    return canonicalize_point(f.target, IntegralPoint(idx, image))


def complex_map(source: ConeComplex, target: ConeComplex,
                matrix=None) -> ConeComplexMap:
    """Map induced by one ambient matrix (default identity), assigning each
    source cone to a target cone containing its image."""
    if matrix is None:
        matrix = identity(source.ambient_rank)
    matrix = tuple(tuple(r) for r in matrix)
    assignments = []
    for cone in source.cones:
        images = [tuple(mat_vec([list(r) for r in matrix], list(ray)))
                  for ray in cone.rays]
        sigma = next((tc for tc in target.maximal
                      if all(tc.contains(v) for v in images)), None)
        if sigma is None:
            raise InvalidMap(
                f"image of cone {cone.rays} lies in no target cone")
        assignments.append((target.carrier(sigma, images), matrix))
    return ConeComplexMap(source, target, tuple(assignments))


# ---------------------------------------------------------------------------
# subdivisions


def star_subdivision(c: ConeComplex, v) -> tuple[ConeComplex, ConeComplexMap]:
    """Stellar subdivision at a primitive vector in the support, with the
    canonical subdivision map back to the input."""
    v = tuple(v)
    if not any(v) or primitive(v) != v:
        raise NotPrimitive(f"{v} is not primitive")
    if not c.supports(v):
        raise OutsideSupport(f"{v} outside the support")
    new_maximal = []
    for sigma in c.maximal:
        if not sigma.contains(v):
            new_maximal.append(list(sigma.rays))
            continue
        for f in sigma.facets:
            if dot(f, v) > 0:
                tight = [r for r in sigma.rays if dot(f, r) == 0]
                new_maximal.append(tight + [v])
    if not new_maximal:  # v generates every cone it meets (already a ray)
        new_maximal = [list(m.rays) for m in c.maximal]
    subdivided = cone_complex(c.ambient_rank, new_maximal, c.scale)
    return subdivided, complex_map(subdivided, c)


def common_refinement(f1: ConeComplex, f2: ConeComplex) -> ConeComplex:
    """Overlay of two embedded fans with equal support: all pairwise
    intersections of their cones.  The supports are compared only at the
    integer points of [-3, 3]^d."""
    if f1.ambient_rank != f2.ambient_rank:
        raise SupportMismatch("different ambient lattices")
    for p in itertools.product(range(-3, 4), repeat=f1.ambient_rank):
        if f1.supports(p) != f2.supports(p):
            raise SupportMismatch(f"supports differ at {p}")
    pieces = []
    for a in f1.maximal:
        for b in f2.maximal:
            inter = cone_intersection(a, b)
            if inter.rays:
                pieces.append(inter.rays)
    return cone_complex(f1.ambient_rank, pieces, scale=f1.scale)


def sigma_n(rank: int, n: int) -> ConeComplex:
    """Overlay of the stellar subdivisions of the positive orthant at every
    primitive vector with coordinates in {0, ..., n}."""
    result = orthant(rank)
    base = orthant(rank)
    for v in sorted(itertools.product(range(n + 1), repeat=rank)):
        if not any(v) or primitive(v) != v:
            continue
        sub, _ = star_subdivision(base, v)
        result = common_refinement(result, sub)
    return result


def root_rescale(c: ConeComplex, k: int) -> ConeComplex:
    """Same fan over the lattice refined by k (scale bookkeeping only)."""
    if k < 1:
        raise ValueError("scale factor must be positive")
    if k == 1:
        return c
    return ConeComplex(c.ambient_rank, c.maximal, c.cones, c.scale * k)


def is_refinement(fine: ConeComplex, coarse: ConeComplex) -> bool:
    """True when every cone of ``fine`` sits inside a cone of ``coarse`` and
    the supports agree on the integer points of [-8, 8]^d."""
    if fine.ambient_rank != coarse.ambient_rank:
        return False
    if fine.scale % coarse.scale != 0:
        return False
    for a in fine.maximal:
        if not any(cone_subset(a, b) for b in coarse.maximal):
            return False
    for p in itertools.product(range(-8, 9), repeat=coarse.ambient_rank):
        if coarse.supports(p) and not fine.supports(p):
            return False
    return True
