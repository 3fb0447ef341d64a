"""Cone complexes: embedded fans, integral points, maps, and subdivisions.

A cone complex is a collection of sharp (strongly convex) rational polyhedral
cones glued along faces; :func:`make_cone` rejects a cone with a line.  This
module works with embedded complexes: every cone lives in one ambient lattice
Z^d, so face inclusions are identity maps and gluing is literal intersection.
A positive ``scale`` k means the working lattice is (1/k)·Z^d; stored
coordinates are always the integer numerators, i.e. k times the geometric
coordinates.

A complex keys its cones by their sorted ray tuples.  The carrier of some
vectors, the smallest cone containing them, is looked up by that key, and an
overlay compares supports exactly by checking the walls of its pieces; both
rely on pairwise intersections of cones being common faces.  That is checked
once, at the boundary: :func:`cone_complex` checks the ray lists it is given,
while overlays and stellar subdivisions of fans are fans and are assembled
without a check.  A complex keeps only the ray tuples of its faces and builds
the faces themselves when first asked for them.

Both the fan check and the overlay first try to decide a pair of cones by
exact integer sign tests on the rays and facets that each cone holds: one
cone inside the other, or a facet of one that is <= 0 on the other.  Only
the pairs these leave open take a double description.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import lcm

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
    """A sharp rational polyhedral cone in Z^d, stored by its sorted primitive
    extreme rays and a complete facet description (membership is all
    ⟨facet, x⟩ >= 0; an equation of a lower-dimensional cone is listed as f
    and -f)."""

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
    """Canonical cone from generating rays: one double description gives its
    facets and its sorted primitive extreme rays.  Raises ValueError when
    the rays span a cone with a line, which is not sharp."""
    rays = [primitive(tuple(r)) for r in rays if any(r)]
    if not rays:
        return _extreme_cone(ambient_rank, ())
    dd = dual_description(rays, ambient_rank)
    if not dd.rays:
        raise ValueError(f"cone {[list(r) for r in sorted(set(rays))]} is not sharp")
    return Cone(ambient_rank, dd.rays, dd.facets)


def _extreme_cone(ambient_rank: int, rays) -> Cone:
    """The cone whose sorted primitive extreme rays are already known to be
    ``rays``, as for a face or an intersection: one double description gives
    its facets, and the result equals ``make_cone(ambient_rank, rays)``."""
    if not rays:
        return Cone(ambient_rank, (),
                    tuple(tuple(r) for m in (identity(ambient_rank),)
                          for s in (1, -1) for r in [[s * x for x in row] for row in m]))
    return Cone(ambient_rank, tuple(rays), facets_to_rays(rays, ambient_rank))


def _face_rays(c: Cone) -> set[tuple[Vec, ...]]:
    """The ray tuple of every face of a cone, the zero cone included."""
    return {()} | {tuple(c.rays[i] for i in sorted(on_face))
                   for on_face in face_lattice(c.rays, c.facets)}


def cone_faces(c: Cone) -> list[Cone]:
    """All faces of a cone (including the zero cone and the cone itself)."""
    return [c if rays == c.rays else _extreme_cone(c.ambient_rank, rays)
            for rays in sorted(_face_rays(c))]


def cone_intersection(a: Cone, b: Cone) -> Cone:
    rays = facets_to_rays(list(a.facets) + list(b.facets), a.ambient_rank)
    return _extreme_cone(a.ambient_rank, rays)


# ---------------------------------------------------------------------------
# complexes


@dataclass(frozen=True)
class ConeComplex:
    """An embedded fan: all cones share one ambient lattice and pairwise
    intersections of cones are faces of both, which :meth:`carrier` relies
    on.  Cones are keyed by their sorted ray tuple: ``faces`` holds the key
    of every face of every maximal cone, and a cone's index is its place in
    ``faces``.  The faces are built as ``Cone``s only when ``cones`` is first
    read."""

    ambient_rank: int
    maximal: tuple[Cone, ...]
    faces: tuple[tuple[Vec, ...], ...]  # sorted ray tuples of all cones
    scale: int = 1

    @cached_property
    def cones(self) -> tuple[Cone, ...]:
        """Every cone of the complex, in the order of ``faces``."""
        built = {m.rays: m for m in self.maximal}
        return tuple(built[rays] if rays in built
                     else _extreme_cone(self.ambient_rank, rays)
                     for rays in self.faces)

    @cached_property
    def _index(self) -> dict[tuple[Vec, ...], int]:
        return {rays: i for i, rays in enumerate(self.faces)}

    def cone_index(self, c: Cone) -> int:
        return self._index[c.rays]

    def carrier(self, sigma: Cone, vectors) -> int:
        """Index of the smallest cone containing ``vectors``, given a cone
        ``sigma`` of the complex that contains them all: the rays of sigma on
        which every facet vanishing on the vectors vanishes too.  Sigma is
        sharp, so zero vectors get the zero cone."""
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
    """Build a complex from the ray lists of its cones, checking that they
    form a fan: raises ValueError when a cone has a line (see
    :func:`make_cone`), when two maximal cones do not meet in a common face,
    or when the scale is below 1.  A cone listed together with one of its
    faces is fine; the face is not maximal."""
    if scale < 1:
        raise ValueError("scale factor must be positive")
    c = _assemble(ambient_rank, [make_cone(ambient_rank, rays)
                                 for rays in maximal_rays], scale)
    face_rays = [_face_rays(m) for m in c.maximal]
    for (a, fa), (b, fb) in itertools.combinations(zip(c.maximal, face_rays), 2):
        if _common_face(a, b):
            continue
        inter = facets_to_rays(a.facets + b.facets, ambient_rank)  # rays of a ∩ b
        if inter not in fa or inter not in fb:
            raise ValueError("cones do not meet along a common face")
    return c


def _flat(f, c: Cone) -> bool:
    return all(dot(f, r) == 0 for r in c.rays)


def _below(f, c: Cone) -> bool:
    """Whether f is <= 0 on all of ``c``: a cone on which the facet f is >= 0
    meets c inside the hyperplane f = 0."""
    return all(dot(f, r) <= 0 for r in c.rays)


def _common_face(a: Cone, b: Cone) -> bool:
    """Whether sign tests show that a ∩ b is a face of both cones.  A facet
    of either cone that is <= 0 on the other vanishes on a ∩ b and cuts a
    face from each cone.  When all such facets vanish on the same rays of a
    as of b, a ∩ b is the face of both that those rays span."""
    cuts = [f for f in a.facets if _below(f, b)] + [f for f in b.facets if _below(f, a)]
    return ({r for r in a.rays if all(dot(f, r) == 0 for f in cuts)}
            == {r for r in b.rays if all(dot(f, r) == 0 for f in cuts)})


def _assemble(ambient_rank: int, cones, scale: int) -> ConeComplex:
    """The complex of ``cones``, built ``Cone``s that form a fan.  Nothing is
    checked here: :func:`cone_complex` checks its input, and an overlay or a
    stellar subdivision of a fan is a fan.  A cone is maximal unless its ray
    tuple repeats an earlier one or is a proper face of another cone; only
    the ray tuples of the faces are computed."""
    unique: dict[tuple[Vec, ...], Cone] = {}
    for c in cones:
        unique.setdefault(c.rays, c)
    face_rays = {rays: _face_rays(c) for rays, c in unique.items()}
    proper = set().union(*(f - {rays} for rays, f in face_rays.items()))
    maximal = sorted((c for rays, c in unique.items() if rays not in proper),
                     key=Cone.key)
    faces = set().union(*(face_rays[m.rays] for m in maximal))
    return ConeComplex(ambient_rank, tuple(maximal), tuple(sorted(faces)), scale)


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
        for mid_idx, m1 in inner.assignments:
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
    for rays in source.faces:
        images = [tuple(mat_vec([list(r) for r in matrix], list(ray)))
                  for ray in rays]
        sigma = next((tc for tc in target.maximal
                      if all(tc.contains(v) for v in images)), None)
        if sigma is None:
            raise InvalidMap(f"image of cone {rays} lies in no target cone")
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
    pieces = []
    for sigma in c.maximal:
        if not sigma.contains(v):
            pieces.append(sigma)
            continue
        for f in sigma.facets:
            if dot(f, v) > 0:
                tight = [r for r in sigma.rays if dot(f, r) == 0]
                pieces.append(make_cone(c.ambient_rank, tight + [v]))
    subdivided = _assemble(c.ambient_rank, pieces, c.scale)
    return subdivided, complex_map(subdivided, c)


def _covers(a: Cone, pieces) -> bool:
    """Whether ``pieces``, cones in ``a`` meeting in common faces, cover ``a``:
    some piece spans ``a``, and each facet (wall) of such a piece is shared by
    two of them or lies on a facet of ``a`` (one not vanishing on all of a)."""
    full = {p.rays: p for p in pieces
            if all(_flat(f, a) for f in p.facets if _flat(f, p))}.values()
    walls = Counter(w for p in full for w in {
        tuple(r for r in p.rays if dot(f, r) == 0) for f in p.facets if not _flat(f, p)})
    rims = [f for f in a.facets if not _flat(f, a)]
    return bool(full) and all(n > 1 or any(all(dot(f, r) == 0 for r in w) for f in rims)
                              for w, n in walls.items())


def _inside(a: Cone, b: Cone) -> bool:
    return all(b.contains(r) for r in a.rays)


def _full(c: Cone) -> bool:
    """Whether the cone is full-dimensional: no facet vanishes on all of it."""
    return not any(_flat(f, c) for f in c.facets)


def _piece(a: Cone, b: Cone, full: bool) -> Cone | None:
    """The overlay piece a ∩ b, decided by sign tests where they suffice: it
    is a when a ⊆ b and b when b ⊆ a.  When both cones are full-dimensional
    (``full``) and a facet of one is <= 0 on the other, the piece lies in a
    hyperplane and is None: if the supports agree, the full-dimensional
    pieces cover a, and in the overlay fan a piece of lower dimension is then
    a face of one of them.  Only the other pairs take a double description."""
    if _inside(a, b):
        return a
    if _inside(b, a):
        return b
    if full and (any(_below(f, b) for f in a.facets)
                 or any(_below(f, a) for f in b.facets)):
        return None
    return cone_intersection(a, b)


def common_refinement(f1: ConeComplex, f2: ConeComplex) -> ConeComplex:
    """Overlay of two fans (sharp cones meeting in common faces, as the CLI
    checks) on the lcm of their lattices: the pairwise intersections of their
    maximal cones, less those that are faces of others.  The supports must be
    equal: unless those intersections cover every maximal cone of both fans,
    which is decided exactly, this raises SupportMismatch naming a cone that
    they do not cover.  Most pairs are decided by sign tests on the rays and
    facets the cones hold (see :func:`_piece`); only pairs that cross take a
    double description."""
    if f1.ambient_rank != f2.ambient_rank:
        raise SupportMismatch("different ambient lattices")
    full1, full2 = ([_full(c) for c in f.maximal] for f in (f1, f2))
    grid = [[_piece(a, b, fa and fb) for b, fb in zip(f2.maximal, full2)]
            for a, fa in zip(f1.maximal, full1)]
    columns = [[row[j] for row in grid] for j in range(len(f2.maximal))]
    for c, pieces in zip(f1.maximal + f2.maximal, grid + columns):
        # a row or column that holds its own cone is covered
        if c not in pieces and not _covers(c, [p for p in pieces if p is not None]):
            raise SupportMismatch(f"cone {c.rays} is not covered by the other fan")
    return _assemble(f1.ambient_rank,
                     [p for row in grid for p in row if p is not None and p.rays],
                     lcm(f1.scale, f2.scale))


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
    return ConeComplex(c.ambient_rank, c.maximal, c.faces, c.scale * k)


def is_refinement(fine: ConeComplex, coarse: ConeComplex) -> bool:
    """Whether ``fine`` refines ``coarse`` (same support, finer cones and a
    finer lattice), i.e. whether the overlay of the two is ``fine``."""
    try:
        return common_refinement(fine, coarse).same_cones(fine)
    except SupportMismatch:
        return False
