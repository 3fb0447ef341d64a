"""Cone complexes: embedded fans, integral points, maps, and subdivisions.

A cone complex is a collection of sharp (strongly convex) rational polyhedral
cones glued along faces; :func:`make_cone` rejects a cone with a line.  This
module works with embedded complexes: every cone lives in one ambient lattice
Z^d, so face inclusions are identity maps and gluing is literal intersection.
A positive ``scale`` k means the working lattice is (1/k)·Z^d; stored
coordinates are always the integer numerators, i.e. k times the geometric
coordinates.

A complex builds only its maximal cones as ``Cone``s; every other cone is a
key, its sorted ray tuple, found only when first asked for.  Which cone
holds some vectors is read from a maximal cone that holds them, and one
routine finds it (``ConeComplex.locate``).  The carrier of the vectors, the
smallest cone containing them, is the face of that cone on which the facets
vanishing on them vanish.  It is the cone whose relative interior holds
their sum, so the vectors lie in a given cone exactly when the carrier's
rays are rays of it.  An overlay compares supports exactly by checking the
walls of its pieces.  All of this relies on pairwise intersections of cones
being common faces.  That is checked once, at the boundary:
:func:`cone_complex` checks the ray lists it is given, while overlays and
stellar subdivisions of fans, and the chambers of a hyperplane arrangement,
are fans and are assembled without a check.

A cone is one record, ``intlinalg.Cone``: its rays, its facets and its
ray-facet incidence, for each facet the rays on which it vanishes.
``intlinalg.dual_description`` returns that record, straight from the
double description that gave the facets; a simplicial cone, whose rays
are as many as the ambient rank and independent, takes no double
description, as its facets and incidence are read off the one exact
inverse, ``intlinalg.scaled_inverse``.  :func:`make_cone` returns the
record once it has checked that the cone is sharp, and builds the zero
cone itself.  The routines here read the incidence where they would
otherwise take those dot products again.  The face lattice of a cone is
closed from the incidence once per cone (``intlinalg.face_closure``); an
overlay piece that is one of its two cones keeps the faces already found.
The walls of an overlay's pieces, the facets that cut a face in the fan
check, the facets of a stellar subdivision's new cones and the carrier of
some vectors come from the incidence as well.  Which facets are equations,
and so whether a cone is full-dimensional, the record answers itself
(``Cone.equations``).

Both the fan check and the overlay first try to decide a pair of cones by
exact integer sign tests on the rays and facets that each cone holds: one
cone inside the other, or a facet of one that is <= 0 on the other.  Only
the pairs these leave open take a double description.  One routine cuts a
cone down by some more facets: a double description that starts from the
rays and incidence of the cone, adds the facets, and gives the rays of the
cut with the facets vanishing on each.  When the cut is full-dimensional,
its facets are the candidates that vanish on maximal sets of those rays,
and no second double description is needed.  The intersection of two
cones is the first cut down by the facets of the second.

A map of complexes assigns the faces of each maximal source cone the
carriers of their images in one target cone that holds that cone's image:
the one ``locate`` finds, or, for a stellar subdivision's map, the cone of
the input the piece was cut from, which needs no search.

The tower ``sigma_n`` is the positive orthant cut by the hyperplanes
b·x_i = a·x_k (a hyperplane arrangement; Stanley, "An introduction to
hyperplane arrangements", 2007, ch. 1), which is the same fan as the
overlay of the stellar subdivisions of the orthant (Cox, Little & Schenck,
*Toric Varieties*, §11.1).  A chamber that a hyperplane crosses splits in
two by that cut routine, and one double description builds each half.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm

from . import intlinalg
from .intlinalg import (
    Cone,
    Vec,
    dot,
    dual_description,
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


def make_cone(ambient_rank: int, rays) -> Cone:
    """Canonical cone from generating rays: ``dual_description`` gives its
    facets and its sorted primitive extreme rays, by one double description
    or, for a simplicial cone, by none.  The zero cone, from no nonzero ray,
    takes none: each coordinate vector and its negative is a facet.  Raises
    ValueError when the rays span a cone with a line, which is not sharp."""
    rays = [primitive(tuple(r)) for r in rays if any(r)]
    if not rays:
        facets = tuple(tuple(s * x for x in row)
                       for s in (1, -1) for row in identity(ambient_rank))
        return Cone(ambient_rank, (), facets, (frozenset(),) * len(facets))
    cone = dual_description(rays, ambient_rank)
    if not cone.rays:
        raise ValueError(f"cone {[list(r) for r in sorted(set(rays))]} is not sharp")
    return cone


def cone_faces(c: Cone) -> list[Cone]:
    """All faces of a cone (including the zero cone and the cone itself)."""
    return [c if rays == c.rays else make_cone(c.ambient_rank, rays)
            for rays in sorted(c.faces)]


def _meet(a: Cone, facets: tuple[Vec, ...]) -> tuple[list[Vec], list[frozenset]]:
    """The extreme rays of the part of a on which every vector of ``facets``
    is >= 0, each with the indices into ``a.facets + facets`` of the facets
    vanishing on it: one double description that starts from a, whose rays
    and incidence are known, and adds ``facets``.  It is looked up on
    ``intlinalg``, like every other double description, so that a wrapper
    put there sees them all."""
    _, rays, tight = intlinalg.dual_rays(a.facets + facets, a.ambient_rank,
                                         (len(a.facets), a.rays, a.ray_facets))
    return rays, tight


def _cut_down(a: Cone, facets: tuple[Vec, ...]) -> Cone:
    """The part of a on which every vector of ``facets`` is >= 0, equal to
    ``make_cone`` of its rays.  One double description, started from a (see
    :func:`_meet`), gives the rays and the facets of a and ``facets`` that
    vanish on each.  When no facet vanishes on all of them, the cut is
    full-dimensional, and its facets and their incidence are the candidates
    whose sets of tight rays are maximal: every proper face lies in a facet,
    and distinct facets of a full-dimensional cone vanish on distinct sets
    of rays.  A lower-dimensional cut takes a second double description, for
    its equations."""
    d = a.ambient_rank
    rays, tight = _meet(a, facets)
    if not rays or frozenset.intersection(*tight):
        return make_cone(d, rays)
    first: dict[Vec, int] = {}  # each facet, by its first place in the list
    for j, f in enumerate(a.facets + facets):
        first.setdefault(f, j)
    candidates = sorted(first)
    on = [frozenset(k for k, t in enumerate(tight) if first[f] in t) for f in candidates]
    top = [i for i, o in enumerate(on) if not any(o < other for other in on)]
    return Cone(d, tuple(rays), tuple(candidates[i] for i in top), tuple(on[i] for i in top))


def cone_intersection(a: Cone, b: Cone) -> Cone:
    """a ∩ b, equal to ``make_cone`` of its rays: a cut down by the facets
    of b (see :func:`_cut_down`)."""
    return _cut_down(a, b.facets)


# ---------------------------------------------------------------------------
# complexes


@dataclass(frozen=True)
class ConeComplex:
    """An embedded fan: all cones share one ambient lattice and pairwise
    intersections of cones are faces of both, which :meth:`carrier` relies
    on.  Only the maximal cones are built as ``Cone``s.  Every other cone is
    a key, its sorted ray tuple: ``faces`` holds the key of every face of
    every maximal cone, found from their face lattices when first read, and
    a cone's index is its place in ``faces``.  Whether some vectors lie in a
    cone is read from a maximal cone that holds them (:meth:`locate`)."""

    ambient_rank: int
    maximal: tuple[Cone, ...]
    scale: int = 1

    @cached_property
    def faces(self) -> tuple[tuple[Vec, ...], ...]:
        """The ray tuple of every cone, sorted."""
        return tuple(sorted(set().union(*(m.faces for m in self.maximal))))

    @cached_property
    def _index(self) -> dict[tuple[Vec, ...], int]:
        return {rays: i for i, rays in enumerate(self.faces)}

    def cone_index(self, c: Cone) -> int:
        return self._index[c.rays]

    def locate(self, vectors) -> Cone | None:
        """The first maximal cone that holds every one of ``vectors``, or
        None when no maximal cone does.  Every question of which cone holds
        some vectors is answered from the cone this returns, so a faster
        search changes this body alone."""
        for m in self.maximal:
            if all(map(m.contains, vectors)):
                return m
        return None

    def carrier(self, sigma: Cone, vectors) -> int:
        """Index of the smallest cone containing ``vectors``, given a cone
        ``sigma`` of the complex that contains them all: the rays of sigma on
        which every facet vanishing on the vectors vanishes too.  Sigma is
        sharp, so zero vectors get the zero cone."""
        on = frozenset(range(len(sigma.rays)))
        for f, on_f in zip(sigma.facets, sigma.incidence):
            if all(dot(f, v) == 0 for v in vectors):
                on &= on_f
        return self._index[tuple(sigma.rays[i] for i in sorted(on))]

    def carrier_in(self, j: int, vectors) -> int | None:
        """Index of the smallest cone containing ``vectors`` when they all
        lie in cone ``j``, and None when they do not.  That cone is the one
        whose relative interior holds their sum, so it lies in cone j
        exactly when it is a face of cone j, that is when its rays are rays
        of cone j: no face is built to answer.  Raises PointOutsideCone
        when j is not the index of a cone."""
        rays = set(_named(self.faces, j))
        sigma = self.locate(vectors)
        if sigma is None:
            return None
        k = self.carrier(sigma, vectors)
        return k if rays.issuperset(self.faces[k]) else None

    def supports(self, v) -> bool:
        return self.locate([v]) is not None

    def same_cones(self, other: "ConeComplex") -> bool:
        return (self.ambient_rank == other.ambient_rank
                and self.scale == other.scale
                and {c.rays for c in self.maximal} == {c.rays for c in other.maximal})


def cone_complex(ambient_rank: int, maximal_rays, scale: int = 1) -> ConeComplex:
    """Build a complex from the ray lists of its cones, checking that they
    form a fan: raises ValueError when a cone has a line (see
    :func:`make_cone`), when two maximal cones do not meet in a common face,
    or when the scale is not an integer >= 1.  A cone listed together with
    one of its faces is fine; the face is not maximal."""
    _check_scale(scale)
    c = _assemble(ambient_rank, [make_cone(ambient_rank, rays)
                                 for rays in maximal_rays], scale)
    for a, b in itertools.combinations(c.maximal, 2):
        if _common_face(a, b):
            continue
        inter = tuple(_meet(a, b.facets)[0])  # rays of a ∩ b
        if inter not in a.faces or inter not in b.faces:
            raise ValueError("cones do not meet along a common face")
    return c


def _check_scale(k) -> None:
    """Raise ValueError unless the scale k is an int (not a bool) >= 1."""
    if type(k) is not int or k < 1:
        raise ValueError(f"scale factor must be an integer >= 1, got {k!r}")


def _flat(f, c: Cone) -> bool:
    return all(dot(f, r) == 0 for r in c.rays)


def _cut(f, c: Cone) -> list[int] | None:
    """When f is <= 0 on all of ``c``, the indices of the rays of c on which
    it vanishes, and None as soon as it is > 0 on a ray.  A cone on which f
    is >= 0 meets c inside the hyperplane f = 0, in the face of c that those
    rays span."""
    zeros = []
    for i, r in enumerate(c.rays):
        s = dot(f, r)
        if s > 0:
            return None
        if s == 0:
            zeros.append(i)
    return zeros


def _common_face(a: Cone, b: Cone) -> bool:
    """Whether sign tests show that a ∩ b is a face of both cones.  A facet
    of either cone that is <= 0 on the other vanishes on a ∩ b and cuts a
    face from each cone: on its own cone the rays its incidence names, on the
    other the rays :func:`_cut` finds.  When all such facets vanish on the
    same rays of a as of b, a ∩ b is the face of both that those rays span."""
    on_a, on_b = set(range(len(a.rays))), set(range(len(b.rays)))
    for c, other, on_c, on_other in ((a, b, on_a, on_b), (b, a, on_b, on_a)):
        for f, on_f in zip(c.facets, c.incidence):
            zeros = _cut(f, other)
            if zeros is not None:
                on_c &= on_f
                on_other.intersection_update(zeros)
    return {a.rays[i] for i in on_a} == {b.rays[i] for i in on_b}


def _assemble(ambient_rank: int, cones, scale: int) -> ConeComplex:
    """The complex of ``cones``, built ``Cone``s that form a fan.  Nothing is
    checked here: :func:`cone_complex` checks its input, and an overlay or a
    stellar subdivision of a fan is a fan.  A cone is maximal unless its ray
    tuple repeats an earlier one or is a proper face of another cone.  A
    full-dimensional cone is a proper face of no cone, so the face lattices
    are found only when some cone is lower-dimensional."""
    unique: dict[tuple[Vec, ...], Cone] = {}
    for c in cones:
        unique.setdefault(c.rays, c)
    proper = set()
    if not all(c.full for c in unique.values()):
        proper = set().union(*(c.faces - {rays} for rays, c in unique.items()))
    maximal = sorted((c for rays, c in unique.items() if rays not in proper),
                     key=Cone.key)
    return ConeComplex(ambient_rank, tuple(maximal), scale)


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
    integral points of the complex is equality of canonical forms.  Raises
    PointOutsideCone when the point is not in the cone it names."""
    v = tuple(p.coordinates)
    k = c.carrier_in(p.cone_index, [v])
    if k is None:
        raise PointOutsideCone(f"{v} not in cone {c.faces[p.cone_index]}")
    return IntegralPoint(k, v)


def _named(per_cone, j: int):
    """``per_cone[j]``, for a sequence with one entry per cone.  Raises
    PointOutsideCone when j is outside [0, len(per_cone)), where a Python
    index would count a negative j from the end."""
    if not 0 <= j < len(per_cone):
        raise PointOutsideCone(f"no cone has index {j}: the indices are "
                               f"[0, {len(per_cone)})")
    return per_cone[j]


def point(c: ConeComplex, coordinates) -> IntegralPoint:
    """Canonical integral point of an embedded complex from raw coordinates."""
    v = tuple(coordinates)
    sigma = c.locate([v])
    if sigma is None:
        raise OutsideSupport(f"{v} outside the support")
    return IntegralPoint(c.carrier(sigma, [v]), v)


def lattice_points_box(c: ConeComplex, bound: int) -> set[IntegralPoint]:
    """All canonical integral points with geometric coordinates in [0, B]^d.
    With scale k these are the numerator vectors in [0, B*k]^d.  Each point
    is located once, and its cone is read from the maximal cone found."""
    out = set()
    top = bound * c.scale
    for v in itertools.product(range(top + 1), repeat=c.ambient_rank):
        sigma = c.locate([v])
        if sigma is not None:
            out.add(IntegralPoint(c.carrier(sigma, [v]), v))
    return out


# ---------------------------------------------------------------------------
# maps


@dataclass(frozen=True)
class ConeComplexMap:
    """A map of complexes: for each source cone, in the order of
    ``source.faces``, a target cone index and an integer matrix sending it
    into that target cone.  :class:`~logfirm.firmament.Firmament` checks
    that the matrices of a map given by hand agree on shared faces."""

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
    """The image of p, canonical in the target.  Raises PointOutsideCone
    when p names no source cone, or when its image is not in the target
    cone assigned to the one it names."""
    idx, matrix = _named(f.assignments, p.cone_index)
    image = mat_vec(matrix, p.coordinates)
    return canonicalize_point(f.target, IntegralPoint(idx, image))


def complex_map(source: ConeComplex, target: ConeComplex,
                matrix) -> ConeComplexMap:
    """Map induced by one ambient matrix, assigning each source cone to the
    smallest target cone containing its image.  Raises InvalidMap when the
    image of a maximal source cone lies in no target cone.  The target is
    searched once per maximal source cone (see :func:`_map_faces`)."""

    def holder(m: Cone, images) -> Cone:
        sigma = target.locate(images)
        if sigma is None:
            raise InvalidMap(f"image of cone {m.rays} lies in no target cone")
        return sigma
    return _map_faces(source, target, matrix, holder)


def _map_faces(source: ConeComplex, target: ConeComplex, matrix,
               holder) -> ConeComplexMap:
    """The map of complexes induced by ``matrix``, given
    ``holder(m, images)``: a cone of ``target`` that holds the images of
    the rays of the maximal source cone m.  Each face of m is assigned the
    carrier of its images in that cone.  In a fan that carrier is the
    smallest target cone containing them, whichever cone holds them, so a
    face of two maximal cones gets one answer."""
    matrix = tuple(tuple(r) for r in matrix)
    carriers: dict[tuple[Vec, ...], int] = {}
    for m in source.maximal:
        image = {r: mat_vec(matrix, r) for r in m.rays}
        sigma = holder(m, list(image.values()))
        for rays in m.faces - carriers.keys():
            carriers[rays] = target.carrier(sigma, [image[r] for r in rays])
    return ConeComplexMap(source, target, tuple(
        (carriers[rays], matrix) for rays in source.faces))


# ---------------------------------------------------------------------------
# subdivisions


def star_subdivision(c: ConeComplex, v) -> tuple[ConeComplex, ConeComplexMap]:
    """Stellar subdivision at a primitive vector in the support, with the
    canonical subdivision map back to the input, equal to
    ``complex_map(subdivided, c, identity(c.ambient_rank))``.  Each maximal
    cone of the subdivision lies in the cone of ``c`` it was cut from (see
    :func:`_star_pieces`), which is the cone :func:`_map_faces` reads its
    faces' carriers from, with no search over the cones of ``c``."""
    v = tuple(v)
    if not any(v) or primitive(v) != v:
        raise NotPrimitive(f"{v} is not primitive")
    if not c.supports(v):
        raise OutsideSupport(f"{v} outside the support")
    subdivided = _star(c, v)
    source = {rays: sigma for sigma, rays in _star_pieces(c, v)}
    return subdivided, _map_faces(subdivided, c, identity(c.ambient_rank),
                                  lambda m, _: source[m.rays])


def _star_pieces(c: ConeComplex, v: Vec):
    """The maximal cones of the stellar subdivision of ``c`` at ``v``, a
    primitive vector of its support, each as (sigma, rays): sigma is the
    maximal cone of ``c`` that holds it, and ``rays`` are its sorted extreme
    rays.  A cone that does not contain v is kept; one that does is replaced
    by the pyramids over v of its facets that v is not on.  No two pieces
    repeat or contain one another, so each is maximal."""
    for sigma in c.maximal:
        if not sigma.contains(v):
            yield sigma, sigma.rays
            continue
        for f, on in zip(sigma.facets, sigma.incidence):
            if dot(f, v) > 0:
                yield sigma, tuple(sorted([sigma.rays[i] for i in on] + [v]))


def _star(c: ConeComplex, v: Vec) -> ConeComplex:
    """The stellar subdivision of ``c`` at ``v``, a primitive vector of its
    support, without its map.  A piece with the rays of its cone, as when v
    is a ray of a simplicial cone, is that cone."""
    return _assemble(c.ambient_rank,
                     [sigma if rays == sigma.rays else make_cone(c.ambient_rank, rays)
                      for sigma, rays in _star_pieces(c, v)], c.scale)


def _covers(a: Cone, pieces) -> bool:
    """Whether ``pieces``, cones in ``a`` meeting in common faces, cover ``a``:
    some piece spans ``a``, and each facet (wall) of such a piece is shared by
    two of them or lies on a facet of ``a`` that is not one of its
    equations.  A piece spans ``a`` when its equations vanish on ``a``."""
    full = {p.rays: p for p in pieces
            if all(_flat(f, a) for f in p.equations)}.values()
    walls = Counter(w for p in full for w in {
        tuple(p.rays[i] for i in sorted(on))
        for f, on in zip(p.facets, p.incidence) if f not in p.equations})
    rims = [f for f in a.facets if f not in a.equations]
    return bool(full) and all(n > 1 or any(all(dot(f, r) == 0 for r in w) for f in rims)
                              for w, n in walls.items())


def _inside(a: Cone, b: Cone) -> bool:
    return all(b.contains(r) for r in a.rays)


def _piece(a: Cone, b: Cone) -> Cone | None:
    """The overlay piece a ∩ b, decided by sign tests where they suffice: it
    is a when a ⊆ b and b when b ⊆ a.  When both cones are full-dimensional
    and a facet of one is <= 0 on the other, the piece lies in a hyperplane
    and is None: if the supports agree, the full-dimensional pieces cover a,
    and in the overlay fan a piece of lower dimension is then a face of one
    of them.  Only the other pairs take a double description."""
    if _inside(a, b):
        return a
    if _inside(b, a):
        return b
    if a.full and b.full and (any(_cut(f, b) is not None for f in a.facets)
                              or any(_cut(f, a) is not None for f in b.facets)):
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
    grid = [[_piece(a, b) for b in f2.maximal] for a in f1.maximal]
    columns = [[row[j] for row in grid] for j in range(len(f2.maximal))]
    for c, pieces in zip(f1.maximal + f2.maximal, grid + columns):
        # a row or column that holds its own cone is covered
        if c not in pieces and not _covers(c, [p for p in pieces if p is not None]):
            raise SupportMismatch(f"cone {c.rays} is not covered by the other fan")
    return _overlay(f1, f2, grid)


def _overlay(f1: ConeComplex, f2: ConeComplex, grid) -> ConeComplex:
    """The complex of the nonzero pieces in ``grid``, which holds the overlay
    piece of each pair of maximal cones by rows of f1, on the lcm of the
    lattices, with no check that they cover both fans."""
    return _assemble(f1.ambient_rank,
                     [p for row in grid for p in row if p is not None and p.rays],
                     lcm(f1.scale, f2.scale))


def sigma_n(rank: int, n: int) -> ConeComplex:
    """The overlay of the stellar subdivisions of the positive orthant at
    every primitive vector with coordinates in {0, ..., n}, built as the
    orthant cut by the hyperplanes b·x_i = a·x_k for i < k and coprime
    1 <= a, b <= n.  These are the same fan:

    - Let v be such a vector and S = {i : v_i > 0}.  The star of the orthant
      at v has one cone σ_i = cone(v, e_j : j ≠ i) for each i in S, and
      σ_i = {x >= 0 : x_i/v_i <= x_k/v_k for all k in S}.  So each cone of
      the star is cut out of the orthant by half-spaces of hyperplanes
      v_k·x_i = v_i·x_k.  Divided by the gcd of v_i and v_k, each of these
      is one of the hyperplanes above, so the cone is a union of chambers.
    - When v = a·e_i + b·e_k with coprime a, b, the star has the two cones
      on either side of b·x_i = a·x_k, so that whole section of the orthant
      is a wall, and every chamber lies on one side of it.

    So every cone of the overlay is a union of chambers that lies on one
    side of every hyperplane, that is one chamber.  A chamber that a
    hyperplane crosses, with rays strictly on both sides (:func:`_cut`),
    splits into the two halves that ``_cut_down`` builds; both are
    full-dimensional, so each takes one double description.  Chambers of a
    hyperplane arrangement form a fan, which is assembled without a check,
    and no subdivision map is built."""
    chambers = list(orthant(rank).maximal)
    for i, k in itertools.combinations(range(rank), 2):
        for a, b in itertools.product(range(1, n + 1), repeat=2):
            if gcd(a, b) > 1:
                continue
            h = tuple(b if j == i else -a if j == k else 0 for j in range(rank))
            minus = tuple(-x for x in h)
            cut = []
            for c in chambers:
                if _cut(h, c) is None and _cut(minus, c) is None:
                    cut += [_cut_down(c, (h,)), _cut_down(c, (minus,))]
                else:
                    cut.append(c)
            chambers = cut
    return _assemble(rank, chambers, 1)


def root_rescale(c: ConeComplex, k: int) -> ConeComplex:
    """Same fan over the lattice refined by k (scale bookkeeping only).
    Raises ValueError unless k is an integer >= 1."""
    _check_scale(k)
    if k == 1:
        return c
    return ConeComplex(c.ambient_rank, c.maximal, c.scale * k)


def is_refinement(fine: ConeComplex, coarse: ConeComplex) -> bool:
    """Whether ``fine`` refines ``coarse`` (same support, finer cones and a
    finer lattice), i.e. whether the overlay of the two is ``fine``."""
    try:
        return common_refinement(fine, coarse).same_cones(fine)
    except SupportMismatch:
        return False
