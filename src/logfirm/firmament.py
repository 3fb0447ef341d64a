"""Firmaments: images of integral points under maps of cone complexes.

Given charts θᵢ: P → Qᵢ, each dual cone Hom(Qᵢ, R≥0) maps to the dual cone
of P by precomposition; the firmament is the image of the lattice points of
the sources.  Membership is decided exactly: a point is a member when it
is the image of a lattice point of some source cone, which one
:class:`~logfirm.intlinalg.ConeImage` per source cone answers, prepared
once per firmament and asked at every query point.  Each record is written
in the coordinates of a Z-basis of the lattice of its cone's linear span,
so a cone of lower dimension (every firmament with two or more charts, and
a chart into a monoid with units) takes only as many variables as it has
dimensions, and no equation of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .fan import (
    ConeComplex,
    ConeComplexMap,
    IntegralPoint,
    InvalidMap,
    complex_map,
    cone_complex,
    lattice_points_box,
    point,
)
from .intlinalg import ConeImage, dot, int_vector, mat_vec, solve_lattice
from .monoid import AffineMonoid


class NotAdditive(Exception):
    """The requested valuations do not extend to a monoid homomorphism."""


@dataclass(frozen=True)
class Firmament:
    """The image of the lattice points of the source cones of ``map``.
    Membership reads the maximal cones' matrices alone, so building one
    raises ValueError unless the map has one assignment per source cone,
    each naming a target cone, InvalidMap unless each cone's matrix sends
    it into its target cone, and ValueError unless it agrees on the cone's
    rays with the matrix of every maximal cone holding it."""

    map: ConeComplexMap

    def __post_init__(self):
        source, target = self.map.source, self.map.target
        if len(self.map.assignments) != len(source.faces):
            raise ValueError(f"the map has {len(self.map.assignments)} cone "
                             "assignments, expected one per source cone "
                             f"({len(source.faces)})")
        for t, _ in self.map.assignments:
            if type(t) is not int or not 0 <= t < len(target.faces):
                raise ValueError(f"target cone index {t!r} is not in "
                                 f"[0, {len(target.faces)})")
        matrices = dict(zip(source.faces, [a[1] for a in self.map.assignments]))
        for rays, (t, matrix) in zip(source.faces, self.map.assignments):
            if target.carrier_in(t, [mat_vec(matrix, r) for r in rays]) is None:
                raise InvalidMap(f"the matrix of cone {[list(r) for r in rays]} "
                                 f"does not send it into target cone {t}")
        for m in source.maximal:
            for rays in sorted(m.faces):
                if any(mat_vec(matrices[rays], r) != mat_vec(matrices[m.rays], r)
                       for r in rays):
                    raise ValueError(f"the matrix of cone {[list(r) for r in rays]} "
                                     "differs on its rays from that of maximal "
                                     f"cone {[list(r) for r in m.rays]}")

    @cached_property
    def systems(self) -> tuple[ConeImage, ...]:
        """One prepared :class:`~logfirm.intlinalg.ConeImage` per maximal
        source cone, in the order of ``map.source.maximal``, in the
        coordinates t of the Z-basis K of the lattice of the cone's span
        (``Cone.span_basis``): the cone's lattice points are the points K·t
        of the cone.  The record's matrix is the chart rows times K, and its
        facets are the cone's facets that are not equations
        (``Cone.equations``), times K.  The cone's equations hold for every
        t, so none is written, and a point is asked about as it is.  A cone
        has as many variables as dimensions, g_i for the dual cone of a
        chart into a monoid of rank g_i, not one per source coordinate, and
        a point of a cone whose chart is injective on its span takes no
        search.  Built on the first query and kept for every later one."""
        src = self.map.source
        systems = []
        for cone in src.maximal:
            _, matrix = self.map.assignments[src.cone_index(cone)]
            basis = cone.span_basis
            inequalities = [f for f in cone.facets if f not in cone.equations]
            systems.append(ConeImage(
                [[dot(r, k) for k in basis] for r in matrix],
                [[dot(f, k) for k in basis] for f in inequalities], len(basis)))
        return tuple(systems)


@dataclass(frozen=True)
class ContactOrder:
    """The point of the target complex recording generator valuations of a
    DVR point."""

    point: IntegralPoint


def dual_cone_complex(m: AffineMonoid) -> ConeComplex:
    """The cone of nonnegative functionals on a monoid, as a one-cone complex
    in the dual of gp(m): its rays are the facets of m's cone."""
    return cone_complex(m.group_rank, [m.cone.facets])


def firmament_from_charts(p: AffineMonoid, thetas) -> Firmament:
    """Firmament of the map presented by charts θᵢ: p → Qᵢ: sources are the
    dual cones of the Qᵢ (in orthogonal blocks), the target is the dual cone
    of p, and each block maps by the transpose of the chart matrix.  A chart
    into a group has the zero cone as its source, and with no charts there
    is no source cone, so the firmament is empty.  Raises ValueError when a
    chart does not start at p."""
    total = sum(theta.target.group_rank for theta in thetas)
    maximal, offset = [], 0
    for theta in thetas:
        if theta.source != p:
            raise ValueError("every chart must start at the base monoid")
        width = theta.target.group_rank
        maximal.append([[0] * offset + list(r) + [0] * (total - offset - width)
                        for r in theta.target.cone.facets])
        offset += width
    matrix = [[row[i] for theta in thetas for row in theta.local]
              for i in range(p.group_rank)]
    return Firmament(complex_map(cone_complex(total, maximal),
                                 dual_cone_complex(p), matrix))


def firmament_member(gamma: Firmament, n) -> bool:
    """Exact membership: does some lattice point of a source cone map to n?

    Asks each of ``gamma.systems`` in turn for a preimage of n, so the
    Smith forms and recession splits of a cone's integer program are found
    once per firmament, not once per point.  Each record is written in its
    cone's span, so a cone whose chart is injective on that span takes no
    search.  Each call gets the whole node budget of
    :func:`~logfirm.intlinalg.ilp_budget`.  Raises ValueError unless n has
    one int (not a bool or float) per target dimension, with or without a
    source cone."""
    coords = tuple(n.coordinates) if isinstance(n, IntegralPoint) else tuple(n)
    rank = gamma.map.target.ambient_rank
    if len(coords) != rank:
        raise ValueError(f"a point of this firmament has {rank} coordinates; "
                         f"this one has {len(coords)}")
    coords = int_vector(coords, rank, "point")
    return any(system.preimage(coords) is not None for system in gamma.systems)


def firmament_enumerate_box(gamma: Firmament, bound: int) -> set[IntegralPoint]:
    return {pt for pt in lattice_points_box(gamma.map.target, bound)
            if firmament_member(gamma, pt)}


def contact_order(p: AffineMonoid, vals) -> ContactOrder:
    """The integral point of the dual cone of p determined by prescribing
    valuations on the Hilbert generators.  vals gives each generator one
    int, as a dict keyed by generator tuples or a sequence aligned with
    p.hilbert, else ValueError; a negative value, or values that break a
    relation among the generators, raise NotAdditive."""
    hb = list(p.hilbert)
    if isinstance(vals, dict):
        for key in vals:
            # (True, 0) and (1.0, 0) equal (1, 0) as keys
            if (type(key) is not tuple or not all(type(x) is int for x in key)
                    or key not in hb):
                raise ValueError(f"vals key {key!r} names no Hilbert generator")
        missing = [h for h in hb if h not in vals]
        if missing:
            raise ValueError(f"vals has no value for generator {missing[0]}")
        vals = [vals[h] for h in hb]
    values = int_vector(vals, len(hb), "vals")
    if any(v < 0 for v in values):
        raise NotAdditive("valuations must be nonnegative")
    rows = [list(p.coords(h)) for h in hb]
    sol = solve_lattice(rows, values, p.group_rank)
    if sol is None:
        raise NotAdditive(
            "the prescribed valuations violate a relation among generators")
    return ContactOrder(point(dual_cone_complex(p), sol.particular))


def lies_in_firmament(gamma: Firmament, c: ContactOrder) -> bool:
    """Whether the monogenic set of multiples of the contact order sits in
    the firmament; by scaling-stability this is membership of the generator."""
    return firmament_member(gamma, c.point)
