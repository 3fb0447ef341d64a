"""Firmaments: images of integral points under maps of cone complexes.

Given charts θᵢ: P → Qᵢ, each dual cone Hom(Qᵢ, R≥0) maps to the dual cone
of P by precomposition; the firmament is the image of the lattice points of
the sources.  Membership is decided exactly, one integer program per source
cone, each prepared once per firmament and solved at every query point.  A
source cone of lower dimension (every firmament with two or more charts, and
a chart into a monoid with units) enters its equations with the chart rows,
so they are solved in the lattice step, not by the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .fan import (
    ConeComplex,
    ConeComplexMap,
    IntegralPoint,
    complex_map,
    cone_complex,
    lattice_points_box,
    point,
)
from .intlinalg import IntegerSystem, solve_lattice
from .monoid import AffineMonoid


class NotAdditive(Exception):
    """The requested valuations do not extend to a monoid homomorphism."""


@dataclass(frozen=True)
class Firmament:
    map: ConeComplexMap

    @cached_property
    def systems(self) -> tuple[tuple[IntegerSystem, int], ...]:
        """One prepared :class:`IntegerSystem` per maximal source cone, in
        the order of ``map.source.maximal``, with the number of the cone's
        equations.  The system's equations are the cone's chart rows, then
        the cone's equations: the facets whose incidence names every ray,
        one of each pair f, -f.  Its inequalities are the other facets.  So
        the lattice step, the Smith form, solves within the cone's span,
        and a solve on a cone whose chart is injective on that span takes
        no search.  Built on the first query and kept for every later one."""
        src = self.map.source
        systems = []
        for cone in src.maximal:
            _, matrix = self.map.assignments[src.cone_index(cone)]
            equations, inequalities = [], []
            for f, on in zip(cone.facets, cone.incidence):
                if len(on) < len(cone.rays):
                    inequalities.append(list(f))
                elif [-x for x in f] not in equations:
                    equations.append(list(f))
            systems.append((IntegerSystem(src.ambient_rank,
                                          [list(r) for r in matrix] + equations,
                                          inequalities), len(equations)))
        return tuple(systems)


@dataclass(frozen=True)
class ContactOrder:
    """The point of the target complex recording generator valuations of a
    DVR point."""

    point: IntegralPoint


def dual_cone_complex(m: AffineMonoid) -> ConeComplex:
    """The cone of nonnegative functionals on a monoid, as a one-cone complex
    in the dual of gp(m): its rays are the facets that m stores."""
    return cone_complex(m.group_rank, [m.facets_local])


def firmament_from_charts(p: AffineMonoid, thetas) -> Firmament:
    """Firmament of the map presented by charts θᵢ: p → Qᵢ: sources are the
    dual cones of the Qᵢ (in orthogonal blocks), the target is the dual cone
    of p, and each block maps by the transpose of the chart matrix."""
    target = dual_cone_complex(p)
    gp = p.group_rank
    blocks = [theta.target.group_rank for theta in thetas]
    total = sum(blocks)
    if total == 0:
        source = cone_complex(0, [[]])
        return Firmament(complex_map(source, target, [[] for _ in range(gp)]))
    maximal = []
    offset = 0
    columns: list[list[int]] = []
    for theta, width in zip(thetas, blocks):
        embedded = []
        for r in theta.target.facets_local:
            v = [0] * total
            v[offset:offset + width] = list(r)
            embedded.append(v)
        if embedded:
            maximal.append(embedded)
        else:
            maximal.append([[0] * total])
        for j in range(width):
            columns.append([theta.local[j][i] for i in range(gp)])
        offset += width
    matrix = [[columns[c][i] for c in range(total)] for i in range(gp)]
    source = cone_complex(total, maximal)
    return Firmament(complex_map(source, target, matrix))


def firmament_member(gamma: Firmament, n) -> bool:
    """Exact membership: does some lattice point of a source cone map to n?

    Solves n, followed by one 0 for each of the cone's equations, against
    each of ``gamma.systems`` in turn, so the Smith forms and recession
    splits of a cone's integer program are found once per firmament, not
    once per point.  A cone's equations are solved with its chart rows, in
    the lattice step, so a cone whose chart is injective on its span takes
    no search.  Each solve gets the whole node budget of
    :func:`~logfirm.intlinalg.ilp_budget`."""
    coords = list(n.coordinates) if isinstance(n, IntegralPoint) else list(n)
    return any(system.solve(coords + [0] * k) is not None
               for system, k in gamma.systems)


def firmament_enumerate_box(gamma: Firmament, bound: int) -> set[IntegralPoint]:
    return {pt for pt in lattice_points_box(gamma.map.target, bound)
            if firmament_member(gamma, pt)}


def contact_order(p: AffineMonoid, vals) -> ContactOrder:
    """The integral point of the dual cone of p determined by prescribing
    valuations on the Hilbert generators (vals: mapping generator -> N, or a
    sequence aligned with p.hilbert).  Raises ValueError for a mapping with
    a key that is not a tuple of ints naming a Hilbert generator, or with
    no value for some generator."""
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
        values = [vals[h] for h in hb]
    else:
        values = list(vals)
    if any(v < 0 for v in values):
        raise NotAdditive("valuations must be nonnegative")
    rows = [list(p.coords(h)) for h in hb]
    target = dual_cone_complex(p)
    if p.group_rank == 0:
        return ContactOrder(point(target, ()))
    sol = solve_lattice(rows, values)
    if sol is None:
        raise NotAdditive(
            "the prescribed valuations violate a relation among generators")
    return ContactOrder(point(target, sol.particular))


def lies_in_firmament(gamma: Firmament, c: ContactOrder) -> bool:
    """Whether the monogenic set of multiples of the contact order sits in
    the firmament; by scaling-stability this is membership of the generator."""
    return firmament_member(gamma, c.point)
