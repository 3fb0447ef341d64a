"""Fine saturated monoids and their homomorphisms.

An affine monoid is stored as (cone generated by its generators) intersected
with (the subgroup generated by them, or an explicitly supplied subgroup cut
down to their span) in an ambient lattice Z^d.  All structural computation
happens in "local" coordinates on the group: the group basis is a
Hermite-form lattice basis, and cones, facets, and Hilbert bases live in Z^g
where g is the group rank.  Duals, copies in group coordinates and faces are
read off the monoid's cone record; one routine, ``_face``, builds every face.
Every quotient (sharpening, localization, the group of an fs pushout) is
read off one Smith form, by :func:`~logfirm.intlinalg.lattice_quotient`.

A homomorphism is a map of groups that carries the source monoid into the
target monoid, stored as its matrix on group coordinates; an integer matrix
on the ambient lattices is only one way to present it, and need not exist.
The searches in this module (retraction, factorization, pushout saturation
probes) are complete: each asks whether a vector is the image of a lattice
point of a cone, an exact integer program
(:class:`~logfirm.intlinalg.ConeImage`).
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass, field

from .intlinalg import (
    Cone,
    ConeImage,
    Vec,
    dual_description,
    face_closure,
    identity,
    in_row_lattice,
    int_at_least,
    int_rows,
    int_vector,
    kernel_and_cokernel,
    lattice_quotient,
    mat_mul,
    mat_vec,
    row_lattice_basis,
    scaled_solution,
    smith_normal_form,
    solve_lattice,
    transpose,
    vec_add,
    vec_sub,
    dot,
)


class NotSharp(Exception):
    """The operation requires a sharp monoid (pointed cone, trivial units)."""


class NotAFace(Exception):
    """The supplied face does not belong to the monoid."""


# ---------------------------------------------------------------------------
# AffineMonoid


@dataclass(frozen=True)
class AffineMonoid:
    """Equality compares the group and the cone's rays and facets, which
    are canonical for the monoid as a set: two generator lists of one monoid
    give equal records."""

    ambient_rank: int
    generators: tuple[Vec, ...] = field(compare=False)
    group_basis: tuple[Vec, ...]       # Hermite-form rows spanning the group
    cone: Cone                         # in group coords; no rays if not sharp

    @property
    def sharp(self) -> bool:
        """Only 0 is a unit: true iff the group is 0 or the cone has rays."""
        return not self.group_basis or bool(self.cone.rays)

    @functools.cached_property
    def hilbert_local(self) -> tuple[Vec, ...] | None:
        """Hilbert basis in group coordinates, or None when not sharp;
        computed when first read.  Sorted, which is also the order of
        ``hilbert``: the group basis is echelon with positive pivots, so
        ``ambient`` keeps the lexicographic order, and an index names the
        same element in both."""
        if not self.sharp:
            return None
        return _hilbert_basis_local(self.cone)

    # -- coordinates ------------------------------------------------------

    @property
    def group_rank(self) -> int:
        return len(self.group_basis)

    def coords(self, v) -> Vec | None:
        """Group coordinates of an ambient vector, or None if outside the group."""
        return in_row_lattice(self.group_basis, v)

    def ambient(self, c) -> Vec:
        """Ambient vector of group coordinates."""
        out = [0] * self.ambient_rank
        for ci, row in zip(c, self.group_basis):
            out = [a + ci * b for a, b in zip(out, row)]
        return tuple(out)

    # -- membership and basic structure ------------------------------------

    def contains(self, v) -> bool:
        c = self.coords(v)
        return c is not None and self.cone.contains(c)

    @property
    def hilbert(self) -> tuple[Vec, ...]:
        """Hilbert basis in ambient coordinates (sharp monoids only)."""
        if self.hilbert_local is None:
            raise NotSharp("Hilbert basis is defined for sharp monoids only")
        return tuple(self.ambient(h) for h in self.hilbert_local)

    # a property, not cached: CPython's shared instance-dict keys have room
    # for few late names, and each monoid past that gets a dict of its own
    @property
    def local_generators(self) -> tuple[Vec, ...]:
        """Group coordinates of a generating set of the monoid: the Hilbert
        basis when sharp, else ``generating_set``.  The given generators of
        a non-sharp monoid generate its cone but need not generate it."""
        if self.sharp:
            return self.hilbert_local
        return tuple(self.coords(v) for v in self.generating_set())

    def generating_set(self) -> tuple[Vec, ...]:
        """An ambient generating set: Hilbert basis when sharp, else Hilbert
        generators of the sharpening lifted to the monoid plus a +-basis of
        the unit group."""
        if self.sharp:
            return self.hilbert
        sharp_m, proj = sharpen(self)
        out = []
        for h in sharp_m.hilbert_local:
            # two solutions of proj(c) = h differ by a unit, on which every
            # facet vanishes, so each one lies in the monoid
            sol = solve_lattice(proj.local, h, self.group_rank)
            if sol is None:
                raise ValueError("sharpening lift unexpectedly infeasible")
            out.append(self.ambient(sol.particular))
        for u in self.unit_basis():
            out.append(u)
            out.append(tuple(-x for x in u))
        return tuple(sorted(set(out)))

    def unit_basis(self) -> tuple[Vec, ...]:
        """Ambient basis of the group of units (lineality of the cone): the
        kernel of the facets, all of the group when there are none."""
        lin = kernel_and_cokernel(self.cone.facets, self.group_rank).kernel_basis
        return tuple(self.ambient(b) for b in lin)


# saturate's table of shared records: weak, so it keeps alive no monoid that
# every caller has dropped
_SATURATED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def saturate(ambient_rank: int, generators, group=None) -> AffineMonoid:
    """The fs monoid cone(generators) intersected with the subgroup generated
    by them, or with an explicitly supplied subgroup; the monoid's group is
    then the supplied one cut down to the span of the generators.
    Idempotent.  Raises ValueError unless ``ambient_rank`` is an int >= 0,
    when a generator or a group row is not ``ambient_rank`` integers (no
    bool or float), or when a generator lies outside the supplied group, the
    zero group included.

    Records are shared (hash-consed): while a caller keeps the result, a
    call with the same ambient rank, the same generators in the same order
    and the same group rows (or None), as lists or tuples alike,
    returns that very record, with whatever it has cached, such as its
    Hilbert basis.  A record built directly by ``AffineMonoid(...)`` is not
    shared."""
    int_at_least(ambient_rank, "rank")
    gens = tuple(int_vector(v, ambient_rank, "generators row") for v in generators)
    if group is not None:
        group = tuple(int_vector(v, ambient_rank, "group row") for v in group)
    key = (ambient_rank, gens, group)
    m = _SATURATED.get(key)
    if m is None:
        m = _SATURATED[key] = _saturate(
            ambient_rank, tuple(v for v in gens if any(v)), group)
    return m


def _saturate(ambient_rank: int, gens: tuple[Vec, ...], group) -> AffineMonoid:
    """``saturate`` on checked nonzero generators, without the table."""
    basis = tuple(row_lattice_basis(gens if group is None else group))
    g = len(basis)
    gens_local = []
    for v in gens:
        c = in_row_lattice(basis, v)
        if c is None:
            raise ValueError("generator outside the supplied group")
        gens_local.append(c)
    dd = dual_description(gens_local, g)
    if dd.equations:
        # the generators span less than the supplied group: the monoid's
        # group is the part of it in their span
        return _saturate(ambient_rank, gens,
                         [mat_vec(transpose(basis), c) for c in dd.span_basis])
    return AffineMonoid(ambient_rank, gens, basis, dd)


def _hilbert_basis_local(cone: Cone) -> tuple[Vec, ...]:
    """Hilbert basis of a pointed full-dimensional cone.

    Candidates are the lattice points of the zonotope spanned by the extreme
    rays (every irreducible element lies in the fundamental parallelepiped of
    some simplicial subcone); irreducibles are extracted by a graded greedy
    pass.
    """
    rays, facets, g = cone.rays, cone.facets, cone.ambient_rank
    lo = [sum(min(0, r[j]) for r in rays) for j in range(g)]
    hi = [sum(max(0, r[j]) for r in rays) for j in range(g)]
    candidates = []
    for pt in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        if not any(pt):
            continue
        if all(dot(f, pt) >= 0 for f in facets):
            candidates.append(pt)
    degree = {pt: sum(dot(f, pt) for f in facets) for pt in candidates}
    candidates.sort(key=lambda p: (degree[p], p))
    basis: list[Vec] = []
    for pt in candidates:
        # the candidates are distinct, so pt - h is never zero
        if not any(all(dot(f, vec_sub(pt, h)) >= 0 for f in facets)
                   for h in basis):
            basis.append(pt)
    return tuple(sorted(basis))


def in_group_coordinates(m: AffineMonoid) -> AffineMonoid:
    """Isomorphic copy of m whose ambient lattice is its own group, so that
    its group coordinates and its ambient coordinates agree."""
    g = m.group_rank
    gens = tuple(c for c in map(m.coords, m.generators) if c is not None)
    return AffineMonoid(g, gens, tuple(map(tuple, identity(g))), m.cone)


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True, init=False)
class MonoidHom:
    """A monoid hom, defined by ``local``: its g_target x g_source matrix on
    group coordinates (ints, else ValueError).

    ``MonoidHom(source, target, matrix)`` takes an integer ambient matrix
    (target ambient x source ambient ints, else ValueError); the library's
    constructions pass ``local=`` instead.  ``matrix`` is a presentation:
    the given matrix, or an integer ambient matrix inducing the hom, or None
    when none exists (the source group a proper sublattice, as for 2N in Z).
    """

    source: AffineMonoid
    target: AffineMonoid
    local: tuple[Vec, ...]

    def __init__(self, source: AffineMonoid, target: AffineMonoid,
                 matrix=None, *, local=None):
        if local is None:
            matrix = int_rows(matrix, target.ambient_rank, source.ambient_rank, "matrix")
            cols = [target.coords(mat_vec(matrix, b)) for b in source.group_basis]
            if None in cols:
                raise ValueError(
                    "hom does not carry the source group into the target group")
            local = [[c[i] for c in cols] for i in range(target.group_rank)]
            object.__setattr__(self, "matrix", matrix)
        local = int_rows(local, target.group_rank, source.group_rank, "hom")
        def lands(c):
            return target.cone.contains(mat_vec(local, c))

        # a group map that sends generators of the source cone into the
        # saturated target sends the whole source there: for a sharp source
        # its extreme rays, else the given generators (local_generators of a
        # source that is not sharp would call sharpen, whose projection this
        # constructor builds).  A sharp source is reported by its first
        # Hilbert element that fails; an extreme ray is one, so one fails
        if source.sharp:
            bad = (None if all(lands(c) for c in source.cone.rays)
                   else next(c for c in source.hilbert_local if not lands(c)))
        else:
            bad = next((c for c in map(source.coords, source.generators)
                        if not lands(c)), None)
        if bad is not None:
            raise ValueError(f"{'hom' if matrix is None else 'matrix'} does "
                             f"not map generator {source.ambient(bad)} into "
                             "the target monoid")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "local", local)

    @functools.cached_property
    def matrix(self) -> tuple[Vec, ...] | None:
        """An integer ambient matrix inducing this hom, or None."""
        source, target = self.source, self.target
        images = [target.ambient([row[j] for row in self.local])
                  for j in range(source.group_rank)]
        # the group basis has full row rank, so row i of the matrix solves
        # B*w = images_i exactly when it needs no scaling
        snf = smith_normal_form(source.group_basis, source.ambient_rank)
        rows = []
        for i in range(target.ambient_rank):
            t, w = scaled_solution(snf, [image[i] for image in images])
            if t != 1:
                return None
            rows.append(w)
        return tuple(rows)

    def apply(self, v) -> Vec:
        c = self.source.coords(v)
        if c is None:
            raise ValueError(f"{tuple(v)} is outside the source group")
        return self.target.ambient(mat_vec(self.local, c))

    def compose(self, inner: "MonoidHom") -> "MonoidHom":
        """self o inner.  Raises ValueError unless inner ends at self's
        source."""
        if inner.target != self.source:
            raise ValueError("composite homs must meet at one monoid")
        cols = range(inner.source.group_rank)
        local = [[sum(a * b[j] for a, b in zip(row, inner.local)) for j in cols]
                 for row in self.local]
        return MonoidHom(inner.source, self.target, local=local)

    def equal_on_source(self, other: "MonoidHom") -> bool:
        """Whether other agrees with self on self's source; both are read in
        the group coordinates of self's source."""
        return all(self.target.ambient(mat_vec(self.local, c))
                   == other.target.ambient(mat_vec(other.local, c))
                   for c in self.source.local_generators)


def identity_hom(m: AffineMonoid) -> MonoidHom:
    return MonoidHom(m, m, local=identity(m.group_rank))


def is_local(h: MonoidHom) -> bool:
    """True iff h^{-1}(0) = {0}; the target must be sharp."""
    return not _killed_rays(h) and h.source.sharp


def _killed_rays(h: MonoidHom) -> list[Vec]:
    """The extreme rays of h's source that h sends to 0.  Over a sharp
    target h^{-1}(0) is a face, spanned by them when the source is sharp."""
    if not h.target.sharp:
        raise NotSharp("h^{-1}(0) is a face only when the target is sharp")
    return [c for c in h.source.cone.rays if not any(mat_vec(h.local, c))]


# ---------------------------------------------------------------------------
# faces and localization


@dataclass(frozen=True)
class Face:
    """A face of a sharp monoid.  ``normal`` is the smallest positive integer
    multiple, realizable in the ambient lattice, of the sum of the facets
    that vanish on the face: it is >= 0 on the monoid and vanishes exactly
    on the face."""

    generator_subset: tuple[int, ...]  # indices into the Hilbert basis
    normal: Vec                        # supporting ambient functional


def faces(m: AffineMonoid) -> list[Face]:
    """The face lattice of a sharp monoid, {0} to m, from its cone's incidence."""
    tight = m.cone.incidence
    snf = smith_normal_form(m.group_basis, m.ambient_rank)
    out = [_face(m, [j for j, t in enumerate(tight) if on_face <= t], snf=snf)
           for on_face in face_closure(tight, len(m.cone.rays))]
    out.sort(key=lambda f: (len(f.generator_subset), f.generator_subset))
    return out


def zero_face(m: AffineMonoid) -> Face:
    """The face {0} of a sharp monoid, ``faces(m)[0]``, read off the facets
    alone: every facet vanishes on it, and no Hilbert element lies in it."""
    return _face(m, range(len(m.cone.facets)), subset=())


def _zero_preimage_face(h: MonoidHom) -> Face:
    """The face h^{-1}(0) of the sharp source of h: the one cut out by the
    facets vanishing on every extreme ray h sends to 0."""
    q = h.source
    killed = _killed_rays(h)
    face = _face(q, [j for j, f in enumerate(q.cone.facets)
                     if all(dot(f, c) == 0 for c in killed)])
    if face.generator_subset != tuple(i for i, c in enumerate(q.hilbert_local)
                                      if not any(mat_vec(h.local, c))):
        raise AssertionError("kernel of a monoid hom must be a face")
    return face


def _face(m: AffineMonoid, vanishing, subset=None, snf=None) -> Face:
    """The face of m cut out by the facets ``vanishing``: its Hilbert elements
    (``subset``, if known) and its normal, the least t >= 1 with <w, b_i> =
    t * lam_i on the group basis (Smith form ``snf``), lam the facets' sum."""
    if not m.sharp:
        raise NotSharp("faces are enumerated for sharp monoids only")
    facets = m.cone.facets
    if subset is None:
        subset = tuple(i for i, c in enumerate(m.hilbert_local)
                       if all(dot(facets[j], c) == 0 for j in vanishing))
    lam = [sum(facets[i][j] for i in vanishing) for j in range(m.group_rank)]
    snf = snf or smith_normal_form(m.group_basis, m.ambient_rank)
    return Face(subset, scaled_solution(snf, lam)[1])


def face_localization(m: AffineMonoid, f: Face) -> tuple[AffineMonoid, MonoidHom]:
    """Quotient of m by the subgroup spanned by the face; the image is
    saturated and sharp.  Returns (localized monoid, projection hom).
    Raises NotAFace when f is not a face of m."""
    if not m.sharp:
        raise NotSharp("localization implemented for sharp monoids")
    hb = m.hilbert
    for idx in f.generator_subset:
        if idx >= len(hb):
            raise NotAFace("generator index out of range")
    on_face = {idx for idx, h in enumerate(hb) if dot(f.normal, h) == 0}
    if set(f.generator_subset) != on_face:
        raise NotAFace("normal does not support the claimed generator subset")
    for h in hb:
        if dot(f.normal, h) < 0:
            raise NotAFace("normal is not supporting")
    span_gens = [hb[i] for i in f.generator_subset]
    if not span_gens:
        return m, identity_hom(m)
    return _quotient(m, span_gens)


def sharpen(m: AffineMonoid) -> tuple[AffineMonoid, MonoidHom]:
    """Quotient by the unit group: returns (sharp monoid, projection hom)."""
    if m.sharp:
        return m, identity_hom(m)
    return _quotient(m, m.unit_basis())


def _quotient(m: AffineMonoid, vectors) -> tuple[AffineMonoid, MonoidHom]:
    """Image of m modulo the saturation of the span of ``vectors``, with the
    projection hom: the free coordinates of :func:`lattice_quotient`."""
    proj, _ = lattice_quotient(vectors, m.ambient_rank)
    target = saturate(len(proj), [mat_vec(proj, g) for g in m.generators],
                      group=[mat_vec(proj, b) for b in m.group_basis])
    return target, MonoidHom(m, target, proj)


# ---------------------------------------------------------------------------
# duality


def dual(m: AffineMonoid) -> AffineMonoid:
    """Hom(m, N) as an affine monoid in the dual lattice of gp(m): m's cone
    spans gp(m) and is pointed, so its record, transposed, is the dual's."""
    if not m.sharp:
        raise NotSharp("dual is defined for sharp monoids")
    c, g = m.cone, m.group_rank
    return AffineMonoid(g, c.facets, tuple(map(tuple, identity(g))),
                        Cone(g, c.facets, c.rays, c.ray_facets))


# ---------------------------------------------------------------------------
# fs pushout


@dataclass(frozen=True)
class PushoutResult:
    free_rank: int
    torsion_orders: tuple[int, ...]
    amalgam_generators: tuple[tuple[Vec, Vec], ...]  # (torsion part, free part)
    saturation_free: AffineMonoid   # saturation of the free projection
    leg2_source: AffineMonoid       # Q2
    leg2_free: tuple[Vec, ...]      # Q2 -> saturation_free, group coordinates

    @functools.cached_property
    def _sharpening(self) -> tuple[AffineMonoid, MonoidHom]:
        return sharpen(self.saturation_free)

    @functools.cached_property
    def characteristic(self) -> AffineMonoid:
        """The sharpening of the saturation, built when first read."""
        return self._sharpening[0]

    @functools.cached_property
    def leg2(self) -> MonoidHom:
        """The leg Q2 -> characteristic, built when first read: leg2_free
        followed by the sharpening's projection."""
        return MonoidHom(self.leg2_source, self.characteristic,
                         local=mat_mul(self._sharpening[1].local, self.leg2_free))

    @functools.cached_property
    def _amalgam(self) -> ConeImage:
        """The integral amalgam as the image of one cone's lattice points,
        asked about every group element: n >= 0 coefficients on the
        amalgam generators and one free multiple of each torsion order,
        summing to the element (σ = N^n × Z^t)."""
        gens, orders = self.amalgam_generators, self.torsion_orders
        n, t = len(gens), len(orders)
        return ConeImage(
            [[free[i] for _, free in gens] + [0] * t
             for i in range(self.free_rank)]
            + [[tor[j] for tor, _ in gens] + [d * x for x in e]
               for j, (d, e) in enumerate(zip(orders, identity(t)))],
            identity(n + t)[:n], n + t)

    def amalgam_contains(self, torsion_part, free_part) -> bool:
        """Exact membership of a group element in the integral amalgam."""
        return (self._amalgam.preimage(list(free_part) + list(torsion_part))
                is not None)

    def saturation_generators(self):
        """Group elements generating the saturation as a monoid."""
        t = len(self.torsion_orders)
        zero_t = tuple([0] * t)
        out = []
        for v in self.saturation_free.generating_set():
            out.append((zero_t, v))
        zero_f = tuple([0] * self.free_rank)
        for j in range(t):
            out.append((tuple(1 if jj == j else 0 for jj in range(t)), zero_f))
        return out

    def amalgam_equals_saturation(self):
        """None when equal; otherwise a witness element of saturation \\ amalgam."""
        for tor, free in self.saturation_generators():
            if not self.amalgam_contains(tor, free):
                return (tor, free)
        return None


def fs_pushout(f: MonoidHom, g: MonoidHom) -> PushoutResult:
    """Pushout of Q1 <- P -> Q2 in fs monoids.

    The group is Z^{g1+g2} modulo the relations (f(p), -g(p)), with free
    and torsion coordinates read off one Smith form (:func:`lattice_quotient`).
    The saturation equals (saturation of the free projection of the amalgam)
    plus the full torsion subgroup.
    The result holds the leg from Q2, the one firmness reads, as its map
    into the saturation; the leg from Q1 is the same map on the first g1
    group coordinates.  The characteristic and the leg Q2 -> characteristic
    share one sharpening, made when either is first read.
    """
    if f.source != g.source:
        raise ValueError("pushout legs must share their source")
    p = f.source
    q1, q2 = f.target, g.target
    g1, g2 = q1.group_rank, q2.group_rank
    relations = [mat_vec(f.local, c) + tuple(-x for x in mat_vec(g.local, c))
                 for c in p.local_generators]
    free_rows, torsion = lattice_quotient(relations, g1 + g2)
    free_rank = len(free_rows)

    def generator_images(q, lo):
        hi = lo + q.group_rank
        return [(tuple(dot(row[lo:hi], c) % dv for row, dv in torsion),
                 tuple(dot(row[lo:hi], c) for row in free_rows))
                for c in q.local_generators]

    amalgam = generator_images(q1, 0) + generator_images(q2, g1)
    # the group of the pushout projects onto all of Z^free_rank, so there the
    # saturation's group coordinates are its ambient coordinates
    sat_free = saturate(free_rank, [free for _, free in amalgam],
                        group=identity(free_rank))
    return PushoutResult(
        free_rank=free_rank,
        torsion_orders=tuple(dv for _, dv in torsion),
        amalgam_generators=tuple(amalgam),
        saturation_free=sat_free,
        leg2_source=q2,
        leg2_free=tuple(tuple(row[g1:]) for row in free_rows),
    )


# ---------------------------------------------------------------------------
# factorization / retraction search


def find_factorization(theta: MonoidHom, psi: MonoidHom) -> MonoidHom | None:
    """Some h: Q -> R with h o theta = psi, or None (complete decision).

    The unknown is the induced matrix on group coordinates; constraints are
    the composite equalities on P's Hilbert generators plus cone membership
    of the images of Q's extreme rays.  R is saturated, so a group map that
    sends the extreme rays of Q into R's cone sends all of Q into R.
    """
    p, q, r = theta.source, theta.target, psi.target
    if psi.source != p:
        raise ValueError("theta and psi must share their source")
    if not (p.sharp and q.sharp and r.sharp):
        raise NotSharp("factorization search requires sharp monoids")
    gq, gr = q.group_rank, r.group_rank
    # H[i][j] is unknown i * gq + j: the row of (H u)_i is e_i (x) u, and
    # that of <fct, H u> is fct (x) u
    images = [(mat_vec(theta.local, c), mat_vec(psi.local, c))
              for c in p.hilbert_local]
    eq = [[x if k == i else 0 for k in range(gr) for x in u]
          for u, _ in images for i in range(gr)]
    ineq = [[a * x for a in fct for x in u]
            for u in q.cone.rays for fct in r.cone.facets]
    sol = ConeImage(eq, ineq, gr * gq).preimage([x for _, w in images for x in w])
    if sol is None:
        return None
    return MonoidHom(q, r, local=[sol[i * gq:(i + 1) * gq] for i in range(gr)])


def find_retraction(theta: MonoidHom) -> MonoidHom | None:
    """Some t: Q -> P with t o theta = id_P, or None (complete decision)."""
    return find_factorization(theta, identity_hom(theta.source))


# ---------------------------------------------------------------------------
# integrality / saturation semi-decisions


@dataclass(frozen=True)
class SemiDecision:
    verdict: str           # "no" | "probably_yes"
    bound: int
    witness: object = None

    def __bool__(self):
        return self.verdict == "probably_yes"


def _elements_up_to_degree(m: AffineMonoid, bound: int) -> list[Vec]:
    """All monoid elements expressible as sums of at most ``bound`` Hilbert
    generators, in group coordinates and sorted: the order of their ambient
    vectors too, as for ``hilbert_local``."""
    current = {(0,) * m.group_rank}
    seen = set(current)
    for _ in range(bound):
        current = {vec_add(v, h) for v in current for h in m.hilbert_local} - seen
        seen |= current
        if not current:
            break
    return sorted(seen)


def is_integral(theta: MonoidHom, bound: int = 6) -> SemiDecision:
    """Bounded search for a violation of the integrality quadruple condition.

    theta is integral iff whenever theta(a1)+b1 = theta(a2)+b2 there are
    a3, a4 in P and b in Q with b1 = theta(a3)+b, b2 = theta(a4)+b and
    a1+a3 = a2+a4.  "no" is sound; "probably_yes" records the bound.
    """
    p, q = theta.source, theta.target
    if not (p.sharp and q.sharp):
        raise NotSharp("integrality check requires sharp monoids")
    gp, gq = p.group_rank, q.group_rank
    # unknowns (a3, a4, b) in group coordinates, one matrix for every
    # quadruple: theta(a3) + b = b1, theta(a4) + b = b2, a3 - a4 = a2 - a1
    zp, zq = [0] * gp, [0] * gq
    blocks = list(zip(theta.local, identity(gq)))
    system = ConeImage(
        [list(row) + zp + e for row, e in blocks]
        + [zp + list(row) + e for row, e in blocks]
        + [e + [-x for x in e] + zq for e in identity(gp)],
        [list(f) + zp + zq for f in p.cone.facets]
        + [zp + list(f) + zq for f in p.cone.facets]
        + [zp + zp + list(f) for f in q.cone.facets], 2 * gp + gq)
    p_elts = _elements_up_to_degree(p, bound)
    q_elts = _elements_up_to_degree(q, bound)
    image = {a: mat_vec(theta.local, a) for a in p_elts}
    checked = set()
    for a1, a2 in itertools.product(p_elts, repeat=2):
        for b1 in q_elts:
            b2 = vec_sub(vec_add(image[a1], b1), image[a2])
            if not q.cone.contains(b2):
                continue
            key = tuple(sorted([(a1, b1), (a2, b2)]))
            if key in checked:
                continue
            checked.add(key)
            if (a1, b1) == (a2, b2):
                continue
            if system.preimage(b1 + b2 + vec_sub(a2, a1)) is None:
                return SemiDecision("no", bound, witness=(
                    p.ambient(a1), p.ambient(a2), q.ambient(b1), q.ambient(b2)))
    return SemiDecision("probably_yes", bound)


def is_saturated(theta: MonoidHom, bound: int = 6) -> SemiDecision:
    """Probe fs pushouts of theta against Kummer covers k*phi (phi a dual
    generator, k <= bound) and against theta itself; report "no" with a
    witness element whose saturation strictly exceeds the amalgam."""
    p = theta.source
    if not p.sharp:
        raise NotSharp("saturation check requires a sharp source")
    probes: list[MonoidHom] = [theta]
    n_monoid = saturate(1, [(1,)])
    # dual(p) lives on the group coordinates of p
    for phi in dual(p).hilbert:
        for k in range(1, bound + 1):
            probes.append(MonoidHom(p, n_monoid,
                                    local=[[k * x for x in phi]]))
    for probe in probes:
        result = fs_pushout(theta, probe)
        witness = result.amalgam_equals_saturation()
        if witness is not None:
            return SemiDecision("no", bound, witness=witness)
    return SemiDecision("probably_yes", bound)
