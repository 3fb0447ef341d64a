"""Fine saturated monoids and their homomorphisms.

An affine monoid is stored as (cone generated by its generators) intersected
with (the subgroup generated by them, or an explicitly supplied subgroup cut
down to their span) in an ambient lattice Z^d.  All structural computation
happens in "local" coordinates on the group: the group basis is a
Hermite-form lattice basis, and cones, facets, and Hilbert bases live in Z^g
where g is the group rank.

A homomorphism is a map of groups that carries the source monoid into the
target monoid, stored as its matrix on group coordinates; an integer matrix
on the ambient lattices is only one way to present it, and need not exist.
The searches in this module (retraction, factorization, pushout saturation
probes) are complete: they reduce to exact integer feasibility problems.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .intlinalg import (
    DEFAULT_ILP_BUDGET,
    Vec,
    dual_description,
    face_lattice,
    hermite_normal_form,
    identity,
    ilp_feasible,
    in_row_lattice,
    kernel_and_cokernel,
    mat_inverse_unimodular,
    mat_mul,
    mat_vec,
    rational_inverse,
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
    ambient_rank: int
    generators: tuple[Vec, ...]
    group_basis: tuple[Vec, ...]       # Hermite-form rows spanning the group
    facets_local: tuple[Vec, ...]      # dual cone generators, group coords
    rays_local: tuple[Vec, ...]        # extreme rays, group coords; () if not sharp
    sharp: bool
    # None when not sharp.  Sorted, which is also the order of ``hilbert``:
    # the group basis is echelon with positive pivots, so ``ambient`` keeps
    # the lexicographic order, and an index names the same element in both
    hilbert_local: tuple[Vec, ...] | None

    # -- coordinates ------------------------------------------------------

    @property
    def group_rank(self) -> int:
        return len(self.group_basis)

    def coords(self, v) -> Vec | None:
        """Group coordinates of an ambient vector, or None if outside the group."""
        if self.group_rank == 0:
            return () if not any(v) else None
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
        if c is None:
            return False
        return all(dot(f, c) >= 0 for f in self.facets_local)

    @property
    def hilbert(self) -> tuple[Vec, ...]:
        """Hilbert basis in ambient coordinates (sharp monoids only)."""
        if self.hilbert_local is None:
            raise NotSharp("Hilbert basis is defined for sharp monoids only")
        return tuple(self.ambient(h) for h in self.hilbert_local)

    @functools.cached_property
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
            sol = solve_lattice(proj.local, h)
            if sol is None:
                raise ValueError("sharpening lift unexpectedly infeasible")
            out.append(self.ambient(sol.particular))
        for u in self.unit_basis():
            out.append(u)
            out.append(tuple(-x for x in u))
        return tuple(sorted(set(out)))

    def unit_basis(self) -> tuple[Vec, ...]:
        """Ambient basis of the group of units (lineality of the cone)."""
        if not self.facets_local:
            # no facet constraints: every group element is a unit
            lin = [tuple(row) for row in identity(self.group_rank)]
        else:
            lin = kernel_and_cokernel([list(f) for f in self.facets_local]).kernel_basis
        return tuple(self.ambient(b) for b in lin)

    def canonical_key(self):
        """Deterministic identity for sharp monoids: group rank plus the
        lexicographically sorted local Hilbert basis."""
        if self.hilbert_local is None:
            raise NotSharp("canonical form is defined for sharp monoids only")
        return (self.group_rank, tuple(sorted(self.hilbert_local)))


def e_j(n: int, j: int) -> Vec:
    return tuple(1 if i == j else 0 for i in range(n))


def saturate(ambient_rank: int, generators, group=None) -> AffineMonoid:
    """The fs monoid cone(generators) intersected with the subgroup generated
    by them, or with an explicitly supplied subgroup; the monoid's group is
    then the supplied one cut down to the span of the generators.
    Idempotent."""
    gens = [tuple(g) for g in generators if any(g)]
    if group is not None:
        basis = row_lattice_basis([tuple(r) for r in group], ambient_rank)
    else:
        basis = row_lattice_basis(gens, ambient_rank)
    basis = tuple(tuple(r) for r in basis)
    g = len(basis)
    if g == 0 or not gens:
        return AffineMonoid(ambient_rank, tuple(gens), (), (), (), True, ())
    gens_local = []
    for v in gens:
        c = in_row_lattice(basis, v)
        if c is None:
            raise ValueError("generator outside the supplied group")
        gens_local.append(c)
    dd = dual_description(gens_local, g)
    if any(tuple(-x for x in f) in dd.facets for f in dd.facets):
        # the generators span less than the supplied group (the facets hold
        # a line): the monoid's group is the part of it in their span
        span = _saturated_span(gens_local, g)
        return saturate(ambient_rank, gens,
                        group=[mat_vec(transpose(basis), c) for c in span])
    # the cone spans the group, so it has extreme rays exactly when sharp
    pointed = bool(dd.rays)
    hilbert = _hilbert_basis_local(dd.rays, dd.facets, g) if pointed else None
    return AffineMonoid(ambient_rank, tuple(gens), basis, dd.facets, dd.rays,
                        pointed, hilbert)


def _hilbert_basis_local(rays, facets, g: int) -> tuple[Vec, ...]:
    """Hilbert basis of a pointed full-dimensional cone in Z^g, g >= 1.

    Candidates are the lattice points of the zonotope spanned by the extreme
    rays (every irreducible element lies in the fundamental parallelepiped of
    some simplicial subcone); irreducibles are extracted by a graded greedy
    pass.
    """
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


def hilbert_basis(m: AffineMonoid) -> list[Vec]:
    """Unique minimal generating set of a sharp affine monoid (ambient
    coordinates, sorted)."""
    if not m.sharp:
        raise NotSharp("monoid contains a line")
    return list(m.hilbert)


def in_group_coordinates(m: AffineMonoid) -> AffineMonoid:
    """Isomorphic copy of m whose ambient lattice is its own group, so that
    its group coordinates and its ambient coordinates agree."""
    g = m.group_rank
    gens = [m.coords(v) for v in m.generators]
    return saturate(g, [c for c in gens if c is not None],
                    group=identity(g))


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True, init=False)
class MonoidHom:
    """A monoid hom, defined by ``local``: its g_target x g_source matrix on
    group coordinates.

    ``MonoidHom(source, target, matrix)`` takes an integer ambient matrix
    (target ambient x source ambient); the library's constructions pass
    ``local=`` instead.  ``matrix`` is a presentation: the given matrix, or
    an integer ambient matrix inducing the hom, or None when none exists
    (the source group a proper sublattice, as for 2N in Z).
    """

    source: AffineMonoid
    target: AffineMonoid
    local: tuple[Vec, ...]

    def __init__(self, source: AffineMonoid, target: AffineMonoid,
                 matrix=None, *, local=None):
        if local is None:
            matrix = tuple(tuple(r) for r in matrix)
            cols = [target.coords(mat_vec(matrix, b)) for b in source.group_basis]
            if None in cols:
                raise ValueError(
                    "hom does not carry the source group into the target group")
            local = [[c[i] for c in cols] for i in range(target.group_rank)]
            object.__setattr__(self, "matrix", matrix)
        # the given generators span the source cone, so a group map that
        # sends them into the saturated target sends the whole source there;
        # local_generators of a source that is not sharp would call sharpen,
        # whose projection this constructor builds
        gens = (source.hilbert_local if source.sharp
                else [source.coords(v) for v in source.generators])
        for c in gens:
            if not all(dot(f, mat_vec(local, c)) >= 0 for f in target.facets_local):
                raise ValueError(f"{'hom' if matrix is None else 'matrix'} does "
                                 f"not map generator {source.ambient(c)} into "
                                 "the target monoid")
        local = tuple(tuple(r) for r in local)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "local", local)

    @functools.cached_property
    def matrix(self) -> tuple[Vec, ...] | None:
        """An integer ambient matrix inducing this hom, or None."""
        source, target = self.source, self.target
        if not source.group_basis:
            return tuple((0,) * source.ambient_rank
                         for _ in range(target.ambient_rank))
        images = [target.ambient([row[j] for row in self.local])
                  for j in range(source.group_rank)]
        # the group basis has full row rank, so row i of the matrix solves
        # B*w = images_i exactly when it needs no scaling
        snf = smith_normal_form(source.group_basis)
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
        """self o inner."""
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
    """True iff h^{-1}(0) = {0}: no nonzero Hilbert generator maps to zero."""
    return all(any(mat_vec(h.local, c)) for c in h.source.local_generators)


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
    """The full face lattice of a sharp monoid, from {0} to m itself."""
    if not m.sharp:
        raise NotSharp("faces are enumerated for sharp monoids only")
    if m.group_rank == 0:
        return [Face((), (0,) * m.ambient_rank)]
    # the normal w has <w, b_i> = t * lam_i on the group basis, t least
    snf = smith_normal_form(m.group_basis)
    out = []
    for on_face, vanishing in face_lattice(m.hilbert_local, m.facets_local).items():
        lam = [sum(m.facets_local[i][j] for i in vanishing)
               for j in range(m.group_rank)]
        out.append(Face(tuple(sorted(on_face)), scaled_solution(snf, lam)[1]))
    out.sort(key=lambda f: (len(f.generator_subset), f.generator_subset))
    return out


def _face_of(m: AffineMonoid, f: Face) -> None:
    """Validate that f is a face of m (raises NotAFace)."""
    hb = m.hilbert if m.sharp else m.generators
    for idx in f.generator_subset:
        if idx >= len(hb):
            raise NotAFace("generator index out of range")
    on_face = {idx for idx, h in enumerate(hb) if dot(f.normal, h) == 0}
    if set(f.generator_subset) != on_face:
        raise NotAFace("normal does not support the claimed generator subset")
    for h in hb:
        if dot(f.normal, h) < 0:
            raise NotAFace("normal is not supporting")


def face_localization(m: AffineMonoid, f: Face) -> tuple[AffineMonoid, MonoidHom]:
    """Quotient of m by the subgroup spanned by the face; the image is
    saturated and sharp.  Returns (localized monoid, projection hom)."""
    if not m.sharp:
        raise NotSharp("localization implemented for sharp monoids")
    _face_of(m, f)
    hb = m.hilbert
    span_gens = [hb[i] for i in f.generator_subset]
    if not span_gens:
        return m, identity_hom(m)
    return _quotient(m, span_gens)


def sharpen(m: AffineMonoid) -> tuple[AffineMonoid, MonoidHom]:
    """Quotient by the unit group: returns (sharp monoid, projection hom)."""
    if m.sharp:
        return m, identity_hom(m)
    return _quotient(m, m.unit_basis())


def _saturated_span(vectors, d: int) -> tuple[Vec, ...]:
    """Basis of the lattice points of Z^d in the span of ``vectors``."""
    ker = kernel_and_cokernel([list(v) for v in vectors]).kernel_basis
    if not ker:
        return tuple(tuple(r) for r in identity(d))
    return kernel_and_cokernel([list(v) for v in ker]).kernel_basis


def _quotient(m: AffineMonoid, vectors) -> tuple[AffineMonoid, MonoidHom]:
    """Image of m modulo the saturation of the span of ``vectors`` (not all
    zero), with the projection hom onto the quotient lattice."""
    d = m.ambient_rank
    sat_span = _saturated_span(vectors, d)
    s = len(sat_span)
    snf = smith_normal_form([list(v) for v in sat_span])
    proj = tuple(tuple(snf.V[i][s + j] for i in range(d)) for j in range(d - s))
    target = saturate(d - s, [mat_vec(proj, g) for g in m.generators],
                      group=[mat_vec(proj, b) for b in m.group_basis])
    return target, MonoidHom(m, target, proj)


# ---------------------------------------------------------------------------
# duality


def dual(m: AffineMonoid) -> AffineMonoid:
    """Hom(m, N) as an affine monoid in the dual lattice of gp(m)."""
    if not m.sharp:
        raise NotSharp("dual is defined for sharp monoids")
    g = m.group_rank
    if g == 0:
        return saturate(0, [])
    return saturate(g, [list(f) for f in m.facets_local], group=identity(g))


def is_isomorphic(m1: AffineMonoid, m2: AffineMonoid) -> bool:
    """Decide isomorphism of sharp monoids by searching unimodular matches
    between Hilbert bases (any isomorphism permutes Hilbert bases)."""
    if not (m1.sharp and m2.sharp):
        raise NotSharp("isomorphism test implemented for sharp monoids")
    if m1.group_rank != m2.group_rank:
        return False
    if m1.canonical_key() == m2.canonical_key():
        return True
    g = m1.group_rank
    hb1 = sorted(m1.hilbert_local)
    hb2 = sorted(m2.hilbert_local)
    if len(hb1) != len(hb2):
        return False
    if g == 0:
        return True
    # pick g linearly independent elements of hb1
    base_idx = _independent_subset(hb1, g)
    if base_idx is None:
        return False
    base = [hb1[i] for i in base_idx]
    for images in itertools.permutations(range(len(hb2)), g):
        targets = [hb2[i] for i in images]
        u = _solve_linear_map(base, targets)
        if u is None:
            continue
        mapped = sorted(tuple(mat_vec(u, h)) for h in hb1)
        if mapped == hb2:
            return True
    return False


def _independent_subset(vectors, g):
    idx = []
    rows = []
    for i, v in enumerate(vectors):
        trial = rows + [list(v)]
        h, _ = hermite_normal_form(trial)
        if sum(1 for r in h if any(r)) == len(trial):
            rows = trial
            idx.append(i)
            if len(idx) == g:
                return idx
    return None


def _solve_linear_map(base, targets):
    """Integer matrix u with u*base_j = targets_j, unimodular, or None."""
    # u = T * B^{-1}, with the base and target vectors as columns
    u = mat_mul(transpose(targets), rational_inverse(transpose(base)))
    if any(x.denominator != 1 for row in u for x in row):
        return None
    out = [[int(x) for x in row] for row in u]
    try:
        mat_inverse_unimodular(out)
    except ValueError:
        return None
    return out


# ---------------------------------------------------------------------------
# fs pushout


@dataclass(frozen=True)
class PushoutResult:
    free_rank: int
    torsion_orders: tuple[int, ...]
    amalgam_generators: tuple[tuple[Vec, Vec], ...]  # (torsion part, free part)
    saturation_free: AffineMonoid   # saturation of the free projection
    characteristic: AffineMonoid    # sharpening of the saturation
    leg1: MonoidHom                 # Q1 -> characteristic
    leg2: MonoidHom                 # Q2 -> characteristic

    def amalgam_contains(self, torsion_part, free_part) -> bool:
        """Exact membership of a group element in the integral amalgam."""
        gens = self.amalgam_generators
        n = len(gens)
        t = len(self.torsion_orders)
        fr = self.free_rank
        num_vars = n + t
        eq, rhs = [], []
        for i in range(fr):
            eq.append([gens[k][1][i] for k in range(n)] + [0] * t)
            rhs.append(free_part[i])
        for j in range(t):
            eq.append([gens[k][0][j] for k in range(n)]
                      + [self.torsion_orders[j] if jj == j else 0 for jj in range(t)])
            rhs.append(torsion_part[j])
        ineq = [[1 if k == i else 0 for k in range(num_vars)] for i in range(n)]
        return ilp_feasible(num_vars, eq, rhs, ineq) is not None

    def saturation_contains(self, torsion_part, free_part) -> bool:
        return self.saturation_free.contains(free_part)

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

    The group is Z^{g1+g2} modulo the relations (f(p), -g(p)); torsion is
    made explicit via Smith normal form.  The saturation equals (saturation
    of the free projection of the amalgam) plus the full torsion subgroup.
    """
    if f.source is not g.source and f.source.generators != g.source.generators:
        raise ValueError("pushout legs must share their source")
    p = f.source
    q1, q2 = f.target, g.target
    g1, g2 = q1.group_rank, q2.group_rank
    m_dim = g1 + g2
    relations = [list(mat_vec(f.local, c)) + [-x for x in mat_vec(g.local, c)]
                 for c in p.local_generators]
    if relations:
        snf = smith_normal_form(relations)
        v_mat = [list(r) for r in snf.V]
        rank = sum(1 for dv in snf.divisors if dv != 0)
        orders = [snf.divisors[i] for i in range(rank)]
    else:
        v_mat = identity(m_dim)
        rank = 0
        orders = []
    torsion_pos = [i for i in range(rank) if orders[i] > 1]
    torsion_orders = tuple(orders[i] for i in torsion_pos)
    free_pos = list(range(rank, m_dim))
    free_rank = len(free_pos)

    def project(x):
        y = [sum(x[i] * v_mat[i][j] for i in range(m_dim)) for j in range(m_dim)]
        tor = tuple(y[i] % orders[i] for i in torsion_pos)
        free = tuple(y[i] for i in free_pos)
        return tor, free

    amalgam = ([project(list(c) + [0] * g2) for c in q1.local_generators]
               + [project([0] * g1 + list(c)) for c in q2.local_generators])
    # the group of the pushout projects onto all of Z^free_rank, so there the
    # saturation's group coordinates are its ambient coordinates
    sat_free = saturate(free_rank, [free for _, free in amalgam],
                        group=identity(free_rank))
    characteristic, sharp_proj = sharpen(sat_free)

    def leg_for(q: AffineMonoid, offset: int) -> MonoidHom:
        cols = [mat_vec(sharp_proj.local, project(e_j(m_dim, offset + j))[1])
                for j in range(q.group_rank)]
        return MonoidHom(q, characteristic, local=[
            [c[i] for c in cols] for i in range(characteristic.group_rank)])

    return PushoutResult(
        free_rank=free_rank,
        torsion_orders=torsion_orders,
        amalgam_generators=tuple(amalgam),
        saturation_free=sat_free,
        characteristic=characteristic,
        leg1=leg_for(q1, 0),
        leg2=leg_for(q2, g1),
    )


# ---------------------------------------------------------------------------
# factorization / retraction search


def find_factorization(theta: MonoidHom, psi: MonoidHom,
                       budget: int = DEFAULT_ILP_BUDGET) -> MonoidHom | None:
    """Some h: Q -> R with h o theta = psi, or None (complete decision).

    The unknown is the induced matrix on group coordinates; constraints are
    the composite equalities on P's Hilbert generators plus cone membership
    of the images of Q's Hilbert generators.
    """
    p, q, r = theta.source, theta.target, psi.target
    if psi.source is not p and psi.source.generators != p.generators:
        raise ValueError("theta and psi must share their source")
    if not (p.sharp and q.sharp and r.sharp):
        raise NotSharp("factorization search requires sharp monoids")
    gq, gr = q.group_rank, r.group_rank
    num_vars = gr * gq  # H[i][j], row-major

    def var(i, j):
        return i * gq + j

    eq, rhs = [], []
    for c in p.hilbert_local:
        u = mat_vec(theta.local, c)   # in Z^gq
        w = mat_vec(psi.local, c)     # in Z^gr
        for i in range(gr):
            row = [0] * num_vars
            for j in range(gq):
                row[var(i, j)] = u[j]
            eq.append(row)
            rhs.append(w[i])
    ineq = []
    for u in q.hilbert_local:
        for fct in r.facets_local:
            row = [0] * num_vars
            for i in range(gr):
                for j in range(gq):
                    row[var(i, j)] += fct[i] * u[j]
            ineq.append(row)
    sol = ilp_feasible(num_vars, eq, rhs, ineq, budget=budget)
    if sol is None:
        return None
    return MonoidHom(q, r, local=[[sol[var(i, j)] for j in range(gq)]
                                  for i in range(gr)])


def find_retraction(theta: MonoidHom,
                    budget: int = DEFAULT_ILP_BUDGET) -> MonoidHom | None:
    """Some t: Q -> P with t o theta = id_P, or None (complete decision)."""
    return find_factorization(theta, identity_hom(theta.source), budget=budget)


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
    generators (ambient coordinates)."""
    gens = m.hilbert
    current = {tuple([0] * m.ambient_rank)}
    seen = set(current)
    for _ in range(bound):
        nxt = set()
        for v in current:
            for h in gens:
                nxt.add(vec_add(v, h))
        nxt -= seen
        seen |= nxt
        current = nxt
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
    p_elts = _elements_up_to_degree(p, bound)
    q_elts = _elements_up_to_degree(q, bound)
    image = {a: theta.apply(a) for a in p_elts}
    gp, gq = p.group_rank, q.group_rank
    facets_p = [list(f) for f in p.facets_local]
    facets_q = [list(f) for f in q.facets_local]
    checked = set()
    for a1, a2 in itertools.product(p_elts, repeat=2):
        ta1, ta2 = image[a1], image[a2]
        for b1 in q_elts:
            b2 = vec_sub(vec_add(ta1, b1), ta2)
            if not q.contains(b2):
                continue
            key = tuple(sorted([(a1, b1), (a2, b2)]))
            if key in checked:
                continue
            checked.add(key)
            if (a1, b1) == (a2, b2):
                continue
            ca1, ca2 = p.coords(a1), p.coords(a2)
            cb1, cb2 = q.coords(b1), q.coords(b2)
            # unknowns: a3 (gp), a4 (gp), b (gq) in group coordinates
            nv = 2 * gp + gq
            eq, rhs = [], []
            for i in range(gq):  # theta(a3) + b = b1
                row = [0] * nv
                for j in range(gp):
                    row[j] = theta.local[i][j]
                row[2 * gp + i] = 1
                eq.append(row)
                rhs.append(cb1[i])
            for i in range(gq):  # theta(a4) + b = b2
                row = [0] * nv
                for j in range(gp):
                    row[gp + j] = theta.local[i][j]
                row[2 * gp + i] = 1
                eq.append(row)
                rhs.append(cb2[i])
            for i in range(gp):  # a1 + a3 = a2 + a4
                row = [0] * nv
                row[i] = 1
                row[gp + i] = -1
                eq.append(row)
                rhs.append(ca2[i] - ca1[i])
            ineq = []
            for f in facets_p:
                ineq.append(list(f) + [0] * (gp + gq))
                ineq.append([0] * gp + list(f) + [0] * gq)
            for f in facets_q:
                ineq.append([0] * (2 * gp) + list(f))
            if ilp_feasible(nv, eq, rhs, ineq) is None:
                return SemiDecision("no", bound, witness=(a1, a2, b1, b2))
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
