"""Exact integer linear algebra.

Normal forms (Smith, Hermite), lattice equation solving, kernel/cokernel
computation, cone duality via the double description method, face lattices
of cones, and a complete integer-feasibility solver.  All arithmetic is on
Python's unbounded integers (or :class:`fractions.Fraction` for intermediate
bounds); nothing here ever rounds.

Matrices are lists of lists of ints, row-major.  Vectors are tuples or
lists of ints; functions return tuples for values meant to be hashable.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm


class ResourceLimit(Exception):
    """Raised when a configured search budget is exhausted.

    Distinct from infeasibility: callers must never treat this as "absent".
    """


DEFAULT_ILP_BUDGET = 200_000

_BUDGET = ContextVar("ilp_budget", default=DEFAULT_ILP_BUDGET)


@contextmanager
def ilp_budget(nodes: int):
    """Give each :func:`ilp_feasible` call and each
    :meth:`IntegerSystem.solve` in the block ``nodes`` nodes, as
    :func:`decimal.localcontext` scopes a precision.  The previous budget,
    ``DEFAULT_ILP_BUDGET`` outside any block, comes back when the block
    ends, also when it ends by :class:`ResourceLimit`."""
    token = _BUDGET.set(nodes)
    try:
        yield
    finally:
        _BUDGET.reset(token)

Vec = tuple[int, ...]
Matrix = list[list[int]]


# ---------------------------------------------------------------------------
# small matrix/vector helpers


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_copy(m) -> Matrix:
    return [list(row) for row in m]


def transpose(m) -> Matrix:
    return [list(col) for col in zip(*m)]


def mat_mul(a, b) -> Matrix:
    if not a:
        return []
    inner = len(a[0])
    if inner and len(b) != inner:
        raise ValueError("shape mismatch in mat_mul")
    cols = len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(len(a))
    ]


def mat_vec(m, v) -> Vec:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def vec_add(a, b) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(k, a) -> Vec:
    return tuple(k * x for x in a)


def dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def vec_gcd(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def int_vector(v, width: int, what: str) -> Vec:
    """v as a tuple of ``width`` ints (no bool or float), else ValueError."""
    v = tuple(v)
    if len(v) != width or not all(type(x) is int for x in v):
        raise ValueError(f"{what} {list(v)} needs {width} integer entries")
    return v


def primitive(v) -> Vec:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = vec_gcd(v)
    if g == 0:
        return tuple(v)
    return tuple(x // g for x in v)


def scaled_inverse(m) -> tuple[int, Matrix] | None:
    """(p, W) with W = p·M⁻¹ an integer matrix and p = ±det M, or None when
    the square integer matrix M is singular.

    One fraction-free Gauss-Jordan elimination of [M | I] (Bareiss,
    "Sylvester's identity and multistep integer-preserving Gaussian
    elimination", 1968): each step replaces every other row i by
    (a_kk·row_i − a_ik·row_k) / p_prev, a division that is exact, so every
    entry stays an integer minor.  It ends at [p·I | W].
    """
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if aug[r][k] != 0), None)
        if piv is None:
            return None
        aug[k], aug[piv] = aug[piv], aug[k]
        pk, row_k = aug[k][k], aug[k]
        for i in range(n):
            if i != k:
                a = aug[i][k]
                aug[i] = [(pk * x - a * y) // prev for x, y in zip(aug[i], row_k)]
        prev = pk
    return prev, [row[n:] for row in aug]


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SmithDecomposition:
    U: tuple[Vec, ...]
    V: tuple[Vec, ...]
    divisors: tuple[int, ...]

    @property
    def rank(self) -> int:
        """The rank of M: the number of nonzero divisors."""
        return sum(1 for d in self.divisors if d != 0)


def smith_normal_form(m, cols: int) -> SmithDecomposition:
    """Smith normal form U*M*V = D with a divisibility chain d1 | d2 | ...
    of the matrix M with ``cols`` columns.

    U and V are unimodular; ``divisors`` lists the nonnegative diagonal of D
    up to min(rows, cols), with zero divisors trailing.  A matrix with no
    rows has U = (), V = I and no divisors.
    """
    d = mat_copy(m)
    rows = len(d)
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, k):
        # row_dst += k * row_src
        d[dst] = [a + k * b for a, b in zip(d[dst], d[src])]
        u[dst] = [a + k * b for a, b in zip(u[dst], u[src])]

    def add_col(dst, src, k):
        for row in d:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # locate a nonzero pivot of least absolute value in the submatrix
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                e = d[i][j]
                if e != 0 and (best is None or abs(e) < best):
                    pivot, best = (i, j), abs(e)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # clear column t below the pivot
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    add_row(i, t, -q)
                    if d[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            # clear row t to the right of the pivot
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    add_col(j, t, -q)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the remaining submatrix by the pivot
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if d[i][j] % d[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    divisors = tuple(d[i][i] for i in range(limit))
    return SmithDecomposition(
        U=tuple(tuple(r) for r in u),
        V=tuple(tuple(r) for r in v),
        divisors=divisors,
    )


# ---------------------------------------------------------------------------
# Hermite normal form


def hermite_normal_form(m) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """Row-style Hermite normal form: returns (H, U) with U*M = H.

    H is in row echelon form with positive pivots; entries above each pivot
    are reduced into [0, pivot).  Zero rows trail.
    """
    h = mat_copy(m)
    rows = len(h)
    cols = len(h[0]) if rows else 0
    u = identity(rows)
    r = 0
    for j in range(cols):
        if r == rows:
            break
        # gcd-eliminate column j among rows r..rows-1
        while True:
            nz = [i for i in range(r, rows) if h[i][j] != 0]
            if len(nz) <= 1:
                break
            i0 = min(nz, key=lambda i: abs(h[i][j]))
            for i in nz:
                if i != i0:
                    q = h[i][j] // h[i0][j]
                    h[i] = [a - q * b for a, b in zip(h[i], h[i0])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[i0])]
        nz = [i for i in range(r, rows) if h[i][j] != 0]
        if not nz:
            continue
        i0 = nz[0]
        h[r], h[i0] = h[i0], h[r]
        u[r], u[i0] = u[i0], u[r]
        if h[r][j] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = h[i][j] // h[r][j]
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                u[i] = [a - q * b for a, b in zip(u[i], u[r])]
        r += 1
    return tuple(tuple(row) for row in h), tuple(tuple(row) for row in u)


def row_lattice_basis(vectors) -> list[Vec]:
    """Canonical (HNF) basis of the sublattice spanned by ``vectors``."""
    h, _ = hermite_normal_form([list(v) for v in vectors])
    return [row for row in h if any(row)]


def in_row_lattice(basis, v) -> Vec | None:
    """Coordinates of v in an HNF row basis, or None if v is outside.

    The basis must be in row echelon form with no zero row, as produced by
    :func:`row_lattice_basis`.
    """
    v = list(v)
    coords = []
    for row in basis:
        piv = next(j for j, x in enumerate(row) if x)
        q, rem = divmod(v[piv], row[piv])
        if rem != 0:
            # echelon structure: no later row can fix this coordinate
            return None
        coords.append(q)
        v = [a - q * b for a, b in zip(v, row)]
    if any(v):
        return None
    return tuple(coords)


# ---------------------------------------------------------------------------
# kernel / cokernel / lattice solving


@dataclass(frozen=True)
class KernelCokernel:
    kernel_basis: tuple[Vec, ...]
    free_rank: int
    torsion: tuple[int, ...]


def _kernel(snf: SmithDecomposition) -> tuple[Vec, ...]:
    """Hermite-form basis of the integer kernel: the columns of V past the
    rank, for U*M*V = D."""
    return tuple(row_lattice_basis(list(zip(*snf.V))[snf.rank:]))


def kernel_and_cokernel(m, cols: int) -> KernelCokernel:
    """Integer kernel basis, cokernel free rank, and cokernel torsion of M,
    which has ``cols`` columns.

    M is viewed as a map Z^cols -> Z^rows acting on column vectors; with no
    rows its kernel is all of Z^cols.
    """
    snf = smith_normal_form(m, cols)
    torsion = tuple(dv for dv in snf.divisors if dv > 1)
    return KernelCokernel(_kernel(snf), len(m) - snf.rank, torsion)


def scaled_solution(snf: SmithDecomposition, b) -> tuple[int, Vec]:
    """The least t >= 1 for which M*x = t*b is solvable up to the left
    kernel of M, with the solution x read off the Smith form U*M*V = D.

    Each nonzero divisor d_i must divide t*(U*b)_i, so t is the lcm of the
    d_i / gcd(d_i, (U*b)_i), and x = V*y with y_i = t*(U*b)_i / d_i.  The
    entries of U*b past the rank lie in the left kernel and are ignored
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4).
    """
    ub = mat_vec(snf.U, b)
    divisors = snf.divisors[:snf.rank]
    t = 1
    for d, x in zip(divisors, ub):
        t = lcm(t, d // gcd(d, x))
    y = [t * x // d for d, x in zip(divisors, ub)]
    return t, mat_vec(snf.V, y + [0] * (len(snf.V) - len(y)))


@dataclass(frozen=True)
class LatticeSolutionSet:
    particular: Vec
    kernel_basis: tuple[Vec, ...]


def solve_lattice(a, b, cols: int) -> LatticeSolutionSet | None:
    """Full integer solution set of A*x = b in Z^cols, or None when
    infeasible.

    With U*A*V = D, A*x = b is solvable exactly when :func:`scaled_solution`
    needs no scaling (t = 1) and U*b vanishes past the rank.  Returns that
    particular solution plus a Hermite-form basis of the integer kernel;
    every solution is particular + Z-combination of the basis.  Raises
    ValueError when b does not have one entry per row of A.
    """
    snf = smith_normal_form(a, cols)
    x0 = _particular(snf, b)
    if x0 is None:
        return None
    return LatticeSolutionSet(x0, _kernel(snf))


def _check_rhs(b, rows: int) -> None:
    """Raise ValueError unless b is a right-hand side for ``rows`` rows;
    None is the one of no rows."""
    if len(b or ()) != rows:
        got = "none" if b is None else len(b)
        raise ValueError(f"a right-hand side takes one entry per row, {rows}; "
                         f"this one has {got}")


def _particular(snf: SmithDecomposition, b) -> Vec | None:
    """An integer x with M*x = b, read off the Smith form U*M*V = D, or None
    when there is none: when U*b does not vanish past the rank, or some
    nonzero divisor d_i does not divide (U*b)_i.  Otherwise x = V*y with
    y_i = (U*b)_i / d_i, the solution of :func:`scaled_solution` at t = 1.
    U*b is formed once, and V*y only for a solvable b.  Raises ValueError
    when b does not have one entry per row of M."""
    _check_rhs(b, len(snf.U))
    ub = mat_vec(snf.U, b)
    rank = snf.rank
    if any(ub[rank:]):
        return None
    y = []
    for d, x in zip(snf.divisors, ub[:rank]):
        q, r = divmod(x, d)
        if r:
            return None
        y.append(q)
    # mat_vec reads the first len(y) columns of V, those of the rank
    return mat_vec(snf.V, y)


def lattice_quotient(vectors, dim: int):
    """Z^dim modulo the span L of ``vectors``, as (free, torsion): the rows
    of ``free`` map Z^dim onto Z^dim / sat(L), free of rank dim - rank L,
    and each (row, d) of ``torsion`` maps it onto Z/d, d > 1; together they
    map Z^dim onto Z^dim / L.  All are read off one Smith form U*M*V = D of
    the vectors as the rows of M: in the coordinates V⁻¹x, L is d_1 Z + ...
    + d_r Z, so the columns of V past the rank r are the free coordinates
    and each column i with d_i > 1 is a torsion coordinate of order d_i
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4.3)."""
    snf = smith_normal_form([list(v) for v in vectors], dim)
    coords = list(zip(*snf.V))
    return (tuple(coords[snf.rank:]),
            tuple((coords[i], d) for i, d in enumerate(snf.divisors) if d > 1))


# ---------------------------------------------------------------------------
# double description / cone duality


def dual_rays(normals, dim: int, start: tuple | None = None
              ) -> tuple[list[Vec], list[Vec], list[frozenset]]:
    """Minimal generators of the cone {x in R^dim : <a, x> >= 0 for a in normals},
    by the incremental double description method (Fukuda & Prodon, "Double
    description method revisited", 1996).

    Returns (lineality_basis, extreme_rays, tight): the cone is the set of
    nonnegative combinations of the rays plus arbitrary integer combinations
    of the lineality basis, and ``tight[k]`` holds the indices of the
    normals that vanish on ``extreme_rays[k]``.  All vectors are primitive
    integers.  The tight sets are carried along as the normals are added,
    never recomputed: a ray on the new hyperplane gains its index, the ray
    made from an adjacent pair (p, n) gets T_p ∩ T_n and that index, and a
    step that cuts down the lineality gives every old ray the index and the
    new ray, which was a lineality vector, every earlier index.

    ``start``, when given, is ``(k, rays, tight)``: the extreme rays of the
    sharp cone cut out by ``normals[:k]``, each with the indices of those
    normals vanishing on it.  Only ``normals[k:]`` are then added.
    """
    normals = [tuple(a) for a in normals]
    if start is None:
        first, lin, rays, tight = 0, [tuple(row) for row in identity(dim)], [], []
    else:
        first, rays, tight = start
        lin, rays, tight = [], list(rays), list(tight)
    for idx in range(first, len(normals)):
        a = normals[idx]
        s_lin = [dot(a, l) for l in lin]
        if any(s_lin):
            i0 = next(i for i, s in enumerate(s_lin) if s != 0)
            l0, s0 = lin[i0], s_lin[i0]
            if s0 < 0:
                l0, s0 = tuple(-x for x in l0), -s0
            lin = [primitive(vec_sub(vec_scale(s0, l), vec_scale(s, l0)))
                   for i, (l, s) in enumerate(zip(lin, s_lin)) if i != i0]
            rays = [primitive(vec_sub(vec_scale(s0, r), vec_scale(dot(a, r), l0)))
                    for r in rays] + [l0]
            tight = [t | {idx} for t in tight] + [frozenset(range(idx))]
            continue
        signs = [dot(a, r) for r in rays]
        new_rays, new_tight, pos, neg = [], [], [], []
        for r, t, s in zip(rays, tight, signs):
            if s == 0:
                new_rays.append(r)
                new_tight.append(t | {idx})
            elif s > 0:
                new_rays.append(r)
                new_tight.append(t)
                pos.append((r, t, s))
            else:
                neg.append((r, t, s))
        for (rp, tp, sp), (rn, tn, sn) in itertools.product(pos, neg):
            common = tp & tn
            # adjacent exactly when no third ray is tight on all of common
            if len(rays) > 2 and any(common <= t and t is not tp and t is not tn
                                     for t in tight):
                continue
            comb = vec_sub(vec_scale(sp, rn), vec_scale(sn, rp))
            if any(comb):
                new_rays.append(primitive(comb))
                new_tight.append(common | {idx})
        rays, tight = new_rays, new_tight

    # canonical signs/order: lineality vectors sign-normalized
    lin = [l if next(x for x in l if x) > 0 else tuple(-x for x in l)
           for l in lin if any(l)]
    by_ray = dict(zip(rays, tight))
    rays = sorted(by_ray)
    return sorted(set(lin)), rays, [by_ray[r] for r in rays]


@dataclass(frozen=True)
class Cone:
    """A rational polyhedral cone in Z^d, stored by its sorted primitive
    extreme rays and a complete facet description (membership is all
    ⟨facet, x⟩ >= 0; an equation of a lower-dimensional cone is listed as f
    and -f).  ``incidence`` holds, for each facet, the indices of the rays on
    which it vanishes; it follows from the rays and facets, so equality
    ignores it.

    Which facets are equations, and so the lattice of the cone's span, is
    decided here once (``equations``, ``span_basis``), by the f and -f rule
    and not by the incidence alone: that rule is also right for a record
    with a line.  A cone with a line has no extreme rays, so its record has
    no rays, and an incidence naming every ray names none; only
    ``monoid.saturate`` makes such a record, for a monoid that is not sharp.
    Only the sharp records of ``fan.make_cone`` enter a cone complex."""

    ambient_rank: int
    rays: tuple[Vec, ...]
    facets: tuple[Vec, ...]
    incidence: tuple[frozenset, ...] = field(compare=False, repr=False)

    def contains(self, v) -> bool:
        return all(dot(f, v) >= 0 for f in self.facets)

    @cached_property
    def faces(self) -> frozenset[tuple[Vec, ...]]:
        """The ray tuple of every face, the zero cone included."""
        return frozenset(tuple(self.rays[i] for i in sorted(on_face))
                         for on_face in face_closure(self.incidence, len(self.rays))) | {()}

    @cached_property
    def ray_facets(self) -> tuple[frozenset, ...]:
        """The incidence read by ray: for each ray, the indices of the facets
        vanishing on it."""
        return tuple(frozenset(j for j, on in enumerate(self.incidence) if i in on)
                     for i in range(len(self.rays)))

    @cached_property
    def equations(self) -> tuple[Vec, ...]:
        """The facets that vanish on all of the cone, in facet order: those
        listed together with their negatives.  Such a facet vanishes on
        every ray, so only a facet whose incidence names every ray, each
        facet of a record with a line, has its negative looked for."""
        n = len(self.rays)
        return tuple(f for f, on in zip(self.facets, self.incidence)
                     if len(on) == n and tuple(-x for x in f) in self.facets)

    @cached_property
    def span_basis(self) -> tuple[Vec, ...]:
        """The Hermite-form Z-basis of span(cone) ∩ Z^d: the integer kernel
        of the equations, all of Z^d for a full-dimensional cone.  It may be
        finer than the lattice of the rays: cone((1,1,0), (1,-1,0)) has the
        basis (1,0,0), (0,1,0), and (1,0,0) is no integer combination of its
        rays."""
        return kernel_and_cokernel(self.equations, self.ambient_rank).kernel_basis

    @property
    def full(self) -> bool:
        """Whether the cone is full-dimensional: no facet is an equation."""
        return not self.equations

    def key(self):
        return self.rays


def dual_description(rays, dim: int) -> Cone:
    """Facets and extreme rays of cone(rays), as a :class:`Cone` record in
    Z^dim.

    ``facets`` are the minimal generators of the dual cone: the cone equals
    {x : <f, x> >= 0 for all f in facets}, with an equation of a
    lower-dimensional cone listed as f and -f.  ``rays`` are the sorted
    primitive extreme rays.  ``incidence`` holds, for each facet, the
    indices of the rays on which it vanishes.  A cone with a line has no
    extreme rays, and ``rays`` is ``()``.

    The generators of the cone are the distinct primitive vectors of the
    nonzero rays.  A simplicial cone, whose generators are ``dim`` linearly
    independent vectors, needs no double description (see
    :func:`_simplicial_description`).  Any other cone takes one: the rays
    are read off the generator-facet incidences that it carries (see
    :func:`dual_rays`), as a generator is extreme exactly when no other
    generator is tight on all of its facets (Fukuda & Prodon, "Double
    description method revisited", 1996), and the cone has a line exactly
    when some generator is tight on every facet.
    """
    rays = [tuple(r) for r in rays]
    simplicial = _simplicial_description(rays, dim)
    if simplicial is not None:
        return simplicial
    lin_f, facet_rays, on = dual_rays(rays, dim)
    # each facet with the indices of the given rays it vanishes on; an
    # equation, a lineality vector of the dual and its negative, on all
    on_facet = dict(zip(facet_rays, on))
    every = frozenset(range(len(rays)))
    for l in lin_f:
        on_facet[l] = on_facet[tuple(-x for x in l)] = every
    facets = tuple(sorted(on_facet))
    ons = [on_facet[f] for f in facets]
    first: dict[Vec, int] = {}  # each generator, by the first ray it is
    for i, r in enumerate(rays):
        if any(r):
            first.setdefault(primitive(r), i)
    gens = sorted(first)
    tight = [frozenset(k for k, o in enumerate(ons) if first[g] in o) for g in gens]
    if any(len(t) == len(facets) for t in tight):
        return Cone(dim, (), facets, (frozenset(),) * len(facets))
    extreme = [(r, t) for i, (r, t) in enumerate(zip(gens, tight))
               if not any(j != i and u >= t for j, u in enumerate(tight))]
    return Cone(
        dim, tuple(r for r, _ in extreme), facets,
        tuple(frozenset(k for k, (_, t) in enumerate(extreme) if i in t)
              for i in range(len(facets))))


def _simplicial_description(rays: list[Vec], dim: int) -> Cone | None:
    """The :class:`Cone` record of cone(rays) in closed form when its
    generators, the distinct primitive vectors of the nonzero rays, are
    ``dim`` linearly independent vectors, and None otherwise.  With the
    sorted generators as the rows of R, R·R⁻¹ = I says that column i of R⁻¹
    is 1 on generator i and 0 on every other one: it is the normal of the
    facet spanned by the others.  Column i of W = p·R⁻¹ (see
    :func:`scaled_inverse`), times the sign of p and made primitive, is
    that facet, and its incidence is every generator but i.  The generators
    are all extreme."""
    gens = sorted({primitive(r) for r in rays if any(r)})
    if len(gens) != dim:
        return None
    scaled = scaled_inverse(gens)
    if scaled is None:
        return None
    p, w = scaled
    sign = 1 if p > 0 else -1
    every = frozenset(range(dim))
    by_facet = sorted((primitive([sign * row[i] for row in w]), every - {i})
                      for i in range(dim))
    return Cone(dim, tuple(gens), tuple(f for f, _ in by_facet),
                tuple(on for _, on in by_facet))


def incidence(points, normals) -> tuple[frozenset, ...]:
    """For each normal, the indices of the points on which it vanishes."""
    return tuple(frozenset(i for i, p in enumerate(points) if dot(a, p) == 0)
                 for a in normals)


def face_closure(tight, n_points: int) -> set[frozenset]:
    """Every face of a cone generated by ``n_points`` points, as point
    indices, from its incidence alone: ``tight`` holds, for each normal that
    is >= 0 on the cone, the points on which it vanishes.  A face is the set
    of points on which some subset of the normals vanishes, so the faces are
    found by closing the full point set under intersection with each tight
    set (Kaibel & Pfetsch); the cost follows the number of faces, not of
    normal subsets."""
    top = frozenset(range(n_points))
    found = {top}
    queue = [top]
    while queue:
        face = queue.pop()
        for t in tight:
            sub = face & t
            if sub not in found:
                found.add(sub)
                queue.append(sub)
    return found


# ---------------------------------------------------------------------------
# complete integer feasibility


def _fm_eliminate(constraints, var):
    """Fourier-Motzkin elimination of ``var`` from rows (coeffs, rhs): a.x >= b,
    each with a nonzero coefficient.  So is every row it returns: a
    combination whose coefficients all cancel is dropped, or refutes the
    system (None) when it demands 0 >= rhs > 0."""
    pos, neg, rest = [], [], []
    for coeffs, rhs in constraints:
        c = coeffs[var]
        if c > 0:
            pos.append((coeffs, rhs))
        elif c < 0:
            neg.append((coeffs, rhs))
        else:
            rest.append((coeffs, rhs))
    out = set()
    for (cp, bp), (cn, bn) in itertools.product(pos, neg):
        a, b = cp[var], -cn[var]
        coeffs = tuple(b * x + a * y for x, y in zip(cp, cn))
        rhs = b * bp + a * bn
        g = vec_gcd(coeffs)
        if g == 0:
            if rhs > 0:
                return None  # 0 >= positive: infeasible projection
            continue
        out.add((tuple(x // g for x in coeffs), Fraction(rhs, g)))
    for coeffs, rhs in rest:
        g = vec_gcd(coeffs)
        out.add((tuple(x // g for x in coeffs), Fraction(rhs, g)))
    return list(out)


def _bounds_first_var(constraints, k):
    """Exact rational bounds for variable 0 via FM-eliminating variables k-1..1
    from rows with a nonzero coefficient, so each row left bounds variable 0.

    Returns (lo, hi) Fractions (possibly None for no bound) or "infeasible".
    """
    cons = [(tuple(c), Fraction(b)) for c, b in constraints]
    for var in range(k - 1, 0, -1):
        nxt = _fm_eliminate(cons, var)
        if nxt is None:
            return "infeasible"
        cons = nxt
    lo, hi = None, None
    for coeffs, rhs in cons:
        c = coeffs[0]
        if c > 0:
            cand = rhs / c
            lo = cand if lo is None or cand > lo else lo
        elif c < 0:
            cand = rhs / c
            hi = cand if hi is None or cand < hi else hi
    return lo, hi


def _unit_extension(r: Vec) -> Matrix:
    """A unimodular matrix T with T * e_0 = r, for primitive r."""
    h, u = hermite_normal_form([[x] for x in r])
    # u * r = e_0 since r is primitive and Hermite pivots are positive
    if h[0][0] != 1:
        raise ValueError("vector is not primitive")
    # u is unimodular, so p = ±1 and T = u⁻¹ = W / p = p·W
    p, w = scaled_inverse(u)
    return [[p * x for x in row] for row in w]


class _Budget:
    def __init__(self, n):
        self.left = n

    def spend(self, n=1):
        self.left -= n
        if self.left < 0:
            raise ResourceLimit("integer feasibility search budget exhausted")


_UNSEARCHED = object()  # a recession split no search has reached yet


class _Recession:
    """One node of :func:`_int_point`'s search for a fixed matrix G with k
    columns.  Its zero rows and its nonzero rows are told apart at once; the
    recession split of the nonzero rows is found the first time a search
    reaches it, and then kept for every right-hand side h."""

    __slots__ = ("k", "zero", "nonzero", "rows", "_split")

    def __init__(self, g, k: int):
        self.k = k
        self.zero, self.nonzero = [], []
        for i, c in enumerate(g):
            (self.nonzero if any(c) else self.zero).append(i)
        self.rows = [tuple(g[i]) for i in self.nonzero]
        self._split = _UNSEARCHED

    def split(self):
        """None when the nonzero rows R have no recession direction, that is
        no nonzero r with R r >= 0.  Otherwise (T, kept, deferred, child):
        T is unimodular with T e_0 = r, ``kept`` indexes the rows of R T
        with a zero first entry, ``deferred`` holds each other row of R T
        with its index, and ``child`` is the node of the kept rows without
        their first column."""
        if self._split is _UNSEARCHED:
            lin, rays, _ = dual_rays([list(c) for c in self.rows], self.k)
            rec = lin[0] if lin else (rays[0] if rays else None)
            split = None
            if rec is not None:
                t_mat = _unit_extension(primitive(rec))
                gt = mat_mul(self.rows, t_mat)
                kept = [i for i, row in enumerate(gt) if row[0] == 0]
                # row[0] > 0 on the others because rec is a recession direction
                deferred = [(row, i) for i, row in enumerate(gt) if row[0] != 0]
                child = _Recession([gt[i][1:] for i in kept], self.k - 1)
                split = t_mat, kept, deferred, child
            self._split = split
        return self._split


def _int_point(node: _Recession, h, charge: _Budget):
    """Some integer t in Z^k with G t >= h, for the G and k of ``node``, or
    None.  Complete.

    A recession direction r of G's nonzero rows lets a coordinate be split
    off that can always be pushed feasible: in the coordinates of T, with
    T e_0 = r, the rows that do not see that coordinate are solved first,
    and the coordinate is then raised until every other row holds.  With
    no recession direction the rows bound a polytope, searched by
    :func:`_bounded_point`."""
    charge.spend()
    for i in node.zero:
        if h[i] > 0:
            return None
    if not node.rows:
        return [0] * node.k
    hv = [h[i] for i in node.nonzero]
    split = node.split()
    if split is None:
        return _bounded_point(list(zip(node.rows, hv)), node.k, charge)
    t_mat, kept, deferred, child = split
    sub = _int_point(child, [hv[i] for i in kept], charge)
    if sub is None:
        return None
    y0 = 0
    for row, i in deferred:
        need = hv[i] - sum(row[j + 1] * sub[j] for j in range(child.k))
        # smallest integer y0 with row[0] * y0 >= need
        y0 = max(y0, -((-need) // row[0]))
    return list(mat_vec(t_mat, [y0] + list(sub)))


def _bounded_point(rows, k, charge: _Budget):
    """Some integer t in Z^k meeting ``rows``, nonzero rows (coeffs, rhs) of
    G t >= h whose real solutions form a bounded set, or None.  The first
    coordinate runs between its exact bounds.  A slice of a bounded set is
    bounded, so no recession direction is looked for, here or below.  A row
    that sees the first coordinate alone reaches those bounds unchanged, so
    every value between them meets it, and the slice drops it."""
    bounds = _bounds_first_var(rows, k)
    if bounds == "infeasible":
        return None
    lo, hi = bounds
    if lo is None or hi is None:
        raise AssertionError("a polytope with no recession direction is bounded")
    lo_i = -((-lo.numerator) // lo.denominator)  # ceil
    hi_i = hi.numerator // hi.denominator  # floor
    for val in range(lo_i, hi_i + 1):
        charge.spend(2)  # one unit for the value, one for the slice's node
        sub_rows = [(c[1:], r - c[0] * val) for c, r in rows if any(c[1:])]
        sub = _bounded_point(sub_rows, k - 1, charge) if sub_rows else [0] * (k - 1)
        if sub is not None:
            return [val] + sub
    return None


class IntegerSystem:
    """The integer programs eq_lhs*x = b, ineq_lhs*x >= c in x in Z^num_vars
    for one left-hand side and any right-hand side (b, c), prepared once and
    solved by :meth:`solve` for each (b, c): a fixed matrix with varying
    right-hand sides, as in Eisenbrand & Shmonin, "Parametric integer
    programming in fixed dimension" (2008).

    Preparing takes the Smith form of the equations at width ``num_vars``;
    with no equations it has no rows, V = I, and the kernel is all of
    Z^num_vars.  The first solve whose equations have an integer solution
    adds what depends on the matrices alone: the kernel basis of the
    equations and the inequality rows in kernel coordinates.  The search's
    recession splits (their double descriptions and unimodular changes of
    variables) are built along the path that a solve first takes, and
    kept.  So solving many right-hand sides does each of these once, and
    one solve does the work of one :func:`ilp_feasible` call, which is this
    class prepared and solved once.  The system reads the rows it is given,
    not copies of them, so they must not change while it is in use.
    ``eq_rhs`` None is the right-hand side of no equations.

    Prepared users: ``firmament.Firmament.systems`` (one per source cone,
    written in the coordinates of the cone's span, ``Cone.span_basis``, so
    with the chart rows as its only equations, and solved at every point),
    ``monoid.is_integral`` (one per call, solved for every quadruple),
    ``monoid.PushoutResult`` (one for the amalgam, solved for every element
    tested) and ``campana.variant_multiplicities`` (one per call, solved for
    every power and generator).
    """

    def __init__(self, num_vars, eq_lhs=None, ineq_lhs=None):
        self.num_vars = num_vars
        self.ineq_lhs = tuple(ineq_lhs or ())
        self.snf = smith_normal_form(eq_lhs or (), num_vars)
        self._search = None

    def _kernel_and_root(self):
        """The kernel basis, and the root of the search over the inequality
        rows in kernel coordinates t, for x = x0 + sum_i t_i * kernel[i]
        (None when the kernel is 0 and there is nothing to search)."""
        kernel = _kernel(self.snf)
        if not kernel:
            return kernel, None
        g = [[dot(row, kv) for kv in kernel] for row in self.ineq_lhs]
        return kernel, _Recession(g, len(kernel))

    def solve(self, eq_rhs=None, ineq_rhs=None):
        """Some integer x with eq_lhs*x = eq_rhs and ineq_lhs*x >= ineq_rhs
        (0 when ``ineq_rhs`` is None), or None.  Complete, as
        :func:`ilp_feasible`.

        Each solve gets the whole node budget that :func:`ilp_budget` sets,
        and raises :class:`ResourceLimit` when it spends it.  Raises
        ValueError when a right-hand side does not have one entry per row,
        or when ``eq_rhs`` is None for a system with equations."""
        if ineq_rhs is None:
            ineq_rhs = [0] * len(self.ineq_lhs)
        _check_rhs(ineq_rhs, len(self.ineq_lhs))
        x0 = _particular(self.snf, eq_rhs)
        if x0 is None:
            return None
        if self._search is None:
            self._search = self._kernel_and_root()
        kernel, root = self._search
        if not kernel:
            if any(dot(row, x0) < rhs for row, rhs in zip(self.ineq_lhs, ineq_rhs)):
                return None
            return tuple(x0)
        h = [rhs - dot(row, x0) for row, rhs in zip(self.ineq_lhs, ineq_rhs)]
        t = _int_point(root, h, _Budget(_BUDGET.get()))
        if t is None:
            return None
        x = list(x0)
        for ti, kv in zip(t, kernel):
            x = [a + ti * b for a, b in zip(x, kv)]
        return tuple(x)


def ilp_feasible(num_vars, eq_lhs=None, eq_rhs=None, ineq_lhs=None,
                 ineq_rhs=None):
    """Some integer x with eq_lhs*x = eq_rhs and ineq_lhs*x >= ineq_rhs, or None.

    The decision is complete: a None return means no integer solution
    exists.  Equalities are eliminated exactly through their Smith form;
    the residual inequality system is searched by recession-direction
    splitting plus exact Fourier-Motzkin bounded enumeration.  This is
    :class:`IntegerSystem` prepared and solved once; a caller with one
    matrix and many right-hand sides keeps the system and calls its
    :meth:`~IntegerSystem.solve`.

    Raises :class:`ResourceLimit` if the node budget set by
    :func:`ilp_budget` is exhausted.
    """
    return IntegerSystem(num_vars, eq_lhs, ineq_lhs).solve(eq_rhs, ineq_rhs)
