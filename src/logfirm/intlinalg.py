"""Exact integer linear algebra.

Normal forms (Smith, Hermite), lattice equation solving, kernel/cokernel
computation, cone duality via the double description method, and a complete
integer-feasibility solver.  All arithmetic is on Python's unbounded
integers (or :class:`fractions.Fraction` for intermediate bounds); nothing
here ever rounds.

Matrices are lists of lists of ints, row-major.  Vectors are tuples or
lists of ints; functions return tuples for values meant to be hashable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


class ResourceLimit(Exception):
    """Raised when a configured search budget is exhausted.

    Distinct from infeasibility: callers must never treat this as "absent".
    """


DEFAULT_ILP_BUDGET = 200_000

Vec = tuple[int, ...]
Matrix = list[list[int]]


# ---------------------------------------------------------------------------
# small matrix/vector helpers


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_copy(m) -> Matrix:
    return [list(row) for row in m]


def transpose(m) -> Matrix:
    if not m:
        return []
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


def primitive(v) -> Vec:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = vec_gcd(v)
    if g == 0:
        return tuple(v)
    return tuple(x // g for x in v)


def rational_inverse(m) -> list[list[Fraction]]:
    """Exact inverse of a square matrix by Gauss-Jordan elimination over
    the rationals.

    Raises ValueError when the matrix is not square or is singular.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def mat_inverse_unimodular(u) -> Matrix:
    """Inverse of an integer matrix with determinant +-1.

    Raises ValueError when the matrix is not square, singular, or has a
    non-integral inverse.
    """
    inv = rational_inverse(u)
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in inv]


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SmithDecomposition:
    U: tuple[Vec, ...]
    D: tuple[Vec, ...]
    V: tuple[Vec, ...]
    divisors: tuple[int, ...]


def smith_normal_form(m) -> SmithDecomposition:
    """Smith normal form U*M*V = D with a divisibility chain d1 | d2 | ...

    U and V are unimodular; ``divisors`` lists the nonnegative diagonal of D
    up to min(rows, cols), with zero divisors trailing.
    """
    d = mat_copy(m)
    rows = len(d)
    cols = len(d[0]) if rows else 0
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
        D=tuple(tuple(r) for r in d),
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


def row_lattice_basis(vectors, dim: int) -> list[Vec]:
    """Canonical (HNF) basis of the sublattice of Z^dim spanned by ``vectors``."""
    if not vectors:
        return []
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


def _kernel(snf: SmithDecomposition, rank: int) -> tuple[Vec, ...]:
    """Hermite-form basis of the integer kernel: the columns of V past the
    rank, for U*M*V = D."""
    cols = len(snf.V)
    kernel = [tuple(snf.V[i][j] for i in range(cols)) for j in range(rank, cols)]
    return tuple(row_lattice_basis(kernel, cols))


def kernel_and_cokernel(m) -> KernelCokernel:
    """Integer kernel basis, cokernel free rank, and cokernel torsion of M.

    M is viewed as a map Z^cols -> Z^rows acting on column vectors.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if cols == 0:
        return KernelCokernel((), rows, ())
    snf = smith_normal_form(m)
    rank = sum(1 for dv in snf.divisors if dv != 0)
    torsion = tuple(dv for dv in snf.divisors if dv > 1)
    return KernelCokernel(_kernel(snf, rank), rows - rank, torsion)


def scaled_solution(snf: SmithDecomposition, b) -> tuple[int, Vec]:
    """The least t >= 1 for which M*x = t*b is solvable up to the left
    kernel of M, with the solution x read off the Smith form U*M*V = D.

    Each nonzero divisor d_i must divide t*(U*b)_i, so t is the lcm of the
    d_i / gcd(d_i, (U*b)_i), and x = V*y with y_i = t*(U*b)_i / d_i.  The
    entries of U*b past the rank lie in the left kernel and are ignored
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4).
    """
    ub = mat_vec(snf.U, b)
    divisors = [d for d in snf.divisors if d != 0]
    t = 1
    for d, x in zip(divisors, ub):
        t = lcm(t, d // gcd(d, x))
    y = [t * x // d for d, x in zip(divisors, ub)]
    return t, mat_vec(snf.V, y + [0] * (len(snf.V) - len(y)))


@dataclass(frozen=True)
class LatticeSolutionSet:
    particular: Vec
    kernel_basis: tuple[Vec, ...]


def solve_lattice(a, b) -> LatticeSolutionSet | None:
    """Full integer solution set of A*x = b, or None when infeasible.

    With U*A*V = D, A*x = b is solvable exactly when :func:`scaled_solution`
    needs no scaling (t = 1) and U*b vanishes past the rank.  Returns that
    particular solution plus a Hermite-form basis of the integer kernel;
    every solution is particular + Z-combination of the basis.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if cols == 0:
        if any(b):
            return None
        return LatticeSolutionSet((), ())
    snf = smith_normal_form(a)
    rank = sum(1 for dv in snf.divisors if dv != 0)
    t, x0 = scaled_solution(snf, b)
    if t != 1 or any(mat_vec(snf.U, b)[rank:]):
        return None
    return LatticeSolutionSet(x0, _kernel(snf, rank))


# ---------------------------------------------------------------------------
# double description / cone duality


def _adjacent(tight_a: frozenset, tight_b: frozenset, all_rays) -> bool:
    common = tight_a & tight_b
    for other_tight in all_rays:
        if other_tight is tight_a or other_tight is tight_b:
            continue
        if common <= other_tight:
            return False
    return True


def dual_rays(normals, dim: int) -> tuple[list[Vec], list[Vec]]:
    """Minimal generators of the cone {x in R^dim : <a, x> >= 0 for a in normals}.

    Returns (lineality_basis, extreme_rays); the cone is the set of
    nonnegative combinations of the rays plus arbitrary integer combinations
    of the lineality basis.  All vectors are primitive integers.
    """
    normals = [tuple(a) for a in normals if any(a)]
    lin: list[Vec] = [tuple(row) for row in identity(dim)]
    rays: list[Vec] = []

    def tight_set(vec, upto):
        return frozenset(i for i in range(upto) for a in [normals[i]] if dot(a, vec) == 0)

    for idx, a in enumerate(normals):
        s_lin = [dot(a, l) for l in lin]
        if any(s_lin):
            i0 = next(i for i, s in enumerate(s_lin) if s != 0)
            l0, s0 = lin[i0], s_lin[i0]
            if s0 < 0:
                l0, s0 = tuple(-x for x in l0), -s0
            new_lin = []
            for i, (l, s) in enumerate(zip(lin, s_lin)):
                if i == i0:
                    continue
                new_lin.append(primitive(vec_sub(vec_scale(s0, l), vec_scale(s, l0))))
            new_rays = []
            for r in rays:
                s = dot(a, r)
                new_rays.append(primitive(vec_sub(vec_scale(s0, r), vec_scale(s, l0))))
            new_rays.append(l0)
            lin = new_lin
            rays = list(dict.fromkeys(new_rays))
        else:
            pos, zero, neg = [], [], []
            for r in rays:
                s = dot(a, r)
                (pos if s > 0 else zero if s == 0 else neg).append((r, s))
            if not neg:
                continue
            tights = {r: tight_set(r, idx) for r, _ in pos + neg + zero}
            all_tights = list(tights.values())
            new_rays = [r for r, _ in pos + zero]
            for (rp, sp), (rn, sn) in itertools.product(pos, neg):
                if len(rays) > 2 and not _adjacent(tights[rp], tights[rn], all_tights):
                    continue
                comb = vec_sub(vec_scale(sp, rn), vec_scale(sn, rp))
                if any(comb):
                    new_rays.append(primitive(comb))
            rays = list(dict.fromkeys(new_rays))

    # canonical signs/order: lineality vectors sign-normalized
    lin = [l if next(x for x in l if x) > 0 else tuple(-x for x in l)
           for l in lin if any(l)]
    return sorted(set(lin)), sorted(set(rays))


@dataclass(frozen=True)
class DualDescription:
    rays: tuple[Vec, ...]
    facets: tuple[Vec, ...]


def _generators_with_lineality(lin, rays) -> tuple[Vec, ...]:
    out = set(rays)
    for l in lin:
        out.add(l)
        out.add(tuple(-x for x in l))
    return tuple(sorted(out))


def dual_description(rays, dim: int | None = None) -> DualDescription:
    """Facets and extreme rays of cone(rays) from one double description.

    ``facets`` are the minimal generators of the dual cone: the cone equals
    {x : <f, x> >= 0 for all f in facets}, with an equation of a
    lower-dimensional cone listed as f and -f.  ``rays`` are the sorted
    primitive extreme rays, read off the generator-facet incidences: a
    generator is extreme exactly when no other generator is tight on all of
    its facets (Fukuda & Prodon, "Double description method revisited",
    1996).  A cone with a line has no extreme rays, and ``rays`` is ``()``;
    that is the case exactly when some generator is tight on every facet.
    """
    rays = [tuple(r) for r in rays]
    if dim is None:
        if not rays:
            raise ValueError("dim required for the empty ray list")
        dim = len(rays[0])
    lin_f, facet_rays = dual_rays(rays, dim)
    facets = _generators_with_lineality(lin_f, facet_rays)
    gens = sorted({primitive(r) for r in rays if any(r)})
    tight = [frozenset(i for i, f in enumerate(facets) if dot(f, r) == 0)
             for r in gens]
    if any(len(t) == len(facets) for t in tight):
        return DualDescription(rays=(), facets=facets)
    extreme = tuple(r for i, (r, t) in enumerate(zip(gens, tight))
                    if not any(j != i and u >= t for j, u in enumerate(tight)))
    return DualDescription(rays=extreme, facets=facets)


def facets_to_rays(facets, dim: int) -> tuple[Vec, ...]:
    """Minimal generators of {x : <f, x> >= 0 for all f in facets}."""
    lin, rays = dual_rays(facets, dim)
    return _generators_with_lineality(lin, rays)


def face_lattice(points, normals) -> dict[frozenset, frozenset]:
    """Every face of a cone from its point-normal incidences alone.

    ``points`` generate the cone and every normal is >= 0 on each of them.
    A face is the set of points on which some subset of the normals
    vanishes; the result maps it (as point indices) to the indices of all
    normals vanishing on it.  The faces are found by closing the full point
    set under intersection with each normal's tight set (Kaibel & Pfetsch),
    so the cost follows the number of faces, not of normal subsets.
    """
    tight = [frozenset(i for i, p in enumerate(points) if dot(a, p) == 0)
             for a in normals]
    top = frozenset(range(len(points)))
    found = {top}
    queue = [top]
    while queue:
        face = queue.pop()
        for t in tight:
            sub = face & t
            if sub not in found:
                found.add(sub)
                queue.append(sub)
    return {face: frozenset(j for j, t in enumerate(tight) if face <= t)
            for face in found}


# ---------------------------------------------------------------------------
# complete integer feasibility


def _fm_eliminate(constraints, var):
    """Fourier-Motzkin elimination of ``var`` from rows (coeffs, rhs): a.x >= b."""
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
        if not any(coeffs):
            if rhs > 0:
                return None
            continue
        g = vec_gcd(coeffs)
        out.add((tuple(x // g for x in coeffs), Fraction(rhs, g)))
    return list(out)


def _bounds_first_var(constraints, k):
    """Exact rational bounds for variable 0 via FM-eliminating variables k-1..1.

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
        elif rhs > 0:
            return "infeasible"
    return lo, hi


def _unit_extension(r: Vec) -> Matrix:
    """A unimodular matrix T with T * e_0 = r, for primitive r."""
    k = len(r)
    h, u = hermite_normal_form([[x] for x in r])
    # u * r = +-e_0 since r is primitive
    sign = h[0][0]
    if sign not in (1, -1):
        raise ValueError("vector is not primitive")
    u = [list(row) for row in u]
    if sign == -1:
        u[0] = [-x for x in u[0]]
    return mat_inverse_unimodular(u)


class _Budget:
    def __init__(self, n):
        self.left = n

    def spend(self, n=1):
        self.left -= n
        if self.left < 0:
            raise ResourceLimit("integer feasibility search budget exhausted")


def _nonzero_rows(g, h):
    """The rows (coeffs, rhs) of G t >= h with a nonzero coefficient, or
    None when a zero row demands 0 >= rhs > 0."""
    rows = []
    for coeffs, rhs in zip(g, h):
        if any(coeffs):
            rows.append((tuple(coeffs), rhs))
        elif rhs > 0:
            return None
    return rows


def _int_point(g, h, k, budget: _Budget):
    """Some integer t in Z^k with G t >= h, or None.  Complete."""
    budget.spend()
    rows = _nonzero_rows(g, h)
    if not rows:
        return None if rows is None else [0] * k
    gm = [list(c) for c, _ in rows]
    hv = [r for _, r in rows]

    # recession direction: any nonzero r with G r >= 0 lets us split off a
    # coordinate that can always be pushed feasible.
    lin, rays = dual_rays(gm, k)
    rec = lin[0] if lin else (rays[0] if rays else None)
    if rec is not None:
        t_mat = _unit_extension(primitive(rec))
        gt = mat_mul(gm, t_mat)
        kept, deferred = [], []
        for row, rhs in zip(gt, hv):
            if row[0] == 0:
                kept.append((tuple(row[1:]), rhs))
            else:
                # row[0] > 0 because rec is a recession direction
                deferred.append((row, rhs))
        sub = _int_point([c for c, _ in kept], [r for _, r in kept], k - 1, budget)
        if sub is None:
            return None
        y0 = 0
        for row, rhs in deferred:
            rest = sum(row[j + 1] * sub[j] for j in range(k - 1))
            need = rhs - rest
            # smallest integer y0 with row[0] * y0 >= need
            cand = -((-need) // row[0])
            y0 = max(y0, cand)
        y = [y0] + list(sub)
        return list(mat_vec(t_mat, y))
    return _bounded_point(rows, k, budget)


def _bounded_point(rows, k, budget: _Budget):
    """Some integer t in Z^k meeting ``rows``, nonzero rows (coeffs, rhs) of
    G t >= h whose real solutions form a bounded set, or None.  The first
    coordinate runs between its exact bounds.  A slice of a bounded set is
    bounded, so no recession direction is looked for, here or below."""
    bounds = _bounds_first_var(rows, k)
    if bounds == "infeasible":
        return None
    lo, hi = bounds
    if lo is None or hi is None:
        raise AssertionError("a polytope with no recession direction is bounded")
    lo_i = -((-lo.numerator) // lo.denominator)  # ceil
    hi_i = hi.numerator // hi.denominator  # floor
    for val in range(lo_i, hi_i + 1):
        budget.spend(2)  # one unit for the value, one for the slice's node
        sub_rows = _nonzero_rows([c[1:] for c, _ in rows],
                                 [r - c[0] * val for c, r in rows])
        if sub_rows is None:
            continue
        sub = _bounded_point(sub_rows, k - 1, budget) if sub_rows else [0] * (k - 1)
        if sub is not None:
            return [val] + sub
    return None


def ilp_feasible(num_vars, eq_lhs=None, eq_rhs=None, ineq_lhs=None,
                 ineq_rhs=None, budget: int = DEFAULT_ILP_BUDGET):
    """Some integer x with eq_lhs*x = eq_rhs and ineq_lhs*x >= ineq_rhs, or None.

    The decision is complete: a None return means no integer solution
    exists.  Equalities are eliminated exactly via :func:`solve_lattice`;
    the residual inequality system is searched by recession-direction
    splitting plus exact Fourier-Motzkin bounded enumeration.

    Raises :class:`ResourceLimit` if the node budget is exhausted.
    """
    if eq_lhs:
        sol = solve_lattice(eq_lhs, eq_rhs)
        if sol is None:
            return None
        x0 = list(sol.particular)
        kernel = [list(kv) for kv in sol.kernel_basis]
    else:
        x0 = [0] * num_vars
        kernel = [list(row) for row in identity(num_vars)]

    ineq_lhs = [list(r) for r in (ineq_lhs or [])]
    if ineq_rhs is None:
        ineq_rhs = [0] * len(ineq_lhs)

    k = len(kernel)
    if k == 0:
        for row, rhs in zip(ineq_lhs, ineq_rhs):
            if dot(row, x0) < rhs:
                return None
        return tuple(x0)

    # constraints on kernel coordinates t:  x = x0 + sum_i t_i * kernel[i]
    g = []
    h = []
    for row, rhs in zip(ineq_lhs, ineq_rhs):
        g.append([dot(row, kv) for kv in kernel])
        h.append(rhs - dot(row, x0))
    t = _int_point(g, h, k, _Budget(budget))
    if t is None:
        return None
    x = list(x0)
    for ti, kv in zip(t, kernel):
        x = [a + ti * b for a, b in zip(x, kv)]
    return tuple(x)
