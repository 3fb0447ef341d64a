"""Test-only oracles for the integer programs of ``monoid``, written the way
``monoid`` wrote them before each became one set of block rows.

``oracle_find_factorization`` indexes the unknown matrix H entry by entry,
H[i][j] as unknown i * g_Q + j, fills each row by loops, and asks one fresh
:class:`~logfirm.intlinalg.ConeImage` for a preimage, so its witness is
that of the same rows.  ``oracle_is_integral`` works in ambient coordinates
and builds a fresh integer program, with a fresh Smith form, for every
quadruple it checks, through :func:`~logfirm.intlinalg.ilp_feasible`.
"""

import itertools

from logfirm.intlinalg import ConeImage, ilp_feasible, mat_vec, vec_add, vec_sub
from logfirm.monoid import SemiDecision


def oracle_find_factorization(theta, psi):
    """The local matrix of the h with h o theta = psi that the entry-by-entry
    formulation finds, or None."""
    p, q, r = theta.source, theta.target, psi.target
    gq, gr = q.group_rank, r.group_rank
    num_vars = gr * gq

    def var(i, j):
        return i * gq + j

    eq, rhs = [], []
    for c in p.hilbert_local:
        u = mat_vec(theta.local, c)
        w = mat_vec(psi.local, c)
        for i in range(gr):
            row = [0] * num_vars
            for j in range(gq):
                row[var(i, j)] = u[j]
            eq.append(row)
            rhs.append(w[i])
    ineq = []
    for u in q.cone.rays:
        for fct in r.cone.facets:
            row = [0] * num_vars
            for i in range(gr):
                for j in range(gq):
                    row[var(i, j)] += fct[i] * u[j]
            ineq.append(row)
    sol = ConeImage(eq, ineq, num_vars).preimage(rhs)
    if sol is None:
        return None
    return tuple(tuple(sol[var(i, j)] for j in range(gq)) for i in range(gr))


def _elements_up_to_degree(m, bound):
    """Sums of at most ``bound`` Hilbert generators, ambient and sorted."""
    current = {tuple([0] * m.ambient_rank)}
    seen = set(current)
    for _ in range(bound):
        nxt = {vec_add(v, h) for v in current for h in m.hilbert} - seen
        seen |= nxt
        current = nxt
        if not current:
            break
    return sorted(seen)


def oracle_is_integral(theta, bound):
    """``monoid.is_integral`` with one fresh program per quadruple."""
    p, q = theta.source, theta.target
    p_elts = _elements_up_to_degree(p, bound)
    q_elts = _elements_up_to_degree(q, bound)
    image = {a: theta.apply(a) for a in p_elts}
    gp, gq = p.group_rank, q.group_rank
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
            for f in p.cone.facets:
                ineq.append(list(f) + [0] * (gp + gq))
                ineq.append([0] * gp + list(f) + [0] * gq)
            for f in q.cone.facets:
                ineq.append([0] * (2 * gp) + list(f))
            if ilp_feasible(nv, eq, rhs, ineq) is None:
                return SemiDecision("no", bound, witness=(a1, a2, b1, b2))
    return SemiDecision("probably_yes", bound)
