"""Test-only oracle for quotients of Z^d by a sublattice, independent of
``intlinalg.lattice_quotient``.

These are the routes ``monoid`` took before every quotient was read off one
Smith form of the vectors.  ``saturated_span`` saturates the span of some
vectors as a kernel of a kernel: two Smith forms and two Hermite forms.
``projection`` reads the coordinates of Z^d modulo that saturated span off
a third Smith form, of the saturated basis.  ``oracle_quotient`` is
``monoid._quotient`` on that projection, and ``oracle_saturate`` is
``monoid.saturate`` with the group of generators that span less than it cut
down to ``saturated_span`` of them.
"""

from logfirm.intlinalg import (
    dual_description,
    identity,
    in_row_lattice,
    kernel_and_cokernel,
    mat_vec,
    row_lattice_basis,
    smith_normal_form,
    transpose,
)
from logfirm.monoid import MonoidHom, saturate


def saturated_span(vectors, d: int):
    """Hermite basis of the lattice points of Z^d in the span of ``vectors``."""
    ker = kernel_and_cokernel([list(v) for v in vectors], d).kernel_basis
    if not ker:
        return tuple(tuple(r) for r in identity(d))
    return kernel_and_cokernel([list(v) for v in ker], d).kernel_basis


def projection(vectors, d: int):
    """Rows mapping Z^d onto Z^d modulo the saturated span of ``vectors``,
    not all zero: the columns past s of V, for U*S*V = D the Smith form of
    the s rows S of ``saturated_span``."""
    span = saturated_span(vectors, d)
    s = len(span)
    snf = smith_normal_form([list(v) for v in span], d)
    return tuple(tuple(snf.V[i][s + j] for i in range(d)) for j in range(d - s))


def oracle_quotient(m, vectors):
    """The image of m modulo the saturated span of ``vectors`` under
    :func:`projection`, with the projection hom."""
    proj = projection(vectors, m.ambient_rank)
    target = saturate(len(proj), [mat_vec(proj, g) for g in m.generators],
                      group=[mat_vec(proj, b) for b in m.group_basis])
    return target, MonoidHom(m, target, proj)


def oracle_saturate(ambient_rank: int, generators, group=None):
    """``saturate``, with the group of generators whose cone holds a line
    cut down to :func:`saturated_span` of them before it is called."""
    gens = [tuple(g) for g in generators if any(g)]
    basis = row_lattice_basis(gens if group is None else [tuple(r) for r in group])
    local = [in_row_lattice(basis, v) for v in gens]
    if gens and None not in local:
        facets = dual_description(local, len(basis)).facets
        if any(tuple(-x for x in f) in facets for f in facets):
            group = [mat_vec(transpose(basis), c)
                     for c in saturated_span(local, len(basis))]
    return saturate(ambient_rank, generators, group=group)
