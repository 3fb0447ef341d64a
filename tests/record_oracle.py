"""An oracle for the cone record a monoid keeps.

``AffineMonoid.cone`` is the record that ``intlinalg.dual_description``
returns for the monoid's generators in group coordinates, incidence
included.  ``dual`` transposes it and ``faces`` closes its incidence.  Here
the incidence is found again with dot products, and the faces are closed
from that, so a record whose incidence is lost, stale or not transposed
fails ``record_faults``.
"""

from logfirm.intlinalg import Cone, dot, dual_description, face_closure
from logfirm.monoid import _face, dual, faces, in_group_coordinates


def dot_incidence(rays, facets):
    """For each facet, the indices of the rays on which it vanishes."""
    return tuple(frozenset(i for i, r in enumerate(rays) if dot(f, r) == 0)
                 for f in facets)


def faces_from_dot_products(m):
    """``faces(m)``, closed from the dot-product incidence of m's cone."""
    rays = m.cone.rays
    tight = dot_incidence(rays, m.cone.facets)
    out = [_face(m, [j for j, t in enumerate(tight) if on_face <= t])
           for on_face in face_closure(tight, len(rays))]
    return sorted(out, key=lambda f: (len(f.generator_subset), f.generator_subset))


def record_faults(m) -> list[str]:
    """The checks of m's cone record that fail: empty when the record is
    the double description of m's generators with its incidence, and, for
    a sharp m, when the dual's record is its transpose and the faces are
    those of the dot-product incidence."""
    c, g = m.cone, m.group_rank
    want = dual_description([m.coords(v) for v in m.generators], g)
    checks = [("record type", type(c) is Cone),
              ("record", (c, c.incidence) == (want, want.incidence)),
              ("incidence", c.incidence == dot_incidence(c.rays, c.facets))]
    if m.sharp:
        d = dual(m)
        checks += [
            ("dual incidence", d.cone.incidence == c.ray_facets
             == dot_incidence(c.facets, c.rays)),
            ("double dual", dual(d) == in_group_coordinates(m)),
            ("double dual incidence", dual(d).cone.incidence == c.incidence),
            ("faces", faces(m) == faces_from_dot_products(m))]
    return [name for name, ok in checks if not ok]
