"""Test-only oracle for the base-change criterion, independent of the
zero-face reduction in ``firm.firm_check_pushout``.

``face_loop_pushout`` is the criterion read literally: for each chart it
forms the fs pushout of theta_i and psi, and tries every face G of the
characteristic monoid N in turn, skipping a face on which a nonzero element
of R lands, localizing N at G and searching for a retraction of the
localized leg R -> N_G.  Each face costs a localization, the Hilbert basis
of the localized monoid and an integer program.
"""

from logfirm.firm import FiberProblem, LogPointQuery, PushoutFirmness
from logfirm.intlinalg import dot, mat_vec
from logfirm.monoid import (
    face_localization,
    faces,
    find_factorization,
    fs_pushout,
    identity_hom,
)


def face_loop_pushout(prob: FiberProblem, q: LogPointQuery) -> PushoutFirmness:
    """The first chart and face G, in the order of ``faces``, whose preimage
    in R is trivial and whose localized leg admits a retraction."""
    r = q.point_monoid
    for i, theta in enumerate(prob.components):
        res = fs_pushout(theta, q.psi)
        n = res.characteristic
        leg_r = res.leg2
        r_images = [n.ambient(mat_vec(leg_r.local, c)) for c in r.hilbert_local]
        for g_face in faces(n):
            if any(dot(g_face.normal, x) == 0 for x in r_images):
                continue  # a nonzero element of R would land on the face
            _, proj = face_localization(n, g_face)
            t = find_factorization(proj.compose(leg_r), identity_hom(r))
            if t is not None:
                return PushoutFirmness(True, i, g_face, t)
    return PushoutFirmness(False)
