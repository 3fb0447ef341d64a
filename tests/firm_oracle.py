"""Test-only oracle for the base-change criterion, independent of the
zero-face reduction in ``firm.firm_check_pushout``.

``face_loop_pushout`` is the criterion read literally: for each chart it
forms the fs pushout of theta_i and psi, and tries every face G of the
characteristic monoid N in turn, skipping a face on which a nonzero element
of R lands, localizing N at G and searching for a retraction of the
localized leg R -> N_G.  Each face costs a localization, the Hilbert basis
of the localized monoid and an integer program.

``scan_factorization`` and ``scan_pushout`` are the two criteria with no
shortcut: every chart takes a factorization search, and every pushout leg,
local or not, is built and searched for a retraction.
"""

from logfirm.firm import (
    FiberProblem,
    FirmnessWitness,
    LogPointQuery,
    PushoutFirmness,
)
from logfirm.intlinalg import dot, mat_vec
from logfirm.monoid import (
    _zero_preimage_face,
    face_localization,
    faces,
    find_factorization,
    fs_pushout,
    identity_hom,
    zero_face,
)


def scan_factorization(prob: FiberProblem, q: LogPointQuery):
    """The witness of the first chart that admits a factorization, with a
    search on every chart in turn, or None."""
    for i, theta in enumerate(prob.components):
        h = find_factorization(theta, q.psi)
        if h is not None:
            return FirmnessWitness(i, h, _zero_preimage_face(h))
    return None


def scan_pushout(prob: FiberProblem, q: LogPointQuery) -> PushoutFirmness:
    """The first chart whose pushout leg R -> N admits a retraction, with a
    search on every leg in turn, at the zero face of N."""
    r = q.point_monoid
    for i, theta in enumerate(prob.components):
        res = fs_pushout(theta, q.psi)
        t = find_factorization(res.leg2, identity_hom(r))
        if t is not None:
            return PushoutFirmness(True, i, zero_face(res.characteristic), t)
    return PushoutFirmness(False)


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
