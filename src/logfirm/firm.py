"""Firmness decisions for maps presented by monoid charts.

A fiber problem is a sharp base monoid P with chart homs θᵢ: P → Qᵢ into
sharp monoids, one per component of the source.  A log point query is a
local hom ψ: P → R.  The query is *firm* when ψ factors as h ∘ θᵢ for some
component and some h: Qᵢ → R; equivalently, when the base change along ψ
admits a retraction after localizing at a suitable face.  Both criteria are
implemented and cross-checked.

For the base change, let N be the characteristic monoid of the fs pushout
of θᵢ and ψ, with leg ℓ: R → N.  The criterion asks for a face G of N whose
preimage in R is trivial and a retraction t_G of proj_G ∘ ℓ: R → N_G.  It
suffices to try G = {0}:

- the preimage of every face G contains that of {0}, which is trivial
  exactly when ℓ is local; so no face qualifies when ℓ is not local;
- if t_G ∘ proj_G ∘ ℓ = id_R, then t = t_G ∘ proj_G is a retraction of ℓ
  itself, which is the case G = {0} (N_{0} = N, proj_{0} = id).

So one retraction search per chart decides the criterion, and a firm
answer always names the zero face of N.

Two exact arguments spare work on charts that cannot witness firmness:

- a chart θᵢ that is not local witnesses neither criterion.  Say θᵢ(p) = 0
  with p ≠ 0; then ψ(p) ≠ 0, since ψ is local.  No h has h(θᵢ(p)) = ψ(p),
  so ``firm_check`` skips the chart without an integer program.  And the
  pushout square gives ℓ(ψ(p)) = ℓ₁(θᵢ(p)) = 0, with ℓ₁: Qᵢ → N the other
  leg, so ℓ is not local; ``firm_check_pushout`` skips the chart before it
  forms the pushout;
- for a local chart, the leg ℓ is local exactly when it kills no extreme
  ray of R, and ℓ kills a ray exactly when the ray's image in the
  saturation S, whose sharpening is N, is a unit of S: when every facet of
  S vanishes on it.  So ``firm_check_pushout`` reads locality off S, and
  only a local leg is built, by sharpening S, and searched for a
  retraction.

The faces an answer names, N's zero face and the face h^{-1}(0) of Qᵢ that
a factorization h kills, are built in :mod:`logfirm.monoid`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intlinalg import dot, mat_vec
from .monoid import (
    AffineMonoid,
    Face,
    MonoidHom,
    PushoutResult,
    SemiDecision,
    _zero_preimage_face,
    face_localization,
    faces,
    find_factorization,
    find_retraction,
    fs_pushout,
    is_local,
    zero_face,
)


class EvidenceMissing(Exception):
    """The caller did not supply adequate integrality/saturation evidence,
    or the hom refutes the evidence supplied."""


@dataclass(frozen=True)
class FiberProblem:
    base: AffineMonoid
    components: tuple[MonoidHom, ...]

    def __post_init__(self):
        if not self.base.sharp:
            raise ValueError("base monoid must be sharp")
        for theta in self.components:
            if theta.source != self.base:
                raise ValueError("every chart must start at the base monoid")
            if not theta.target.sharp:
                raise ValueError("every chart must end at a sharp monoid")


@dataclass(frozen=True)
class LogPointQuery:
    point_monoid: AffineMonoid
    psi: MonoidHom

    def __post_init__(self):
        if not self.point_monoid.sharp:
            raise ValueError("point monoid must be sharp")
        if self.psi.target != self.point_monoid:
            raise ValueError("query hom must end at the point monoid")
        if not is_local(self.psi):
            raise ValueError("query hom must be local (psi^{-1}(0) = 0)")


@dataclass(frozen=True)
class FirmnessWitness:
    component_index: int
    hom: MonoidHom            # h: Q_i -> R with h o theta_i = psi
    induced_face: Face        # h^{-1}(0), a face of Q_i


def verify_witness(prob: FiberProblem, q: LogPointQuery,
                   w: FirmnessWitness) -> bool:
    """Exact re-check of a witness: a hom from the chart's target, composite
    equality, locality of the query, and triviality of the chart preimage
    of the induced face."""
    if not (0 <= w.component_index < len(prob.components)):
        return False
    theta = prob.components[w.component_index]
    if w.hom.source != theta.target:
        return False
    if not w.hom.compose(theta).equal_on_source(q.psi):
        return False
    for c in theta.source.hilbert_local:
        image = theta.target.ambient(mat_vec(theta.local, c))
        if dot(w.induced_face.normal, image) == 0:
            return False
    return True


def firm_check(prob: FiberProblem, q: LogPointQuery) -> FirmnessWitness | None:
    """Complete factorization-criterion decision: the lowest-index witness
    h with h o theta_i = psi, or None when the query is not firm."""
    for i, theta in enumerate(prob.components):
        if not is_local(theta):
            continue  # h o theta kills what theta kills, and psi kills nothing
        h = find_factorization(theta, q.psi)
        if h is not None:
            w = FirmnessWitness(i, h, _zero_preimage_face(h))
            if not verify_witness(prob, q, w):
                raise AssertionError("a found factorization must re-verify")
            return w
    return None


@dataclass(frozen=True)
class PushoutFirmness:
    firm: bool
    component_index: int | None = None
    face: Face | None = None          # face of the pushout characteristic
    retraction: MonoidHom | None = None


def firm_check_pushout(prob: FiberProblem, q: LogPointQuery) -> PushoutFirmness:
    """Literal base-change criterion: for each component, form the fs
    pushout of theta_i and psi, and look for a face G of its characteristic
    monoid N whose preimage in R is trivial such that the localized leg
    R -> (N_G)# admits a retraction.

    Only G = {0} needs a search (see the module docstring): a retraction
    t_G at any face gives the retraction t_G o proj_G of the leg itself, and
    the preimage of {0} is trivial exactly when the leg is local.  A chart
    that is not local is skipped before its pushout is formed: if
    theta_i(p) = 0 with p != 0, the leg sends psi(p) != 0 to the image of
    theta_i(p) = 0 under the other leg, so it is not local.  Of the
    other charts, one whose leg is not local is skipped, read off the
    saturation before the leg is built; every other chart takes one
    retraction search on N, and the face returned is the zero face of N."""
    for i, theta in enumerate(prob.components):
        if not is_local(theta):
            continue  # the leg kills psi(p) wherever theta(p) = 0 with p != 0
        res = fs_pushout(theta, q.psi)
        if not _leg_is_local(res):
            continue  # a nonzero element of R lands on every face of N
        t = find_retraction(res.leg2)
        if t is not None:
            return PushoutFirmness(True, i, zero_face(res.characteristic), t)
    return PushoutFirmness(False)


def _leg_is_local(res: PushoutResult) -> bool:
    """``is_local(res.leg2)`` for a sharp R, read off the saturation S
    without sharpening it: the leg kills an extreme ray of R exactly when
    the ray's image in S is a unit, that is, when every facet of S vanishes
    on it."""
    facets = res.saturation_free.cone.facets
    return not any(all(dot(f, image) == 0 for f in facets)
                   for image in (mat_vec(res.leg2_free, c)
                                 for c in res.leg2_source.cone.rays))


@dataclass(frozen=True)
class Retraction:
    hom: MonoidHom


@dataclass(frozen=True)
class BoundaryFactorization:
    face: Face  # nonzero face of the source killed by the hom


def _adequate(evidence) -> bool:
    if evidence == "constructed":
        return True
    if isinstance(evidence, (tuple, list)) and len(evidence) == 2:
        return all(isinstance(e, SemiDecision) and bool(e) and e.bound >= 6
                   for e in evidence)
    return False


def dichotomy(theta: MonoidHom, int_sat_evidence):
    """For an integral and saturated hom of sharp fs monoids: either a
    retraction (when theta is local) or the nonzero face of the source
    killed by theta (boundary factorization).  Raises EvidenceMissing when
    the evidence is not adequate, or when theta refutes it: a local hom
    with no retraction is not both integral and saturated."""
    if not _adequate(int_sat_evidence):
        raise EvidenceMissing(
            "supply 'constructed' or a pair of affirmative semi-decisions "
            "with bound >= 6")
    if is_local(theta):
        t = find_retraction(theta)
        if t is None:
            raise EvidenceMissing(
                "the hom is local and has no retraction, so it is not both "
                "integral and saturated")
        return Retraction(t)
    return BoundaryFactorization(_zero_preimage_face(theta))


def generization_witnesses(prob: FiberProblem, q: LogPointQuery,
                           w: FirmnessWitness) -> dict[Face, FirmnessWitness]:
    """Witnesses for the localized queries at every face F of R for which
    the localized query stays local; each returned witness re-verifies.
    Raises ValueError when w does not verify."""
    if not verify_witness(prob, q, w):
        raise ValueError("the given witness does not verify")
    out: dict[Face, FirmnessWitness] = {}
    r = q.point_monoid
    for f in faces(r):
        loc, proj = face_localization(r, f)
        psi_loc = proj.compose(q.psi)
        if not is_local(psi_loc):
            continue
        h_loc = proj.compose(w.hom)
        w_loc = FirmnessWitness(w.component_index, h_loc,
                                _zero_preimage_face(h_loc))
        # h_loc o theta = proj o psi = psi_loc, and psi_loc is local, so
        # h_loc kills no nonzero image of theta: the witness always verifies,
        # and a failure is a fault, never a face to leave out
        if not verify_witness(prob, LogPointQuery(loc, psi_loc), w_loc):
            raise AssertionError("a localized witness must re-verify")
        out[f] = w_loc
    return out
