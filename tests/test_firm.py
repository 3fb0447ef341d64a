"""Tests for firmness decisions (factorization and pushout criteria)."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import logfirm.firm as firm
from firm_oracle import face_loop_pushout
from logfirm.charts import kummer_two_three
from logfirm.monoid import (
    MonoidHom,
    NotSharp,
    SemiDecision,
    _zero_preimage_face,
    faces,
    fs_pushout,
    identity_hom,
    in_group_coordinates,
    is_integral,
    is_local,
    is_saturated,
    saturate,
)
from logfirm.firm import (
    BoundaryFactorization,
    EvidenceMissing,
    FiberProblem,
    FirmnessWitness,
    LogPointQuery,
    PushoutFirmness,
    Retraction,
    dichotomy,
    firm_check,
    firm_check_pushout,
    generization_witnesses,
    verify_witness,
)


def N(rank=1):
    return saturate(rank, [tuple(1 if i == j else 0 for i in range(rank))
                           for j in range(rank)])


def hom(src, dst, matrix):
    return MonoidHom(src, dst, tuple(tuple(r) for r in matrix))


def two_three_problem():
    n = N()
    return FiberProblem(n, (hom(n, n, [[2]]), hom(n, n, [[3]])))


class TestFirmCheck:
    def test_times_three_not_firm(self):
        n = N()
        prob = FiberProblem(n, (hom(n, n, [[3]]),))
        q = LogPointQuery(n, identity_hom(n))
        assert firm_check(prob, q) is None

    def test_two_three_at_six(self):
        n = N()
        q = LogPointQuery(n, hom(n, n, [[6]]))
        w = firm_check(two_three_problem(), q)
        assert w is not None
        assert w.component_index == 0
        assert w.hom.apply((1,)) == (3,)

    def test_two_three_at_five(self):
        n = N()
        q = LogPointQuery(n, hom(n, n, [[5]]))
        assert firm_check(two_three_problem(), q) is None

    def test_trivial_monoids(self):
        z = saturate(0, [])
        prob = FiberProblem(z, (MonoidHom(z, z, ()),))
        q = LogPointQuery(z, MonoidHom(z, z, ()))
        w = firm_check(prob, q)
        assert w is not None

    def test_no_components_never_firm(self):
        n = N()
        prob = FiberProblem(n, ())
        q = LogPointQuery(n, identity_hom(n))
        assert firm_check(prob, q) is None

    def test_chart_from_other_generators_of_the_base(self):
        # N given by 1 and 2 is the base N: the chart starts there
        n = N()
        prob = FiberProblem(n, (hom(saturate(1, [(1,), (2,)]), n, [[2]]),))
        w = firm_check(prob, LogPointQuery(n, hom(n, n, [[4]])))
        assert w is not None and w.hom.local == ((2,),)

    def test_chart_from_another_group_rejected(self):
        # 2 generates 2N in 2Z, and N in Z: another monoid than the base
        chart = hom(saturate(1, [(2,)], group=[(1,)]), N(), [[1]])
        with pytest.raises(ValueError, match="start at the base monoid"):
            FiberProblem(saturate(1, [(2,)]), (chart,))

    def test_query_must_end_at_the_point_monoid(self):
        n = N()
        with pytest.raises(ValueError, match="end at the point monoid"):
            LogPointQuery(N(2), hom(n, n, [[3]]))

    def test_nonlocal_query_rejected(self):
        n2, n = N(2), N()
        with pytest.raises(ValueError):
            LogPointQuery(n, hom(n2, n, [[1, 0]]))


class TestFirmCheckPushout:
    def test_times_three_not_firm(self):
        n = N()
        prob = FiberProblem(n, (hom(n, n, [[3]]),))
        q = LogPointQuery(n, identity_hom(n))
        assert not firm_check_pushout(prob, q).firm

    def test_query_equal_to_chart(self):
        n = N()
        theta = hom(n, n, [[2]])
        prob = FiberProblem(n, (theta,))
        q = LogPointQuery(n, theta)
        res = firm_check_pushout(prob, q)
        assert res.firm
        assert res.retraction is not None

    def test_two_three_at_six(self):
        n = N()
        q = LogPointQuery(n, hom(n, n, [[6]]))
        assert firm_check_pushout(two_three_problem(), q).firm

    def test_agreement_corpus(self):
        # the two criteria agree on generated problems
        rng = random.Random(60617)
        done = 0
        while done < 100:
            p_rank = rng.randint(1, 2)
            p = N(p_rank)

            def random_monoid():
                r = rng.randint(1, 2)
                gens = [tuple(rng.randint(0, 3) for _ in range(r))
                        for _ in range(rng.randint(1, 3))]
                gens = [g for g in gens if any(g)]
                if not gens:
                    return None
                m = in_group_coordinates(saturate(r, gens))
                if not m.sharp or not m.hilbert:
                    return None
                return m

            def random_element(m, allow_zero=False):
                hb = list(m.hilbert)
                v = tuple([0] * m.ambient_rank)
                for _ in range(rng.randint(0 if allow_zero else 1, 2)):
                    g = hb[rng.randrange(len(hb))]
                    v = tuple(a + b for a, b in zip(v, g))
                return v

            q_mon = random_monoid()
            r_mon = random_monoid()
            if q_mon is None or r_mon is None:
                continue
            theta_cols = [random_element(q_mon, allow_zero=True)
                          for _ in range(p_rank)]
            psi_cols = [random_element(r_mon) for _ in range(p_rank)]
            theta = hom(p, q_mon, [[c[i] for c in theta_cols]
                                   for i in range(q_mon.ambient_rank)])
            psi = hom(p, r_mon, [[c[i] for c in psi_cols]
                                 for i in range(r_mon.ambient_rank)])
            if not is_local(psi):
                continue
            prob = FiberProblem(p, (theta,))
            query = LogPointQuery(r_mon, psi)
            w = firm_check(prob, query)
            res = firm_check_pushout(prob, query)
            assert (w is not None) == res.firm, (theta.matrix, psi.matrix)
            if w is not None:
                assert verify_witness(prob, query, w)
            done += 1


def random_fiber_problem(rng):
    """P = N^p with p <= 2; R and each of one to three Q_i of rank <= 2, or
    Q_i of rank 3 when R has rank 1, so that the pushouts the face loop
    takes apart have rank <= 3.  About a third of the charts may send a
    generator of P to 0, which often leaves the pushout leg R -> N not
    local."""
    p_rank = rng.randint(1, 2)
    p = N(p_rank)
    r_rank = rng.randint(1, 2)

    def monoid(rank):
        while True:
            gens = [tuple(rng.randint(0, 3) for _ in range(rank))
                    for _ in range(rng.randint(rank, rank + 2))]
            m = saturate(rank, [g for g in gens if any(g)])
            if m.sharp and m.group_rank == rank:
                return m

    def random_hom(m, terms):
        cols = []
        for _ in range(p_rank):
            v = (0,) * m.ambient_rank
            for _ in range(rng.randint(*terms)):
                v = tuple(a + b for a, b in zip(v, rng.choice(m.generators)))
            cols.append(v)
        return hom(p, m, [[c[i] for c in cols] for i in range(m.ambient_rank)])

    r = monoid(r_rank)
    psi = random_hom(r, (1, 2))
    while not is_local(psi):
        psi = random_hom(r, (1, 2))
    charts = tuple(random_hom(monoid(rng.randint(1, 3 if r_rank == 1 else 2)),
                              (0, 2) if rng.random() < 0.3 else (1, 2))
                   for _ in range(rng.randint(1, 3)))
    return FiberProblem(p, charts), LogPointQuery(r, psi)


def test_pushout_matches_face_loop_oracle():
    # one retraction search at the zero face of N decides what the loop over
    # every face of N decides, with the same chart, face and a retraction
    rng = random.Random(1409)
    seen = {"firm": 0, "not firm": 0, "rank 3": 0, "leg not local": 0}
    for _ in range(320):
        prob, q = random_fiber_problem(rng)
        got = firm_check_pushout(prob, q)
        want = face_loop_pushout(prob, q)
        assert (got.firm, got.component_index) == (want.firm,
                                                   want.component_index)
        legs = [fs_pushout(theta, q.psi).leg2 for theta in prob.components]
        if got.firm:
            assert got.face == want.face
            assert not got.face.generator_subset
            leg = legs[got.component_index]
            assert (got.retraction.compose(leg).local
                    == identity_hom(q.point_monoid).local)
        seen["firm" if got.firm else "not firm"] += 1
        seen["rank 3"] += any(t.target.group_rank == 3 for t in prob.components)
        seen["leg not local"] += sum(not is_local(leg) for leg in legs)
    assert min(seen.values()) >= 80, seen


def test_zero_preimage_face_matches_face_lattice():
    # h^{-1}(0), read off the facets that vanish on the extreme rays h sends
    # to 0, is the face with the same Hilbert elements in the whole lattice
    rng = random.Random(2203)
    seen = {"zero face": 0, "proper face": 0, "whole monoid": 0, "rank 3": 0}
    for _ in range(240):
        rank = rng.randint(1, 3)
        gens = [tuple(rng.randint(0, 3) for _ in range(rank))
                for _ in range(rng.randint(rank, rank + 2))]
        q = saturate(rank, [g for g in gens if any(g)])
        if not q.sharp or q.group_rank == 0:
            continue
        # h: Q -> N^k, each coordinate a sum of facets of Q (or 0), so that
        # h sends to 0 the face on which the chosen facets vanish
        rows = []
        for _ in range(rng.randint(1, 3)):
            chosen = rng.sample(q.facets_local, rng.randint(0, min(2, len(q.facets_local))))
            rows.append(tuple(sum(col) for col in zip((0,) * q.group_rank, *chosen)))
        h = MonoidHom(q, N(len(rows)), local=rows)
        got = _zero_preimage_face(h)
        killed = tuple(i for i, c in enumerate(q.hilbert_local)
                       if not any(sum(a * b for a, b in zip(row, c)) for row in rows))
        assert got.generator_subset == killed
        assert got == next(f for f in faces(q) if f.generator_subset == killed)
        seen["zero face" if not killed else "whole monoid"
             if len(killed) == len(q.hilbert_local) else "proper face"] += 1
        seen["rank 3"] += q.group_rank == 3
    assert min(seen.values()) >= 30, seen


class TestDichotomy:
    def test_free_local_inclusion(self):
        n, n2 = N(), N(2)
        theta = hom(n, n2, [[1], [0]])
        out = dichotomy(theta, "constructed")
        assert isinstance(out, Retraction)
        assert out.hom.compose(theta).apply((1,)) == (1,)

    def test_nonlocal_boundary(self):
        n = N()
        theta = hom(n, n, [[0]])
        out = dichotomy(theta, "constructed")
        assert isinstance(out, BoundaryFactorization)
        assert out.face.generator_subset == (0,)

    def test_identity(self):
        out = dichotomy(identity_hom(N(2)), "constructed")
        assert isinstance(out, Retraction)
        assert out.hom.matrix == ((1, 0), (0, 1))

    def test_monoids_that_are_not_sharp(self):
        # a target with units: h^{-1}(0) need not be a face
        z = saturate(1, [(1,), (-1,)])
        with pytest.raises(NotSharp):
            dichotomy(hom(N(2), z, [[1, -1]]), "constructed")
        # a source with units: (a, b) -> b kills the units, not a face of
        # a sharp monoid
        zn = saturate(2, [(1, 0), (-1, 0), (0, 1)])
        with pytest.raises(NotSharp):
            dichotomy(hom(zn, N(), [[0, 1]]), "constructed")

    def test_semidecision_evidence(self):
        n, n2 = N(), N(2)
        theta = hom(n, n2, [[1], [0]])
        ev = (is_integral(theta, bound=6), is_saturated(theta, bound=6))
        out = dichotomy(theta, ev)
        assert isinstance(out, Retraction)

    def test_refuted_evidence(self):
        # x -> 2x is local and has no retraction: it is not saturated
        n = N()
        with pytest.raises(EvidenceMissing,
                           match="not both integral and saturated"):
            dichotomy(hom(n, n, [[2]]), "constructed")

    def test_missing_evidence(self):
        with pytest.raises(EvidenceMissing):
            dichotomy(identity_hom(N()), None)
        with pytest.raises(EvidenceMissing):
            dichotomy(identity_hom(N()),
                      (SemiDecision("probably_yes", 2),
                       SemiDecision("probably_yes", 2)))


class TestGenerization:
    def test_zero_face_returns_original(self):
        n = N()
        q = LogPointQuery(n, hom(n, n, [[6]]))
        prob = two_three_problem()
        w = firm_check(prob, q)
        out = generization_witnesses(prob, q, w)
        zero = next(f for f in out if not f.generator_subset)
        assert out[zero].hom.matrix == w.hom.matrix

    def test_identity_query_keeps_only_zero_face(self):
        # localizing the identity query at any nonzero face kills a
        # generator, so only the zero face survives the locality filter
        n2 = N(2)
        prob = FiberProblem(n2, (identity_hom(n2),))
        q = LogPointQuery(n2, identity_hom(n2))
        w = firm_check(prob, q)
        out = generization_witnesses(prob, q, w)
        assert [f.generator_subset for f in out] == [()]

    def test_diagonal_query_survives_ray_localizations(self):
        n, n2 = N(), N(2)
        diag = hom(n, n2, [[1], [1]])
        prob = FiberProblem(n, (diag,))
        q = LogPointQuery(n2, diag)
        w = firm_check(prob, q)
        out = generization_witnesses(prob, q, w)
        # both axis rays keep the diagonal query local
        ray_faces = [f for f in out if len(f.generator_subset) == 1]
        assert len(ray_faces) == 2
        for wit in out.values():
            loc_q = LogPointQuery(wit.hom.target,
                                  wit.hom.compose(prob.components[0]))
            assert verify_witness(prob, loc_q, wit)

    def test_given_witness_that_fails_rejected(self):
        n = N()
        prob = two_three_problem()
        q = LogPointQuery(n, hom(n, n, [[6]]))
        w = firm_check(prob, q)
        with pytest.raises(ValueError, match="does not verify"):
            generization_witnesses(
                prob, q, FirmnessWitness(5, w.hom, w.induced_face))

    def test_localized_witness_that_fails_raises(self, monkeypatch):
        # the given witness verifies and every localized one is made to
        # fail: that is a fault, not a face to leave out of the answer
        n = N()
        prob = two_three_problem()
        q = LogPointQuery(n, hom(n, n, [[6]]))
        w = firm_check(prob, q)
        monkeypatch.setattr(firm, "verify_witness",
                            lambda problem, query, witness: query is q)
        with pytest.raises(AssertionError, match="localized witness"):
            generization_witnesses(prob, q, w)

    def test_locality_filter_drops_full_face(self):
        # localizing at all of R kills the query unless P is trivial
        n = N()
        prob = two_three_problem()
        q = LogPointQuery(n, hom(n, n, [[6]]))
        w = firm_check(prob, q)
        out = generization_witnesses(prob, q, w)
        assert all(len(f.generator_subset) < len(faces(n)[-1].generator_subset)
                   or not f.generator_subset for f in out)
        full = [f for f in out if len(f.generator_subset) == 1]
        assert not full  # R = N: the only nonzero face is R itself


class TestWitnessStability:
    def test_base_change_and_sieve(self):
        # composing a witness with a local hom R -> R' witnesses the
        # composed query against the same components
        n = N()
        prob = two_three_problem()
        q = LogPointQuery(n, hom(n, n, [[6]]))
        w = firm_check(prob, q)
        rho = hom(n, n, [[2]])  # local
        psi2 = rho.compose(q.psi)
        q2 = LogPointQuery(n, psi2)
        w2 = FirmnessWitness(w.component_index, rho.compose(w.hom),
                             w.induced_face)
        assert verify_witness(prob, q2, w2)

    def test_recheck_refutes_bad_witnesses(self):
        base, charts = kummer_two_three()
        prob = FiberProblem(base, tuple(charts))
        q = LogPointQuery(base, hom(base, base, [[6]]))
        w = firm_check(prob, q)
        assert verify_witness(prob, q, w)
        i, q_i = w.component_index, w.hom.source
        bad = [
            FirmnessWitness(len(charts), w.hom, w.induced_face),
            # 5 * theta_0 = 10, not psi = 6
            FirmnessWitness(i, MonoidHom(q_i, base, local=((5,),)),
                            w.induced_face),
            # the whole of Q_i, on which every element of P vanishes
            FirmnessWitness(i, w.hom, next(f for f in faces(q_i)
                                           if not any(f.normal))),
        ]
        assert [verify_witness(prob, q, b) for b in bad] == [False] * 3

    def test_recheck_refutes_a_hom_from_another_chart_target(self):
        # h: N^2 -> N factors the identity through the diagonal, and does
        # not start where the doubling chart ends
        n = N()
        prob = FiberProblem(n, (hom(n, N(2), [[1], [1]]), hom(n, n, [[2]])))
        q = LogPointQuery(n, identity_hom(n))
        w = firm_check(prob, q)
        assert w.component_index == 0
        assert not verify_witness(
            prob, q, FirmnessWitness(1, w.hom, w.induced_face))

    def test_saturation_hypothesis_necessary(self):
        # the Kummer chart x -> x^2 with the identity query is not firm
        n = N()
        prob = FiberProblem(n, (hom(n, n, [[2]]),))
        q = LogPointQuery(n, identity_hom(n))
        assert firm_check(prob, q) is None
        sat = is_saturated(prob.components[0], bound=4)
        assert sat.verdict == "no"

    def test_local_free_charts_always_firm_at_chart_queries(self):
        # charts with constructed integral+saturated evidence and local:
        # identity-like inclusions are firm for their own queries
        n, n2 = N(), N(2)
        theta = hom(n, n2, [[1], [0]])
        prob = FiberProblem(n, (theta,))
        q = LogPointQuery(n, identity_hom(n))
        w = firm_check(prob, q)
        assert w is not None


_FAILED_RECHECK = """
import logfirm.firm as firm
from logfirm.monoid import MonoidHom, saturate

n = saturate(1, [(1,)])
prob = firm.FiberProblem(n, (MonoidHom(n, n, ((2,),)),))
q = firm.LogPointQuery(n, MonoidHom(n, n, ((6,),)))
w = firm.firm_check(prob, q)
# every re-check fails; then every one but that of the given witness
for verify, call in (
        (lambda *args: False, lambda: firm.firm_check(prob, q)),
        (lambda problem, query, witness: query is q,
         lambda: firm.generization_witnesses(prob, q, w))):
    firm.verify_witness = verify
    try:
        call()
    except AssertionError:
        continue
    raise SystemExit("a failed witness re-check went unnoticed")
print("ok")
"""


def test_witness_recheck_survives_optimized_mode():
    # python -O strips assert statements; the re-checks must still raise
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-O", "-c", _FAILED_RECHECK],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr + out.stdout
    assert out.stdout.strip() == "ok"
