"""Tests for monomial-ideal multiplicities and Campana membership."""

import itertools
import random

import pytest

import logfirm.intlinalg
from logfirm.campana import (
    IN_Z,
    IntPolynomial,
    MonomialIdeal,
    MonomialPrime,
    NotContaining,
    NotUnimodular,
    ZeroOrUnitIdeal,
    campana_member,
    containment_order,
    intersection_multiplicity,
    linear_substitution,
    m_multiplicity,
    minimal_primes,
    pullback_ideal,
    radical,
    variant_multiplicities,
)
from logfirm.lift import MonomialChart

from campana_oracle import (
    irreducible_decomposition,
    primary_components,
    radical_power_threshold,
)

# u = x^2, v = y^2, w = y z
CHART = MonomialChart(((2, 0, 0), (0, 2, 0), (0, 1, 1)))


def ideal(num_vars, gens):
    return MonomialIdeal.of(num_vars, gens)


def brute_minimal_primes(i: MonomialIdeal):
    """Oracle: scan every variable subset for minimal transversals."""
    supports = [frozenset(j for j, e in enumerate(g) if e)
                for g in i.generators]
    used = sorted(set().union(*supports))
    hits = [frozenset(s) for r in range(1, len(used) + 1)
            for s in itertools.combinations(used, r)
            if all(frozenset(s) & sup for sup in supports)]
    return sorted((h for h in hits if not any(o < h for o in hits)),
                  key=sorted)


def brute_power_member(rad_gens, e, monomial):
    """Oracle: monomial in (rad)^e iff some product of e generators
    divides it."""
    for combo in itertools.combinations_with_replacement(rad_gens, e):
        total = [sum(g[v] for g in combo) for v in range(len(monomial))]
        if all(a <= b for a, b in zip(total, monomial)):
            return True
    return False


def random_ideal(rng, num_vars=3, max_gens=4, max_exp=3):
    while True:
        gens = [tuple(rng.randint(0, max_exp) for _ in range(num_vars))
                for _ in range(rng.randint(1, max_gens))]
        gens = [g for g in gens if any(g)]
        if gens:
            return MonomialIdeal.of(num_vars, gens)


class TestIdealBasics:
    def test_minimal_generators(self):
        i = ideal(2, [(2, 0), (3, 0), (2, 1)])
        assert i.generators == ((2, 0),)

    def test_membership(self):
        i = ideal(2, [(2, 0), (0, 2)])
        assert i.contains_monomial((2, 1))
        assert not i.contains_monomial((1, 1))

    def test_radical(self):
        i = ideal(3, [(2, 0, 0), (0, 2, 0), (0, 1, 1)])
        assert radical(i).generators == ((0, 1, 0), (1, 0, 0))

    def test_zero_and_unit_rejected(self):
        with pytest.raises(ZeroOrUnitIdeal):
            m_multiplicity(ideal(2, []))
        with pytest.raises(ZeroOrUnitIdeal):
            m_multiplicity(ideal(2, [(0, 0)]))

    @pytest.mark.parametrize("gens", [
        [(-1, 2), (1, 0)],    # m was -1
        [(0, 0, 5)],          # m was 5, the extra exponent read as if on y
        [(1,)],
        [(True, 0)],
        [(1.0, 0)]])
    def test_generators_checked_before_minimizing(self, gens):
        with pytest.raises(ValueError):
            ideal(2, gens)

    @pytest.mark.parametrize("gens", [
        ((-1, 2), (1, 0)),    # m was -1
        ((0, 0, 5),),         # m was 5
        ((1,),),
        ((True, 0),),
        ((1.0, 0),)])
    def test_every_record_is_checked(self, gens):
        # the dataclass constructor, not only MonomialIdeal.of
        with pytest.raises(ValueError):
            m_multiplicity(MonomialIdeal(2, gens))

    def test_prime_needs_variables(self):
        with pytest.raises(ValueError):
            MonomialPrime(frozenset())


class TestMinimalPrimes:
    def test_x2_y2(self):
        primes = minimal_primes(ideal(2, [(2, 0), (0, 2)]))
        assert [sorted(p.variables) for p in primes] == [[0, 1]]

    def test_y2_yz(self):
        primes = minimal_primes(ideal(3, [(0, 2, 0), (0, 1, 1)]))
        assert [sorted(p.variables) for p in primes] == [[1]]

    def test_x2_xy(self):
        primes = minimal_primes(ideal(2, [(2, 0), (1, 1)]))
        assert [sorted(p.variables) for p in primes] == [[0]]

    def test_corpus_against_subset_scan(self):
        rng = random.Random(40739)
        for _ in range(60):
            i = random_ideal(rng)
            got = sorted((p.variables for p in minimal_primes(i)), key=sorted)
            assert got == brute_minimal_primes(i)


class TestContainmentOrder:
    def test_order_is_least_prime_degree(self):
        i = ideal(2, [(2, 0), (0, 2)])
        p = MonomialPrime(frozenset({0, 1}))
        assert containment_order(i, p) == 2

    def test_not_containing(self):
        i = ideal(2, [(2, 0), (0, 2)])
        with pytest.raises(NotContaining):
            containment_order(i, MonomialPrime(frozenset({0})))

    def test_mixed_degrees(self):
        i = ideal(3, [(0, 2, 0), (0, 1, 1)])
        assert containment_order(i, MonomialPrime(frozenset({1}))) == 1

    def test_zero_ideal(self):
        with pytest.raises(ZeroOrUnitIdeal):
            containment_order(ideal(2, []), MonomialPrime(frozenset({0})))


class TestMultiplicity:
    def test_square_pair(self):
        assert m_multiplicity(ideal(2, [(2, 0), (0, 2)])) == 2

    def test_single_square(self):
        assert m_multiplicity(ideal(2, [(0, 2)])) == 2

    def test_y2_yz(self):
        assert m_multiplicity(ideal(3, [(0, 2, 0), (0, 1, 1)])) == 1

    def test_x3y(self):
        assert m_multiplicity(ideal(2, [(3, 1)])) == 1

    def test_x2_xy(self):
        assert m_multiplicity(ideal(2, [(2, 0), (1, 1)])) == 1


class TestDecomposition:
    def test_x2_xy_splits(self):
        comps = irreducible_decomposition(ideal(2, [(2, 0), (1, 1)]))
        gens = sorted(c.generators for c in comps)
        assert gens == [((0, 1), (2, 0)), ((1, 0),)]

    def test_components_intersect_to_ideal(self):
        rng = random.Random(90210)
        for _ in range(40):
            i = random_ideal(rng)
            comps = irreducible_decomposition(i)
            for c in comps:
                # pure variable powers only
                for g in c.generators:
                    assert sum(1 for e in g if e) == 1
            # intersection equals the ideal on a box of monomials
            bound = max(max(g) for g in i.generators) + 1
            for mono in itertools.product(range(bound + 1),
                                          repeat=i.num_vars):
                inter = all(c.contains_monomial(mono) for c in comps)
                assert inter == i.contains_monomial(mono), (i, mono)

    def test_primary_components_grouped(self):
        comps = primary_components(ideal(2, [(2, 0), (1, 1)]))
        keys = sorted(sorted(p.variables) for p, _ in comps)
        assert keys == [[0], [0, 1]]

    def test_primary_order_is_m(self):
        """m_a computed the long way, as the least containment order of an
        isolated primary component in its prime, is m, and is the m_a and
        m_b that variant_multiplicities returns."""
        rng = random.Random(61843)
        redundant = non_squarefree = 0
        for _ in range(320):
            n = rng.randint(1, 5)
            gens = [g for g in (tuple(rng.randint(0, 4) for _ in range(n))
                                for _ in range(rng.randint(1, 7))) if any(g)]
            if not gens:
                gens = [tuple(rng.randint(1, 4) for _ in range(n))]
            if rng.random() < 0.5:
                # a multiple of a generator, which the minimal set drops
                g = rng.choice(gens)
                gens.append(tuple(e + rng.randint(0, 2) for e in g))
            i = ideal(n, gens)
            redundant += len(i.generators) < len(set(gens))
            non_squarefree += any(e > 1 for g in i.generators for e in g)
            comps = primary_components(i)
            keys = [p.variables for p, _ in comps]
            isolated = [(p, q) for p, q in comps
                        if not any(o < p.variables for o in keys)]
            assert (sorted((p.variables for p, _ in isolated), key=sorted)
                    == brute_minimal_primes(i))
            m_a = min(containment_order(q, p) for p, q in isolated)
            assert m_a == m_multiplicity(i), i
            assert variant_multiplicities(i)[:2] == (m_a, m_a), i
        assert redundant >= 100 and non_squarefree >= 200


class TestVariants:
    def test_square_pair_values(self):
        m_a, m_b, m_c, m_d = variant_multiplicities(ideal(2, [(2, 0), (0, 2)]))
        assert (m_a, m_b, m_c, m_d) == (2, 2, 2, 3)

    def test_plain_prime(self):
        m_a, m_b, m_c, m_d = variant_multiplicities(ideal(2, [(1, 0)]))
        assert (m_a, m_b, m_c, m_d) == (1, 1, 1, 1)

    def test_x2_xy(self):
        m_a, m_b, m_c, m_d = variant_multiplicities(ideal(2, [(2, 0), (1, 1)]))
        assert m_a == 1 and m_b == 1

    def test_power_membership_oracle(self):
        # one prepared system per radical answers every power and monomial
        rng = random.Random(55511)
        from logfirm.campana import _power_contains, _power_system
        for _ in range(40):
            i = random_ideal(rng, num_vars=3, max_exp=2)
            rad = radical(i).generators
            system = _power_system(rad, 3)
            for e in range(1, 4):
                for g in i.generators:
                    assert (_power_contains(system, e, g)
                            == brute_power_member(rad, e, g)), (rad, e, g)

    def test_power_membership_takes_one_smith_form(self, monkeypatch):
        # the m_c loop solves one matrix for each power and generator
        calls = []
        real = logfirm.intlinalg.smith_normal_form

        def counting(m, cols):
            calls.append(m)
            return real(m, cols)

        monkeypatch.setattr(logfirm.intlinalg, "smith_normal_form", counting)
        fourth = [tuple(4 * (j == k) for j in range(7)) for k in range(7)]
        assert variant_multiplicities(ideal(7, fourth)) == (4, 4, 4, 22)
        assert len(calls) == 1

    def test_inequalities_on_corpus(self):
        rng = random.Random(77317)
        for _ in range(50):
            i = random_ideal(rng)
            m = m_multiplicity(i)
            m_a, m_b, m_c, m_d = variant_multiplicities(i)
            assert m == m_a
            assert m >= m_c
            assert m_b == m_a
            assert m_d >= m_c

    def test_threshold_is_genuine(self):
        # radical^e inside the ideal exactly from the threshold onward
        i = ideal(2, [(2, 0), (0, 2)])
        rad = radical(i).generators
        # xy lies in rad^2 = (x, y)^2 but not in I, so rad^2 is not inside I
        assert brute_power_member(rad, 2, (1, 1))
        assert not i.contains_monomial((1, 1))
        for e in (1, 2):
            assert any(
                not i.contains_monomial(
                    tuple(sum(g[v] for g in combo) for v in range(2)))
                for combo in
                itertools.combinations_with_replacement(rad, e))
        # every product of three radical generators lies in I
        assert all(
            i.contains_monomial(
                tuple(sum(g[v] for g in combo) for v in range(2)))
            for combo in itertools.combinations_with_replacement(rad, 3))

    def test_threshold_walk_matches_enumeration(self):
        """The walk over products outside I finds the same least e with
        radical(I)^e inside I as listing every product of e generators."""
        rng = random.Random(27183)
        many_vars = 0
        for _ in range(340):
            n = rng.randint(1, 5)
            gens = [g for g in (tuple(rng.randint(0, 4) for _ in range(n))
                                for _ in range(rng.randint(1, 6))) if any(g)]
            if not gens:
                gens = [tuple(rng.randint(1, 4) for _ in range(n))]
            i = ideal(n, gens)
            many_vars += n >= 4
            assert variant_multiplicities(i)[3] == radical_power_threshold(i), i
        assert many_vars >= 100


class TestIntersectionMultiplicity:
    def test_basic(self):
        i = ideal(2, [(2, 0), (0, 2)])
        assert intersection_multiplicity(i, (1, 3)) == 2
        assert intersection_multiplicity(i, (0, 0)) == 0

    def test_in_z_flag(self):
        i = ideal(2, [(2, 0)])
        assert intersection_multiplicity(i, (1, 0), in_z=True) is IN_Z

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            intersection_multiplicity(ideal(1, [(1,)]), (-1,))

    @pytest.mark.parametrize("in_z", [False, True])
    @pytest.mark.parametrize("vals", [[3], [3, 1, 9], [3, True], [3, 1.0],
                                      [-1, 2]])
    def test_one_nonnegative_integer_per_variable(self, vals, in_z):
        # on (x y^2), [3] answered 3 and [3, 1, 9] answered 5
        with pytest.raises(ValueError):
            intersection_multiplicity(ideal(2, [(1, 2)]), vals, in_z=in_z)


class TestCampanaMember:
    def test_levels(self):
        assert campana_member(0, 2)
        assert campana_member(2, 2)
        assert not campana_member(1, 2)
        assert campana_member(IN_Z, 5)

    def test_bad_level(self):
        with pytest.raises(ValueError):
            campana_member(1, 0)


class TestLinearSubstitution:
    def test_factored_difference_of_squares(self):
        x_minus_y = IntPolynomial.linear((1, -1, 0))
        x_plus_y = IntPolynomial.linear((1, 1, 0))
        m = [[1, -1, 0], [1, 1, 0], [0, 0, 1]]
        out = linear_substitution([[x_minus_y, x_plus_y]], m)
        assert out is not None
        assert out.generators == ((1, 1, 0),)

    def test_expanded_difference_of_squares(self):
        p = IntPolynomial.from_dict(2, {(2, 0): 1, (0, 2): -1})
        m = [[1, -1], [1, 1]]
        out = linear_substitution([p], m)
        assert out is not None
        assert out.generators == ((1, 1),)

    def test_sum_of_squares_has_no_monomial_form(self):
        p = IntPolynomial.from_dict(2, {(2, 0): 1, (0, 2): 1})
        assert linear_substitution([p], [[1, -1], [1, 1]]) is None
        assert linear_substitution([p], [[1, 0], [0, 1]]) is None

    def test_identity_keeps_monomials(self):
        p = IntPolynomial.monomial((2, 1))
        out = linear_substitution([p], [[1, 0], [0, 1]])
        assert out.generators == ((2, 1),)

    def test_singular_rejected(self):
        p = IntPolynomial.monomial((1, 0))
        with pytest.raises(NotUnimodular, match="substitution matrix is singular"):
            linear_substitution([p], [[1, 1], [1, 1]])

    @pytest.mark.parametrize("m", [[[1, 2]], [[1], [2]], [[1, 0], [0]]])
    def test_non_square_rejected(self, m):
        p = IntPolynomial.monomial((1, 0))
        with pytest.raises(NotUnimodular, match="substitution matrix is not square"):
            linear_substitution([p], m)


class TestPullback:
    def test_uv(self):
        i = ideal(3, [(1, 0, 0), (0, 1, 0)])
        assert pullback_ideal(CHART, i).generators == ((0, 2, 0), (2, 0, 0))

    def test_v(self):
        i = ideal(3, [(0, 1, 0)])
        assert pullback_ideal(CHART, i).generators == ((0, 2, 0),)

    def test_vw(self):
        i = ideal(3, [(0, 1, 0), (0, 0, 1)])
        assert pullback_ideal(CHART, i).generators == ((0, 1, 1), (0, 2, 0))


class TestWorkedMultiplicities:
    """The four subschemes of the quotient chart u = x^2, v = y^2, w = yz."""

    def test_diagonal_u_equals_v(self):
        # the pullback x^2 - y^2 becomes a monomial after the linear change
        # x' = x - y, y' = x + y
        factors = [IntPolynomial.linear((1, -1, 0)),
                   IntPolynomial.linear((1, 1, 0))]
        m = [[1, -1, 0], [1, 1, 0], [0, 0, 1]]
        i = linear_substitution([factors], m)
        assert i is not None
        assert m_multiplicity(i) == 1

    def test_uv_locus(self):
        i = pullback_ideal(CHART, ideal(3, [(1, 0, 0), (0, 1, 0)]))
        assert m_multiplicity(i) == 2

    def test_v_locus(self):
        i = pullback_ideal(CHART, ideal(3, [(0, 1, 0)]))
        assert m_multiplicity(i) == 2

    def test_vw_locus(self):
        i = pullback_ideal(CHART, ideal(3, [(0, 1, 0), (0, 0, 1)]))
        assert m_multiplicity(i) == 1


class TestCampanaHarness:
    """Every source valuation point satisfies the membership bound for the
    multiplicity of the pulled-back subscheme."""

    @pytest.mark.parametrize("gens", [
        [(1, 0, 0), (0, 1, 0)],
        [(0, 1, 0)],
        [(0, 1, 0), (0, 0, 1)],
    ])
    def test_box_five(self, gens):
        i = ideal(3, gens)
        m = m_multiplicity(pullback_ideal(CHART, i))
        count = 0
        for y in itertools.product(range(6), repeat=3):
            vals = [sum(CHART.matrix[j][k] * y[k] for k in range(3))
                    for j in range(3)]
            n = intersection_multiplicity(i, vals)
            assert campana_member(n, m), (gens, y, n, m)
            count += 1
        assert count == 216
