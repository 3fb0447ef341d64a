"""Orbifold multiplicities of monomial ideals and Campana-point membership.

For a monomial ideal I, the multiplicity m(I) is the largest e with I
contained in the e-th power of every isolated prime; variants use the
primary decomposition (m_a), symbolic powers (m_b), and powers of the
radical (m_c and the threshold companion of m_d).  For a monomial ideal
m_a = m_b = m: localizing at an isolated prime p = (x_v : v in T) inverts
the other variables, so the p-primary component is generated by the
generators restricted to T, and its order in p is min_g sum_{v in T} g_v,
which is m's term for p (Miller & Sturmfels, Combinatorial Commutative
Algebra, 2005, ch. 5).  Together with the
intersection multiplicity of a DVR point, these decide membership in the
Campana set: valuation zero, valuation at least m, or lying inside the
subscheme outright.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .intlinalg import ConeImage, identity, int_at_least, int_vector, scaled_inverse
from .lift import MonomialChart

Exponent = tuple[int, ...]


class ZeroOrUnitIdeal(Exception):
    """The ideal is zero or the whole ring; multiplicities are undefined."""


class NotContaining(Exception):
    """The prime does not contain the ideal."""


class NotUnimodular(Exception):
    """The substitution matrix is not invertible over the rationals."""


class InZ:
    """Sentinel: the point lies inside the subscheme."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "InZ"


IN_Z = InZ()


# ---------------------------------------------------------------------------
# polynomials (only what linear substitution needs)


@dataclass(frozen=True)
class IntPolynomial:
    """Sparse integer polynomial: exponent vector -> coefficient."""

    num_vars: int
    terms: tuple[tuple[Exponent, int], ...]

    @staticmethod
    def from_dict(num_vars: int, d) -> "IntPolynomial":
        items = tuple(sorted((tuple(e), c) for e, c in d.items() if c))
        return IntPolynomial(num_vars, items)

    @staticmethod
    def linear(coeffs) -> "IntPolynomial":
        n = len(coeffs)
        d = {}
        for i, c in enumerate(coeffs):
            if c:
                d[tuple(1 if j == i else 0 for j in range(n))] = c
        return IntPolynomial.from_dict(n, d)

    @staticmethod
    def monomial(exponent, coeff=1) -> "IntPolynomial":
        return IntPolynomial.from_dict(len(exponent), {tuple(exponent): coeff})


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# monomial ideals


def _divides(a: Exponent, b: Exponent) -> bool:
    return all(x <= y for x, y in zip(a, b))


@dataclass(frozen=True)
class MonomialIdeal:
    """Ideal generated by monomials, stored by a minimal generator set.
    Raises ValueError unless ``num_vars`` is an int >= 0 and each generator
    holds ``num_vars`` nonnegative ints."""

    num_vars: int
    generators: tuple[Exponent, ...]

    def __post_init__(self):
        int_at_least(self.num_vars, "vars")
        for g in self.generators:
            int_vector(g, self.num_vars, "ideal generator")
        if any(e < 0 for g in self.generators for e in g):
            raise ValueError("ideal exponents must be nonnegative")

    @staticmethod
    def of(num_vars: int, generators) -> "MonomialIdeal":
        """The ideal of these exponent vectors, checked as given and then
        minimized."""
        gens = set(MonomialIdeal(num_vars, tuple(map(tuple, generators))).generators)
        minimal = [g for g in gens
                   if not any(h != g and _divides(h, g) for h in gens)]
        return MonomialIdeal(num_vars, tuple(sorted(minimal)))

    def contains_monomial(self, e) -> bool:
        e = tuple(e)
        return any(_divides(g, e) for g in self.generators)

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        return any(not any(g) for g in self.generators)


@dataclass(frozen=True)
class MonomialPrime:
    """The prime generated by a nonempty set of variables."""

    variables: frozenset[int]

    def __post_init__(self):
        if not self.variables:
            raise ValueError("a monomial prime needs at least one variable")


def _check_proper(i: MonomialIdeal):
    if i.is_zero or i.is_unit:
        raise ZeroOrUnitIdeal("multiplicities need a nonzero proper ideal")


def minimal_primes(i: MonomialIdeal) -> list[MonomialPrime]:
    """Isolated primes: the set-minimal transversals of the generator
    supports."""
    _check_proper(i)
    supports = [frozenset(j for j, e in enumerate(g) if e)
                for g in i.generators]
    used = sorted(set().union(*supports))
    transversals = []
    for size in range(1, len(used) + 1):
        for sub in itertools.combinations(used, size):
            s = frozenset(sub)
            if all(s & sup for sup in supports):
                if not any(t < s for t in transversals):
                    transversals.append(s)
    return [MonomialPrime(t) for t in sorted(transversals, key=sorted)]


def containment_order(i: MonomialIdeal, p: MonomialPrime) -> int:
    """max{e : I is contained in p^e} = the least p-degree of a generator."""
    orders = []
    for g in i.generators:
        deg = sum(g[v] for v in p.variables)
        if deg == 0:
            raise NotContaining("a generator avoids the prime")
        orders.append(deg)
    if not orders:
        raise ZeroOrUnitIdeal("zero ideal")
    return min(orders)


def m_multiplicity(i: MonomialIdeal) -> int:
    _check_proper(i)
    return min(containment_order(i, p) for p in minimal_primes(i))


# -- variants ---------------------------------------------------------------


def radical(i: MonomialIdeal) -> MonomialIdeal:
    return MonomialIdeal.of(
        i.num_vars, [tuple(1 if e else 0 for e in g) for g in i.generators])


def _power_system(prime_gens, num_vars: int) -> ConeImage:
    """Monomial membership in (r_1, ..., r_k)^e as one cone image for every
    e and monomial g: x^g lies in it exactly when (e, g) = A·(c, s) for
    some (c, s) in N^(k + num_vars), with A = [[1 ... 1, 0], [Rᵀ, I]]: c
    picks e generators and s is the slack g - sum c_t r_t.
    :func:`_power_contains` asks it for one (e, monomial)."""
    k = len(prime_gens)
    return ConeImage(
        [[1] * k + [0] * num_vars]
        + [[g[j] for g in prime_gens] + e for j, e in enumerate(identity(num_vars))],
        identity(k + num_vars), k + num_vars)


def _power_contains(system: ConeImage, e: int, monomial: Exponent) -> bool:
    """Whether the monomial lies in the power e of the ideal of
    ``system``, a :func:`_power_system`."""
    return system.preimage([e, *monomial]) is not None


def variant_multiplicities(i: MonomialIdeal):
    """(m_a, m_b, m_c, m_d_threshold) for a proper nonzero monomial ideal.

    m_a and m_b are m: localizing at an isolated prime p = (x_v : v in T)
    inverts the other variables, so the p-primary component is generated by
    the generators restricted to T.  Its order in p, which is also the
    largest e with I inside the symbolic power p^(e), is therefore
    min_g sum_{v in T} g_v: m's term for p.
    """
    m = m_multiplicity(i)

    # m_c: largest e with I inside radical(I)^e
    rad = radical(i).generators
    power = _power_system(rad, i.num_vars)
    bound = max(sum(g) for g in i.generators)
    m_c = 0
    for e in range(1, bound + 1):
        if all(_power_contains(power, e, g) for g in i.generators):
            m_c = e
        else:
            break

    # threshold companion of m_d: least e with radical(I)^e inside I.  level
    # holds the products of e radical generators outside I.  A multiple of a
    # member of I is in I, so dropping the others is exact, and the walk ends
    # because some power of radical(I) lies in I.
    level = {(0,) * i.num_vars}
    m_d_threshold = 0
    while level:
        m_d_threshold += 1
        products = {tuple(x + y for x, y in zip(a, s))
                    for a in level for s in rad}
        level = {p for p in products if not i.contains_monomial(p)}
    return m, m, m_c, m_d_threshold


# ---------------------------------------------------------------------------
# Campana membership


def intersection_multiplicity(i: MonomialIdeal, vals, in_z: bool = False):
    """Valuation of the ideal at a DVR point with the given coordinate
    valuations; the in_z flag marks points lying inside the subscheme.
    Raises ValueError unless vals holds i.num_vars nonnegative ints."""
    vals = int_vector(vals, i.num_vars, "vals")
    if any(v < 0 for v in vals):
        raise ValueError("valuations must be nonnegative")
    if in_z or i.is_zero:
        return IN_Z
    return min(sum(e * v for e, v in zip(g, vals)) for g in i.generators)


def campana_member(n, m: int) -> bool:
    """Whether a point with intersection multiplicity n belongs to the
    Campana set of level m: inside the subscheme, untouched, or deep enough.
    Raises ValueError unless n is IN_Z or an int >= 0, and m an int >= 1."""
    int_at_least(m, "multiplicity level", 1)
    if isinstance(n, InZ):
        return True
    return int_at_least(n, "intersection multiplicity") == 0 or n >= m


# ---------------------------------------------------------------------------
# substitutions and pullbacks


def _substitute(poly: IntPolynomial, w) -> dict:
    """Expand poly(W x') over the integers, for W = p·M⁻¹.  The
    substitution is linear, so it keeps degrees, and poly(W x') is
    poly(M⁻¹ x') with each degree-d part scaled by p^d: the two have the
    same monomials."""
    n = poly.num_vars
    # the image of each old variable as a dict polynomial in the new ones
    images = []
    for i in range(n):
        img = {}
        for j in range(n):
            c = w[i][j]
            if c:
                img[tuple(1 if k == j else 0 for k in range(n))] = c
        images.append(img)
    zero_exp = tuple([0] * n)
    out: dict = {}
    for exp, coeff in poly.terms:
        term = {zero_exp: coeff}
        for i, e in enumerate(exp):
            for _ in range(e):
                term = _poly_mul(term, images[i])
        for k, v in term.items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def linear_substitution(polys, matrix) -> MonomialIdeal | None:
    """Rewrite generators in the coordinates x' = M.x and return the
    resulting monomial ideal, or None when some generator fails to become a
    single monomial.  Generators may be given pre-factored as lists of
    polynomials (the factors are substituted individually and their
    exponents added)."""
    num_vars = len(matrix)
    if any(len(row) != num_vars for row in matrix):
        raise NotUnimodular("substitution matrix is not square")
    scaled = scaled_inverse(matrix)
    if scaled is None:
        raise NotUnimodular("substitution matrix is singular")
    _, w = scaled
    gens = []
    for entry in polys:
        factors = entry if isinstance(entry, (list, tuple)) else [entry]
        exponent = [0] * num_vars
        ok = True
        for f in factors:
            expanded = _substitute(f, w)
            if len(expanded) != 1:
                ok = False
                break
            (e, _coeff), = expanded.items()
            exponent = [a + b for a, b in zip(exponent, e)]
        if not ok:
            return None
        gens.append(tuple(exponent))
    return MonomialIdeal.of(num_vars, gens)


def pullback_ideal(chart: MonomialChart, i: MonomialIdeal) -> MonomialIdeal:
    """Substitute each target variable by its source monomial."""
    m = chart.num_source
    gens = []
    for g in i.generators:
        exp = tuple(sum(g[j] * chart.matrix[j][k] for j in range(len(g)))
                    for k in range(m))
        gens.append(exp)
    return MonomialIdeal.of(m, gens)
