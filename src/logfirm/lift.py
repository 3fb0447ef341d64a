"""Solving DVR-point lifts through monomial maps.

A monomial chart sends source coordinates (x_1, ..., x_m) to target
coordinates y_j = prod_i x_i^{A[j][i]}.  A DVR point of the target is
y_j = u_{y_j} * pi^{e_j} with units u_{y_j}.  Lifting splits into an
exponent system over N (integer feasibility) and a multiplicative unit
system solved symbolically on exponent lattices over Q: the denominators of
the solution are the root orders of units one must adjoin, and the primes
dividing them are exactly where the extension ramifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .intlinalg import (
    ConeImage, identity, int_vector, scaled_solution, smith_normal_form)


def _primes_of(n: int) -> set[int]:
    out = set()
    n = abs(n)
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


@dataclass(frozen=True)
class MonomialChart:
    """matrix[j][i] = exponent of x_i in y_j; all entries nonnegative
    ints, and every row as long as the first, else ValueError."""

    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for row in self.matrix:
            if any(a < 0 for a in int_vector(row, self.num_source, "exponent row")):
                raise ValueError("monomial exponents must be nonnegative")

    @property
    def num_target(self) -> int:
        return len(self.matrix)

    @property
    def num_source(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0


@dataclass(frozen=True)
class DVRTargetPoint:
    """y_j = u_{y_j} * pi^{valuations[j]}."""

    valuations: tuple[int, ...]


@dataclass(frozen=True)
class NotInFirmament:
    valuations: tuple[int, ...]


@dataclass(frozen=True)
class LiftSolution:
    exponents: tuple[int, ...]
    unit_matrix: tuple[tuple[Fraction, ...], ...]  # u_{x_i} = prod_j u_{y_j}^C[i][j]
    root_orders: tuple[int, ...]                   # per source unit
    ramification_primes: frozenset[int]
    unit_constraints: tuple[tuple[int, ...], ...]  # rows L: prod u_{y_j}^{L_j} = 1
    etale: bool | None = None                      # set when a residue char is given


def solve_exponents(chart: MonomialChart, e) -> tuple[int, ...] | None:
    """A nonnegative integer solution x of A.x = e, or None (complete): a
    lattice point of N^m that A sends to e.  Raises ValueError unless e is
    one int per target coordinate."""
    e = tuple(e)
    m = chart.num_source
    if len(e) != chart.num_target:
        raise ValueError("valuation vector length mismatch")
    return ConeImage(chart.matrix, identity(m), m).preimage(
        int_vector(e, chart.num_target, "valuations"))


def solve_units(chart: MonomialChart):
    """Solve u_{y_j} = prod_i u_{x_i}^{A[j][i]} for the source units.

    Returns (C, root_orders, unit_constraints) where C[i] gives the exponents
    of u_{x_i} over the target units, root_orders[i] is the denominator of
    row i, and unit_constraints are multiplicative relations the target units
    must satisfy whenever the rows of A are dependent: a basis of the rows
    L with L·A = 0, so with no source variable every u_{y_j} is 1.

    Column j of C is x/q_j, where q_j is the least q with A.x = q.e_j
    solvable modulo the unit constraints.  Both come from one Smith form of
    A by :func:`scaled_solution`, with no search over q and no cap on it.
    """
    a = [list(r) for r in chart.matrix]
    n, m = chart.num_target, chart.num_source
    snf = smith_normal_form(a, m)
    # relations among the target units: rows of U past the rank span the
    # left kernel of A
    constraints = tuple(tuple(snf.U[i]) for i in range(snf.rank, n))
    columns = []
    for j in range(n):
        q, x = scaled_solution(snf, [int(jj == j) for jj in range(n)])
        columns.append([Fraction(xi, q) for xi in x])
    c = tuple(tuple(columns[j][i] for j in range(n)) for i in range(m))
    root_orders = tuple(lcm(*[f.denominator for f in row]) for row in c)
    return c, root_orders, constraints


def root_orders(chart: MonomialChart) -> tuple[int, ...]:
    return solve_units(chart)[1]


def ramification_primes(chart: MonomialChart) -> set[int]:
    return _primes_of(lcm(*root_orders(chart)))


def log_smooth_primes(matrix) -> set[int]:
    """Primes at which the lattice map fails to be log smooth: divisors of
    the elementary divisors > 1 (torsion of the cokernel) plus the torsion
    of the kernel, which is zero for lattice maps."""
    m = [list(r) for r in matrix]
    if not m:
        return set()
    snf = smith_normal_form(m, len(m[0]))
    out: set[int] = set()
    for d in snf.divisors:
        if d > 1:
            out |= _primes_of(d)
    return out


def describe_lift(chart: MonomialChart, p: DVRTargetPoint,
                  residue_char: int | None = None):
    """Full lift description: NotInFirmament when the exponent system has no
    solution, else a LiftSolution; with a residue characteristic, reports
    whether the required unit extension is etale there.  Raises ValueError
    unless the residue characteristic is 0 or a prime."""
    if residue_char not in (None, 0) and _primes_of(residue_char) != {residue_char}:
        raise ValueError("residue characteristic must be 0 or a prime, "
                         f"got {residue_char}")
    x = solve_exponents(chart, p.valuations)
    if x is None:
        return NotInFirmament(tuple(p.valuations))
    c, orders, constraints = solve_units(chart)
    primes = frozenset(_primes_of(lcm(*orders)))
    etale = None if residue_char is None else residue_char not in primes
    return LiftSolution(
        exponents=tuple(x),
        unit_matrix=c,
        root_orders=orders,
        ramification_primes=primes,
        unit_constraints=constraints,
        etale=etale,
    )
