"""Test-only oracle for the multiplicities of monomial ideals, independent
of ``campana.variant_multiplicities``.

The primary variant m_a is the least containment order of an isolated
primary component in its prime.  ``campana`` computes it as m, because for a
monomial ideal the p-primary component is generated by the generators
restricted to the variables of p.  This module finds the primary components
the long way, by splitting the ideal into irreducible components generated
by pure variable powers and grouping them by radical; the splitting is
exponential in the number of variables.
"""

from logfirm.campana import MonomialIdeal, MonomialPrime, _check_proper


def irreducible_decomposition(i: MonomialIdeal) -> list[MonomialIdeal]:
    """Write the ideal as an irredundant intersection of ideals generated by
    pure variable powers (splitting algorithm)."""
    _check_proper(i)
    stack = [i]
    irreducible = []
    while stack:
        j = stack.pop()
        split = None
        for g in j.generators:
            support = [v for v, e in enumerate(g) if e]
            if len(support) > 1:
                v = support[0]
                power = tuple(g[v] if k == v else 0 for k in range(j.num_vars))
                rest = tuple(0 if k == v else g[k] for k in range(j.num_vars))
                split = (g, power, rest)
                break
        if split is None:
            irreducible.append(j)
            continue
        g, power, rest = split
        others = [h for h in j.generators if h != g]
        stack.append(MonomialIdeal.of(j.num_vars, others + [power]))
        stack.append(MonomialIdeal.of(j.num_vars, others + [rest]))
    # irredundancy: drop any component containing the intersection of the rest
    out = []
    uniq = {c.generators: c for c in irreducible}.values()
    comps = list(uniq)
    for k, c in enumerate(comps):
        rest = [d for kk, d in enumerate(comps) if kk != k]
        if rest and _intersection_contained_in(rest, c):
            continue
        out.append(c)
    return out


def _ideal_intersection(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    gens = [tuple(max(x, y) for x, y in zip(g, h))
            for g in a.generators for h in b.generators]
    return MonomialIdeal.of(a.num_vars, gens)


def _intersection_contained_in(parts, c: MonomialIdeal) -> bool:
    inter = parts[0]
    for p in parts[1:]:
        inter = _ideal_intersection(inter, p)
    return all(c.contains_monomial(g) for g in inter.generators)


def primary_components(i: MonomialIdeal):
    """Group the irreducible components by radical; returns
    [(prime, primary ideal)]."""
    comps = irreducible_decomposition(i)
    by_radical: dict[frozenset[int], MonomialIdeal] = {}
    for c in comps:
        key = frozenset(v for g in c.generators for v, e in enumerate(g) if e)
        if key in by_radical:
            by_radical[key] = _ideal_intersection(by_radical[key], c)
        else:
            by_radical[key] = c
    return [(MonomialPrime(k), v) for k, v in
            sorted(by_radical.items(), key=lambda kv: sorted(kv[0]))]
