"""Subgroup lattice algorithms fusionkit used before, kept as references.

`p_group_lattice` is the old level-by-level climb for a p-group: every
subgroup H of order p^k is extended once by every element g of N(H) \\ H
with g^p in H, so each overgroup of order p^(k+1) is rebuilt once per
such g. `join_lattice` is the old generic branch: the cyclic subgroups
closed under joins, where each join closes over every element of the
subgroup plus one more. Both work on raw permutation tuples, so their
results can be compared with the library's one for one; both return
subgroups as frozensets of permutations, sorted by order and then by the
sorted element list, which is the library's order too.
"""

from oracle_sweep import _closure, _conj, _generators, _mul


def _power(x, k):
    out = tuple(range(len(x)))
    for _ in range(k):
        out = _mul(out, x)
    return out


def _sorted(subgroups):
    return sorted(subgroups, key=lambda H: (len(H), sorted(H)))


def p_group_lattice(els, p):
    """Every subgroup of the p-group whose elements are `els`."""
    els = sorted(els)
    level = {frozenset([tuple(range(len(els[0])))])}
    out = set(level)
    while level:
        nxt = set()
        for H in level:
            if len(H) == len(els):
                continue
            gens = _generators(list(H))
            for g in els:
                if g in H or not all(_conj(x, g) in H for x in gens):
                    continue
                if _power(g, p) not in H:
                    continue
                grown = set(H)
                cur = g
                for _ in range(p - 1):
                    grown.update(_mul(h, cur) for h in H)
                    cur = _mul(cur, g)
                nxt.add(frozenset(grown))
        level = nxt
        out |= level
    return _sorted(out)


def join_lattice(els):
    """Every subgroup of the group whose elements are `els`."""
    els = sorted(els)
    degree = len(els[0])
    found = {frozenset([tuple(range(degree))])}
    for x in els:
        found.add(frozenset(_closure([x], degree)))
    frontier = list(found)
    while frontier:
        new = []
        for H in frontier:
            for x in els:
                if x in H:
                    continue
                joined = frozenset(_closure(list(H) + [x], degree))
                if joined not in found:
                    found.add(joined)
                    new.append(joined)
        frontier = new
    return _sorted(found)
