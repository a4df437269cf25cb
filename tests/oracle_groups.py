"""Element and subgroup arithmetic on raw permutation tuples, kept as a
reference for the S-local multiplication table.

FiniteGroup answers products, conjugates, powers and inverses inside a
tabled p-group S by integer lookups, and normalizers, centralizers,
normality and quotients on top of them. These functions compute the same
things from the permutations alone, the way fusionkit did before the
table, so the two can be compared element for element.
"""

from oracle_sweep import _conj, _generators, _mul


def inverse(x):
    out = [0] * len(x)
    for i, y in enumerate(x):
        out[y] = i
    return tuple(out)


def power(x, k):
    if k < 0:
        x, k = inverse(x), -k
    out = tuple(range(len(x)))
    for _ in range(k):
        out = _mul(out, x)
    return out


def normalizer(G, X):
    """The elements of G (permutations) that conjugate the subgroup X
    (a set of permutations) onto itself."""
    gens = _generators(sorted(X))
    return {g for g in G if all(_conj(x, g) in X for x in gens)}


def centralizer(G, X):
    gens = _generators(sorted(X))
    return {g for g in G if all(_mul(g, x) == _mul(x, g) for x in gens)}


def is_normal(G, X):
    """Whether the group G, given by generating permutations, normalizes
    the subgroup X (a set of permutations)."""
    return all(_conj(x, g) in X for g in G for x in X)


def right_cosets(S, T):
    """The right cosets Ts of T in S, as frozensets of permutations."""
    return {frozenset(_mul(t, s) for t in T) for s in S}
