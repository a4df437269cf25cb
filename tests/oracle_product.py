"""The product F1 x F2 as a generated closure, kept as the reference for
`constructions.product_fusion`.

This is how fusionkit built products before it used the factor rule. The
ambient G1 x G2 is closed from the factors' generators, each padded by
the identity on the other block of points. The system over S1 x S2 is the
closure of identity-padded seeds: a x 1 on D x S2 for every generating
morphism a of F1 on D, and 1 x b on S1 x E for every generating
morphism b of F2 on E. Every object's tables come from a breadth-first
search, which is why the library no longer builds products this way.
"""

from fusionkit import FiniteGroup, Subgroup, generated_fusion, perms


def direct_sum(a, b):
    """Act with the permutation a on the first len(a) points and b on the
    rest."""
    d = len(a)
    return a + tuple(x + d for x in b)


def padded_ambient(G1, G2):
    """G1 x G2 on the disjoint union of the points, by closure."""
    degree = G1.degree + G2.degree
    gens = [direct_sum(g, perms.identity(G2.degree))
            for g in G1.generators]
    gens += [direct_sum(perms.identity(G1.degree), h)
             for h in G2.generators]
    return FiniteGroup(degree, gens)


def product_closure(F1, F2):
    """The generated system over S1 x S2 of the identity-padded seeds."""
    amb1, amb2 = F1.ambient, F2.ambient
    amb = padded_ambient(amb1, amb2)

    def pair_id(i, j):
        return amb.index[direct_sum(amb1.elements[i], amb2.elements[j])]

    S12 = Subgroup(amb, frozenset(
        pair_id(i, j) for i in F1.S.ids for j in F2.S.ids
    ))
    seeds = []
    for m in F1.generating_morphisms():
        mmap = dict(zip(m.domain.sorted_ids, m.images))
        table = {pair_id(x, j): pair_id(mmap[x], j)
                 for x in m.domain.ids for j in F2.S.ids}
        D = Subgroup(amb, frozenset(table))
        seeds.append((D, tuple(table[q] for q in D.sorted_ids)))
    for m in F2.generating_morphisms():
        mmap = dict(zip(m.domain.sorted_ids, m.images))
        table = {pair_id(i, y): pair_id(i, mmap[y])
                 for i in F1.S.ids for y in m.domain.ids}
        D = Subgroup(amb, frozenset(table))
        seeds.append((D, tuple(table[q] for q in D.sorted_ids)))
    return generated_fusion(S12, F1.p, seeds)
