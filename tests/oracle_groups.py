"""Element and subgroup arithmetic on raw permutation tuples, kept as a
reference for the S-local multiplication table.

FiniteGroup answers products, conjugates, powers and inverses inside a
tabled p-group S by integer lookups, and normalizers, centralizers
and quotients on top of them. These functions compute the same
things from the permutations alone, the way fusionkit did before the
table, so the two can be compared element for element. `out_f` is the
reference for `classify.out_F`, which builds Out_F(P) from automizer
vectors: it closes the coset action of Aut_F(P), given as permutations of
P's points, by tuple products. `p_core` is the O_p of a permutation group
that decided radicality, on `out_F`, before the radical test moved onto
automizer vectors. `sylow_ascent` is the Sylow p-subgroup that `sylow_p`
grew before it stopped building N_G(H) at each step of the ascent.
`automizer_generators` and `grow_sylow` are the generating set of
Aut_F(P) and the Sylow ascent inside it that `classify` computed with
closures written out by hand, before it read them off
`fusion.automorphism_closure`.
"""

import fusionkit
from fusionkit import Subgroup, subgroup_generated, sylow_p
from oracle_sweep import _closure, _conj, _generators, _mul


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


def right_cosets(S, T):
    """The right cosets Ts of T in S, as frozensets of permutations."""
    return {frozenset(_mul(t, s) for t in T) for s in S}


def out_f(aut, inn):
    """(degree, sorted elements) of Out_F(P) = aut/inn, for the automizer
    `aut` and the inner automorphisms `inn` of P given as sets of
    permutations of P's positions: Inn-cosets in sorted order, the action
    of a greedy generating set of aut on them, and its closure."""
    if len(inn) == len(aut):
        return 1, ((0,),)
    if len(inn) == 1:
        return len(next(iter(aut))), tuple(sorted(aut))
    coset_of = {}
    reps = []
    for a in sorted(aut):
        if a in coset_of:
            continue
        for j in inn:
            coset_of[_mul(j, a)] = len(reps)
        reps.append(a)
    gens = [tuple(coset_of[_mul(r, g)] for r in reps)
            for g in _generators(sorted(aut))]
    return len(reps), tuple(sorted(_closure(gens, len(reps))))


def p_core(G, p):
    """O_p(G) for a Subgroup G: one Sylow p-subgroup cut down by its
    conjugates under the generators of G until they normalise it."""
    amb = G.ambient
    C = sylow_p(G, p)
    gens = G.generator_ids()
    while True:
        cur = C
        for g in gens:
            cur = Subgroup(amb, cur.ids & frozenset(amb.conj_row(cur.ids, g)))
        if cur == C:
            return C
        C = cur


def sylow_ascent(G, p):
    """A Sylow p-subgroup of the Subgroup G by normalizer ascent: H starts
    as the cyclic p-subgroup of the first element of order divisible by p,
    and while H is below Sylow it grows by the p-part of the first element
    g of N_G(H), in sorted id order, outside H whose coset Hg has order
    divisible by p. N_G(H) is built in full at every step."""
    amb = G.ambient
    n, target = G.order, 1
    while n % p == 0:
        n, target = n // p, target * p
    if target == 1:
        return Subgroup(amb, (amb.identity_id,))
    i = next(i for i in G.sorted_ids if amb.element_order(i) % p == 0)
    o = amb.element_order(i)
    part = o
    while part % p == 0:
        part //= p
    H = subgroup_generated(amb, [amb.power_ids(i, part)])
    while H.order < target:
        for g in fusionkit.normalizer(G, H).sorted_ids:
            if g in H.ids:
                continue
            d, j = 1, g
            while j not in H.ids:
                j, d = amb.mul_ids(j, g), d + 1
            if d % p == 0:
                H = subgroup_generated(
                    amb, H.generator_ids() + [amb.power_ids(g, d // p)])
                break
        else:
            raise AssertionError("ascent stalled")
    return H


def automizer_generators(F, P, aut):
    """A generating set of Aut_F(P), as (vector, image table) pairs: a
    vector of `aut` outside the closure of the generators before it becomes
    the next generator. The closure grows incrementally, composing on the
    left with the generators' tables: the elements found before are closed
    under the earlier generators, so they take the new one alone."""
    pos = P.positions
    start = tuple(P.generator_ids())
    seen = {start}
    order = [start]
    gens = []
    for cand in aut:
        if len(order) == len(aut):
            break
        if cand in seen:
            continue
        gens.append((cand, F.table(P, cand)))
        done, last = len(order), len(gens) - 1
        n = 0
        while n < len(order):
            x = order[n]
            for j, (_vec, table) in enumerate(gens):
                if n < done and j < last:
                    continue
                y = tuple([table[pos[a]] for a in x])
                if y not in seen:
                    seen.add(y)
                    order.append(y)
            n += 1
    return gens


def grow_sylow(F, P, T, aut):
    """The p-subgroup T of Aut_F(P), as {vector: image table}, grown by a
    factor p: T and its cosets T x^k, 0 < k < p, for the first x of `aut`
    outside T that normalises T (x t lies in T x for every t in T) and has
    x^p in T."""
    pos, p = P.positions, F.p

    def coset(vec):
        return {tuple([t[pos[y]] for y in vec]) for t in T.values()}

    for x in aut:
        if x in T:
            continue
        table = F.table(P, x)
        powers = [x]
        for _ in range(p - 1):
            powers.append(tuple([table[pos[y]] for y in powers[-1]]))
        if powers[-1] not in T:
            continue
        right = coset(x)
        if all(tuple([table[pos[y]] for y in t]) in right for t in T):
            new = [v for power in powers[:-1] for v in coset(power)]
            return {**T, **dict(zip(new, F.images_at(P, vectors=new)))}
    raise AssertionError("Sylow ascent stalled")
