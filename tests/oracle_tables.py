"""The hom rules by full image tables, kept as the reference for the rules
that store a morphism by its generator images.

This is how fusionkit built Hom(Q, S) before it stored vectors: every rule
produced one table over Q.sorted_ids per morphism. The transporter rule
restricts each conjugation pair of the library's one sweep to Q; the
generated rule rebuilds each table from its parent's along the
`word_search` closure; the product rule adds the factors' tables entry by
entry; the quotient rule pushes each table forward element by element,
checking that the result is well defined; the normalizer rule restricts
each table on PQ to Q and to P.
The derived rules read the parent systems' tables through
`hom_to_S_tables`, so each rule is checked against the level below it.
Every function returns the sorted tables of one object, except
`transporter_vectors`, which keeps the rule's vectors in their order.
"""

from operator import add

from fusionkit import automorphisms
from fusionkit.fusion import _conjugation_pairs, same_domain_runs, word_search


def transporter(F, G, Q):
    """Hom(Q, S) in F_S(G): the distinct restrictions to Q of the
    conjugation pairs (D_g, c_g) with Q inside D_g."""
    return tuple(sorted({
        tuple(table[i] for i in Q.sorted_ids)
        for D, table in _conjugation_pairs(F, G) if Q.ids <= D.ids
    }))


def transporter_vectors(F, G, Q):
    """Hom(Q, S) in F_S(G) as the transporter rule listed it before it
    indexed the pairs by element: a scan of every conjugation pair, keeping
    the first vector of each map out of Q in pair order."""
    gens = Q.generator_ids()
    return tuple(dict.fromkeys(
        tuple(table[i] for i in gens)
        for D, table in _conjugation_pairs(F, G) if Q.ids <= D.ids))


def _seeds(F):
    """The partial maps that `generated_fusion` closes under: each seed
    morphism, its inverse on its image, and conjugation by each generator
    of S."""
    S, amb = F.S, F.ambient
    seeds = []
    for m in F.generating_morphisms():
        seeds.append((m.domain.ids, dict(zip(m.domain.sorted_ids, m.images))))
        seeds.append((frozenset(m.images),
                      dict(zip(m.images, m.domain.sorted_ids))))
    for t in S.generator_ids():
        seeds.append((S.ids,
                      dict(zip(S.sorted_ids, amb.conj_row(S.sorted_ids, t)))))
    return seeds


def generated(F, Q):
    """Hom(Q, S) of a generated system: each table built from its parent's
    along the breadth-first closure of Q's generators under the seeds'
    same-domain runs."""
    seeds = _seeds(F)
    full = {}
    runs = same_domain_runs(seeds)
    for vec, parent in word_search(Q.generator_ids(), runs).items():
        if parent is None:
            full[vec] = Q.sorted_ids
            continue
        prev, k = parent
        table = seeds[k][1]
        full[vec] = tuple(table[x] for x in full[prev])
    return tuple(sorted(full.values()))


def product(F1, F2, F, Q):
    """Hom(Q, S1 x S2) by the factor rule on whole tables."""
    n2 = F2.ambient.order
    pairs = [divmod(x, n2) for x in Q.sorted_ids]
    Q1 = F1.subgroup(i for i, _ in pairs)
    Q2 = F2.subgroup(j for _, j in pairs)
    pos1 = [Q1.positions[i] for i, _ in pairs]
    pos2 = [Q2.positions[j] for _, j in pairs]
    left = [[t[k] * n2 for k in pos1] for t in F1.hom_to_S_tables(Q1)]
    right = [[t[k] for k in pos2] for t in F2.hom_to_S_tables(Q2)]
    return tuple(sorted({tuple(map(add, a, b)) for a in left for b in right}))


def _push_forward(theta, kernel, dom_sorted, table, target_sorted):
    d = dict(zip(dom_sorted, table))
    if frozenset(d[x] for x in kernel) != kernel:
        return None
    vals = {}
    for x, y in d.items():
        c, v = theta[x], theta[y]
        if vals.setdefault(c, v) != v:
            raise AssertionError("push-forward is not well defined")
    return tuple(vals[c] for c in target_sorted)


def quotient(F, T, theta, Pq):
    """Hom(P/T, S/T): the push-forwards of the tables of the preimage P
    that map T onto itself."""
    Phat = F.subgroup(x for x in F.S.ids if theta[x] in Pq.ids)
    pushed = {
        _push_forward(theta, T.ids, Phat.sorted_ids, t, Pq.sorted_ids)
        for t in F.hom_to_S_tables(Phat)
    }
    pushed.discard(None)
    return tuple(sorted(pushed))


def normalizer(F, Q, K_tables, s_ids, P):
    """Hom(P, N_S^K(Q)) in N_F^K(Q): restrictions to P of the tables on PQ
    whose restriction to Q lies in K."""
    amb = F.ambient
    PQ = F.subgroup(y for b in Q.ids for y in amb.mul_row(P.ids, b))
    qpos = [PQ.positions[x] for x in Q.sorted_ids]
    ppos = [PQ.positions[x] for x in P.sorted_ids]
    out = set()
    for t in F.hom_to_S_tables(PQ):
        if tuple(t[k] for k in qpos) not in K_tables:
            continue
        rest = tuple(t[k] for k in ppos)
        if s_ids.issuperset(rest):
            out.add(rest)
    return tuple(sorted(out))


def automorphism_tables(Q, K):
    """K of `normalizer_subsystem` as a set of tables over Q.sorted_ids."""
    if K == "full":
        return {a.images for a in automorphisms(Q)}
    assert K == "trivial"
    return {Q.sorted_ids}

