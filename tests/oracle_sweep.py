"""Per-subgroup transporter sweep, kept as a reference for F_S(G).

This is the sweep fusionkit used before the single conjugation sweep: for
one subgroup Q of S it scans every element g of G and keeps c_g when it
maps Q into S, once for each distinct map. It works on raw permutation
tuples and the ambient group's element list, so its tables, and the order
of least g in which it lists the maximal conjugations, can be compared with
the library's one for one. Its cost is a full scan of G per subgroup, which
is why the library no longer uses it.
"""


def _conj(x, g):
    # x^g = g^-1 x g: the point g[k] goes to g[x[k]]
    out = [0] * len(x)
    for k in range(len(x)):
        out[g[k]] = g[x[k]]
    return tuple(out)


def _mul(a, b):
    # apply a, then b
    return tuple(b[x] for x in a)


def _closure(gens, degree):
    e = tuple(range(degree))
    seen = {e}
    frontier = [e]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = _mul(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def _generators(els):
    """A greedy generating set of the permutation group `els`."""
    degree = len(els[0])
    gens = []
    have = {tuple(range(degree))}
    for x in sorted(els):
        if x not in have:
            gens.append(x)
            have = _closure(gens, degree)
    return gens


def hom_to_S(G, s_ids, q_ids):
    """Hom(Q, S) in F_S(G) as a set of tables; tables are aligned with
    sorted(q_ids) and hold element ids of G, as in the library."""
    els, index = G.elements, G.index
    qsorted = sorted(q_ids)
    gens = _generators([els[i] for i in qsorted])
    seen = set()
    out = set()
    for g in range(G.order):
        gp = els[g]
        vec = []
        for q in gens:
            j = index[_conj(q, gp)]
            if j not in s_ids:
                break
            vec.append(j)
        else:
            vec = tuple(vec)
            if vec not in seen:
                seen.add(vec)
                out.add(tuple(index[_conj(els[i], gp)] for i in qsorted))
    return out


def maximal_conjugations(G, s_ids):
    """Each distinct c_g on its largest domain D_g = {x in S : x^g in S},
    as (D_g, table aligned with sorted(D_g)), by increasing least g."""
    els, index = G.elements, G.index
    seen = set()
    out = []
    for g in range(G.order):
        gp = els[g]
        dom = sorted(i for i in s_ids if index[_conj(els[i], gp)] in s_ids)
        t = tuple(index[_conj(els[i], gp)] for i in dom)
        if (tuple(dom), t) not in seen:
            seen.add((tuple(dom), t))
            out.append((frozenset(dom), t))
    return out
