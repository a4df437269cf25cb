"""Breadth-first searches kept as references for `fusion.word_search`.

`decompose` and `closure` are the two searches fusionkit ran before both
became one search over generator images. `decompose` is the Alperin
search: its state is the full image table of the source P, and an fcr
automorphism of Q applies when the whole image lies in Q. `closure` is
the closure of a generated system on one subgroup Q: its state is the
vector of generator images, tested entry by entry against each seed's
domain, and the full table of every map is built as the map is found.
Their cost is a full table per search node.

`flat_search` is the search over generator images as it was before moves
came in runs of consecutive maps that share a domain: it tests each map's
domain and builds each image in Python, one map at a time.

All three take their moves from the arguments, in the library's order, so
that the chains, tables and parent links they return can be compared one
for one.
"""


def alperin_moves(F, fcr):
    """(Q, table as a dict, table) for every automorphism of every fcr
    object, larger objects first, ties by sorted ids."""
    fcr = sorted(fcr, key=lambda Q: (-Q.order, Q.sorted_ids))
    return [
        (Q, dict(zip(Q.sorted_ids, t)), t)
        for Q in fcr
        for t in F.aut_f_tables(Q)
    ]


def decompose(moves, source_sorted, target):
    """The chain [(image ids after the step, Q ids, psi table)] carrying
    the table `source_sorted` to `target`; LookupError when the search
    exhausts."""
    start = tuple(source_sorted)
    target = tuple(target)
    parents = {start: None}
    frontier = [start]
    while frontier and target not in parents:
        new = []
        for cur in frontier:
            cur_set = set(cur)
            for Q, d, t in moves:
                if not cur_set <= Q.ids:
                    continue
                nxt = tuple(d[x] for x in cur)
                if nxt in parents:
                    continue
                parents[nxt] = (cur, Q, t)
                new.append(nxt)
        frontier = new
    if target not in parents:
        raise LookupError("no fcr decomposition found")
    steps = []
    cur = target
    while parents[cur] is not None:
        prev, Q, t = parents[cur]
        steps.append((frozenset(cur), Q.ids, t))
        cur = prev
    steps.reverse()
    return steps


def closure(seeds, gens, qsorted):
    """The set of full tables over qsorted of every map reachable from the
    identity of Q under the partial maps `seeds`, given as
    (domain ids, {x: image})."""
    start_vec = tuple(gens)
    seen = {start_vec: tuple(qsorted)}
    frontier = [start_vec]
    while frontier:
        new = []
        for vec in frontier:
            full = seen[vec]
            for dom, table in seeds:
                applies = True
                for v in vec:
                    if v not in dom:
                        applies = False
                        break
                if not applies:
                    continue
                nvec = tuple(table[v] for v in vec)
                if nvec in seen:
                    continue
                seen[nvec] = tuple(table[x] for x in full)
                new.append(nvec)
        frontier = new
    return set(seen.values())


def flat_search(gens, maps, target=None):
    """{vector: (previous vector, map index)} of the breadth-first search
    from `gens` under the partial maps (domain ids, {x: image}), one map at
    a time, in discovery order; None for the start. Stops as soon as
    `target` is discovered."""
    start = tuple(gens)
    parents = {start: None}
    frontier = [start]
    while frontier and target not in parents:
        new = []
        for vec in frontier:
            for k, (dom, table) in enumerate(maps):
                if not dom.issuperset(vec):
                    continue
                nvec = tuple([table[v] for v in vec])
                if nvec in parents:
                    continue
                parents[nvec] = (vec, k)
                if nvec == target:
                    return parents
                new.append(nvec)
        frontier = new
    return parents
