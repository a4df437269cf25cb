"""Classification predicates for fusion systems.

Implements the full battery over a FusionSystem F: fully automised,
receptive, saturated, fully centralised/normalised, centric, radical, the
fcr/cr object lists and strong closure (normality is read from the
normalizer subsystem, in `constructions`). P is radical when
O_p(Out_F(P)) = 1 (Aschbacher, Kessar & Oliver 2011, I.3). Inn(P) is a
normal p-subgroup of Aut_F(P), so O_p(Out_F(P)) = O_p(Aut_F(P))/Inn(P),
and `is_radical` decides O_p(Aut_F(P)) = Inn(P) on generator-image
vectors, with no group built (`aut_f_p_core`), on the member that P's
F-class was recorded from; the generating set of
Aut_F(P) it reads and its Sylow ascent are `fusion.automorphism_closure`
of image tables. `out_F` acts with the same vectors on the cosets of
Inn(P), only when asked for; no predicate reads it. Both read Inn(P) from
`_inner`. The cr and fcr lists read one memoised list of centric-radical
classes. Every invariant of a subgroup is memoised through
`fusion._memoised`, which rejects a subgroup of another ambient group or
one outside S.

Receptivity follows the extension axiom (Aschbacher, Kessar & Oliver,
Fusion Systems in Algebra and Topology, 2011, I.2; Roberts & Shpectorov,
J. Group Theory 12, 2009, for the receptive form): an extension psi of
phi: Q -> P over N_phi acts on P as phi c_g phi^-1 at each g in N_phi, so
psi(g) lies in one known coset of C_S(P). Hom_S lies in F (I.2), so
`is_receptive` makes two reductions: it takes one domain Q from each
S-conjugacy class of P's F-class, since phi on Q^s extends exactly when
phi c_s on Q does, and one phi from each double coset
Aut_S(P) phi Aut_S(Q), since c_h phi and phi c_g extend exactly when phi
does. It decides phi either from the restrictions of all of
Hom(N_phi, S) to Q, the set `FusionSystem.extension_index(N_phi, Q)`, or
from these candidate images, whichever set is smaller.
"""

from __future__ import annotations

from .fusion import FusionSystem, _memoised, automorphism_closure
from .groups import (
    FiniteGroup,
    Subgroup,
    _p_part,
    _same_ambient,
    right_cosets,
)


class SaturationReport:
    """Outcome of the saturation check, one row per F-conjugacy class."""

    def __init__(self, verdict: bool, per_class: list, counterexample):
        self.verdict = verdict
        self.per_class = per_class
        self.counterexample = counterexample

    def __bool__(self):
        return self.verdict

    def __repr__(self):
        return f"<SaturationReport verdict={self.verdict} " \
               f"classes={len(self.per_class)}>"


def is_fully_automised(F: FusionSystem, P: Subgroup) -> bool:
    """|Aut_S(P)|, one automorphism per coset of C_S(P) in N_S(P), is the
    p-part of |Aut_F(P)|. Aut_S(P) maps P into P, so it lies in Hom(P, S)
    exactly when it lies in Aut_F(P)."""
    cosets = F.centralizer_cosets(P)
    aut = F.aut_f_vectors(P)
    if not set(aut).issuperset(vec for _r, _coset, vec in cosets):
        raise AssertionError("Aut_S(P) escaped Aut_F(P)")
    return len(cosets) == _p_part(len(aut), F.p)


def _n_phi_all(F: FusionSystem, Q: Subgroup, P: Subgroup, vectors) -> list:
    """(N_phi, twists, orbit) for each iso phi from Q onto P with generator
    images in `vectors`. N_phi = {g in N_S(Q) : phi c_g phi^-1 in Aut_S(P)}
    as ids; `twists` pairs each coset of C_S(Q) in N_phi with the coset of
    C_S(P) in N_S(P) whose conjugation is phi c_g phi^-1 on P; `orbit`
    holds the vectors of phi c_g over g in N_S(Q), one per coset of C_S(Q).

    phi c_g phi^-1 = c_h on P exactly when phi c_g = c_h phi on Q, and two
    homomorphisms on Q agree when they agree on Q's generators. The twist
    by g depends only on g's coset of C_S(Q) in N_S(Q): phi c_g is phi at
    the conjugates of the generators by the coset's representative, one
    walk down Q's Cayley tree for all cosets. c_h phi conjugates phi's
    generator images by each coset representative h of C_S(P) in N_S(P).
    """
    cosets = F.centralizer_cosets(Q)
    if len(cosets) == 1:
        # N_S(Q) = C_S(Q), whose twists are all trivial: C_S(P) is the
        # coset of the identity
        twists = ((cosets[0][1], F.centralizer_of(P).sorted_ids),)
        return [(F.normalizer_of(Q).ids, twists, (v,)) for v in vectors]
    h_cosets = [coset for _r, coset, _vec in F.centralizer_cosets(P)]
    left = _left_orbit(F, P)
    k = len(Q.generator_ids())
    out = []
    at = [x for _r, _coset, vec in cosets for x in vec]
    for vec, twisted in zip(vectors, F.images_at(Q, at, vectors)):
        targets = dict(zip(left(vec), h_cosets))
        orbit = [twisted[j * k:(j + 1) * k] for j in range(len(cosets))]
        ids = set()
        twists = []
        for (_r, coset, _vec), w in zip(cosets, orbit):
            h_coset = targets.get(w)
            if h_coset is not None:
                ids.update(coset)
                twists.append((coset, h_coset))
        out.append((frozenset(ids), twists, orbit))
    return out


def _extensions(F: FusionSystem, Q: Subgroup, P: Subgroup, vectors):
    """(vec, N_phi, candidates, orbit) for each isomorphism phi from Q onto
    P whose generator images `vec` are in `vectors`, vectors of
    Hom(Q, P); phi maps Q onto P when its generator images lie in P. An
    extension psi of phi over N_phi makes psi(g) act on P as
    phi c_g phi^-1 for g in N_phi, so `candidates(g)` is the one coset of
    C_S(P) that psi(g) lies in. Each phi c_g in `orbit` extends over the
    conjugate of N_phi by g exactly when phi extends over N_phi."""
    for vec, (n_phi, twists, orbit) in zip(
            vectors, _n_phi_all(F, Q, P, vectors)):
        yield (vec, F.subgroup(n_phi),
               lambda g, twists=twists: next(
                   h_coset for coset, h_coset in twists if g in coset),
               orbit)


def _s_class_representatives(F: FusionSystem, members) -> list:
    """The first member of each S-conjugacy class among `members`, an
    F-class. The S-conjugates of Q are Q^r over the right cosets N_S(Q) r
    of N_S(Q) in S, and Q alone when N_S(Q) = S."""
    amb, covered, out = F.ambient, set(), []
    for Q in members:
        if Q.ids in covered:
            continue
        out.append(Q)
        N = F.normalizer_of(Q)
        if N != F.S:
            covered.update(frozenset(amb.conj_row(Q.sorted_ids, r))
                           for r, _coset in right_cosets(F.S, N))
    return out


def _left_orbit(F: FusionSystem, P: Subgroup):
    """The orbit of a map into P under Aut_S(P) acting on the left, as a
    function of its vector: c_h phi has phi's generator images conjugated
    by h, one vector for each coset representative h of C_S(P) in N_S(P),
    in the order of `centralizer_cosets(P)`. The conjugates of each
    element are computed once per function returned."""
    reps = [r for r, _coset, _vec in F.centralizer_cosets(P)]
    amb, cols = F.ambient, {}

    def orbit(vec):
        for y in vec:
            if y not in cols:
                cols[y] = amb.conj_col(y, reps)
        return zip(*[cols[y] for y in vec])
    return orbit


def _first_in_left_orbit(F: FusionSystem, P: Subgroup, vectors) -> dict:
    """{vec: the first vector of its orbit} over `vectors`, the generator
    images of maps into P, under Aut_S(P) acting on the left. Each vector
    is its own orbit when Aut_S(P) = 1."""
    if len(F.centralizer_cosets(P)) == 1:
        return dict(zip(vectors, vectors))
    left, first = _left_orbit(F, P), {}
    for vec in vectors:
        if vec not in first:
            first.update(dict.fromkeys(left(vec), vec))
    return first


def is_receptive(F: FusionSystem, P: Subgroup) -> bool:
    """Every isomorphism phi onto P from a member Q of its F-class extends
    over its N_phi; read on vectors, with no table built, for one Q of each
    S-class and one phi of each double coset Aut_S(P) phi Aut_S(Q), which
    Hom_S in F allows (Aschbacher, Kessar & Oliver 2011, I.2). N_phi is
    computed for the first phi of each left Aut_S(P)-orbit, and deciding
    phi decides the left orbits of its orbit under Aut_S(Q) on the right.
    When N_phi = Q, phi is its own extension. Otherwise, when
    |Hom(N_phi, S)| <= |C_S(P)| * |N_phi : Q|, phi is looked up among the
    restrictions of all of Hom(N_phi, S) to Q,
    `extension_index(N_phi, Q)`; when it is larger,
    `FusionSystem.extends` tests phi's own candidate images."""
    if P == F.S:
        return True
    c_p = F.centralizer_of(P).order
    for Q in _s_class_representatives(F, F.f_conjugates(P)):
        first = _first_in_left_orbit(F, P, F.hom_into(Q, P)[1])
        decided = set()
        for vec, N, candidates, orbit in _extensions(
                F, Q, P, list(dict.fromkeys(first.values()))):
            if vec in decided or N == Q:
                continue
            if F.hom_count(N) <= c_p * (N.order // Q.order):
                extends = vec in F.extension_index(N, Q)
            else:
                extends = F.extends(N, Q, vec, candidates)
            if not extends:
                return False
            # the double coset Aut_S(P) phi Aut_S(Q), by its left orbits
            decided.update(first[w] for w in orbit)
    return True


def is_fully_centralised(F: FusionSystem, P: Subgroup) -> bool:
    sizes = {
        Q.ids: F.centralizer_of(Q).order for Q in F.f_conjugates(P)
    }
    return sizes[P.ids] == max(sizes.values())


def is_fully_normalised(F: FusionSystem, P: Subgroup) -> bool:
    sizes = {
        Q.ids: F.normalizer_of(Q).order for Q in F.f_conjugates(P)
    }
    return sizes[P.ids] == max(sizes.values())


def is_centric(F: FusionSystem, P: Subgroup) -> bool:
    return all(
        F.centralizer_of(Q).ids <= Q.ids for Q in F.f_conjugates(P)
    )


def _inner(F: FusionSystem, P: Subgroup) -> frozenset:
    """Inn(P): the vectors of the cosets of C_S(P) in N_S(P) that meet P."""
    return frozenset(vec for _r, coset, vec in F.centralizer_cosets(P)
                     if not P.ids.isdisjoint(coset))


@_memoised
def out_F(F: FusionSystem, P: Subgroup) -> FiniteGroup:
    """Out_F(P) = Aut_F(P)/Inn(P) acting on the right cosets of Inn(P),
    numbered by their least image tables; tables are ordered by their
    images up to P's last generator, which fix them. The row of a coset's
    least member r sends each such x to x r (x first), whose vector is
    r's table read at x's, so only their tables are built. It is Aut_F(P)
    on the points of P when 1 = Inn(P) < Aut_F(P). Raises ValueError when
    Inn(P) is not inside Aut_F(P) or its cosets do not split Aut_F(P)."""
    aut, inner = F.aut_f_vectors(P), _inner(F, P)
    if not inner <= set(aut):
        raise ValueError("Inn(P) is not inside Aut_F(P)")
    pos = P.positions
    if len(inner) == 1 < len(aut):
        return FiniteGroup(P.order, [], name=f"Aut_F on {P.order} points",
                           elements={tuple([pos[v] for v in t])
                                     for t in F.images_at(P, vectors=aut)})
    prefix = P.sorted_ids[:1 + max(map(pos.get, P.generator_ids()), default=-1)]
    coset_of, tables = {}, {}
    for _key, r in sorted(zip(F.images_at(P, prefix, aut), aut)):
        if r not in coset_of:
            t = tables[r] = F.table(P, r)
            coset_of.update((tuple([t[pos[y]] for y in n]), len(tables) - 1)
                            for n in inner)
    # each coset holds its least member, so together they cover Aut_F(P)
    if not len(coset_of) == len(aut) == len(tables) * len(inner):
        raise ValueError("the cosets of Inn(P) do not split Aut_F(P)")
    rows = [tuple([coset_of[tuple([t[pos[y]] for y in x])] for x in tables])
            for t in tables.values()]
    return FiniteGroup(len(rows), [], name=f"Out_F of order {len(rows)}",
                       elements=rows)


def is_radical(F: FusionSystem, P: Subgroup) -> bool:
    """O_p(Out_F(P)) = 1, decided as O_p(Aut_F(P)) = Inn(P) on generator-
    image vectors, with no automizer group built (`aut_f_p_core`). It is a
    property of P's F-class: for psi: R -> P in F, Aut_F(P) is
    psi Aut_F(R) psi^-1, and that conjugation carries Inn(R) onto Inn(P)
    (Aschbacher, Kessar & Oliver 2011, I.2). So every member is answered
    by the member its class was recorded from."""
    core, inner = aut_f_p_core(F, F._recorded(P))
    return core == inner


def aut_f_p_core(F: FusionSystem, P: Subgroup) -> tuple:
    """(O_p(Aut_F(P)), Inn(P)) as sets of vectors of P.generator_ids().

    Inn(P) is a normal p-subgroup of Aut_F(P), so it lies in O_p, and O_p
    is the largest normal subgroup of one Sylow p-subgroup T (Holt, Eick
    & O'Brien, Handbook of Computational Group Theory, 2005). T is
    Aut_S(P) when P is fully automised, else grown from it (`_grow_sylow`),
    and it is cut down to the elements c whose conjugates g c g^-1 by
    each generator g of Aut_F(P) stay in it, until no generator moves it.
    Composites are read off the image tables of the generators, of T's
    elements and, while T grows, of the candidates tried."""
    aut, inner = F.aut_f_vectors(P), _inner(F, P)
    sylow = _p_part(len(aut), F.p)
    if sylow == len(inner):
        # Inn(P) <= O_p <= T, and the first and last have one order
        return inner, inner
    vecs = [vec for _r, _c, vec in F.centralizer_cosets(P)]
    T = dict(zip(vecs, F.images_at(P, vectors=vecs)))
    while len(T) < sylow:
        T = _grow_sylow(F, P, T, aut)
    pos = P.positions
    core = frozenset(T)
    gens = _automizer_generators(F, P, aut)
    while len(core) > len(inner):
        # c stays when g c g^-1 is in the core, that is, when g c = c' g
        # for some c' in it, for each generator g
        kept = core
        for vec, table in gens:
            right = {tuple([T[c][pos[y]] for y in vec]) for c in core}
            kept = {c for c in kept
                    if tuple([table[pos[y]] for y in c]) in right}
        if kept == core:
            break
        core = frozenset(kept)
    return core, inner


def _automizer_generators(F: FusionSystem, P: Subgroup, aut) -> list:
    """A generating set of Aut_F(P), as (vector, image table) pairs. A
    vector of `aut` outside the closure of the generators before it
    becomes the next generator, as in `groups.CayleyTree`."""
    gens, closure = [], automorphism_closure(P, ())
    for cand in aut:
        if len(closure) == len(aut):
            break
        if cand not in closure:
            gens.append((cand, F.table(P, cand)))
            closure = automorphism_closure(P, [t for _vec, t in gens])
    return gens


def _grow_sylow(F: FusionSystem, P: Subgroup, T: dict, aut) -> dict:
    """The p-subgroup T of Aut_F(P), as {vector: image table}, grown by a
    factor p to <T, x> for the first x of `aut` outside T with
    |<T, x>| = p|T|, that is, the first x that normalises T and has x^p in
    T. One exists while T is not a Sylow p-subgroup, since p then divides
    |N(T) : T|."""
    for x in aut:
        if x in T:
            continue
        grown = automorphism_closure(P, [*T.values(), F.table(P, x)])
        if len(grown) == F.p * len(T):
            new = [v for v in grown if v not in T]
            return {**T, **dict(zip(new, F.images_at(P, vectors=new)))}
    raise RuntimeError("Sylow ascent stalled")  # pragma: no cover


def _cr_classes(F: FusionSystem) -> tuple:
    """The F-conjugacy classes that are centric and radical, tested on each
    class's least member."""
    return F.cached(("cr_classes",), lambda: tuple(
        tuple(cls) for cls in F.conjugacy_classes()
        if is_centric(F, cls[0]) and is_radical(F, cls[0])
    ))


def fcr_objects(F: FusionSystem) -> list[Subgroup]:
    """Objects that are simultaneously fully normalised, centric, radical."""
    return list(F.cached(("fcr_objects",), lambda: _fcr_objects(F)))


def _fcr_objects(F: FusionSystem) -> tuple:
    out = []
    for cls in _cr_classes(F):
        best = max(F.normalizer_of(Q).order for Q in cls)
        out.extend(Q for Q in cls if F.normalizer_of(Q).order == best)
    return tuple(sorted(out, key=lambda Q: (Q.order, Q.sorted_ids)))


def cr_objects(F: FusionSystem) -> list[Subgroup]:
    """All objects in centric-radical classes."""
    return sorted((Q for cls in _cr_classes(F) for Q in cls),
                  key=lambda Q: (Q.order, Q.sorted_ids))


def is_saturated(F: FusionSystem) -> SaturationReport:
    """Def-literal saturation: every class owns a fully automised and
    receptive member. Rows carry the witnessing member (or the least
    member, with its failing flags, when none exists); the least member's
    flags are those the search read, and its receptivity is decided for
    the row only when the search skipped it for not being fully
    automised."""
    per_class = []
    counterexample = None
    verdict = True
    for cls in F.conjugacy_classes():
        found = least_flags = None
        for Q in cls:
            automised = is_fully_automised(F, Q)
            receptive = automised and is_receptive(F, Q)
            if least_flags is None:
                least_flags = automised, receptive
            if receptive:
                found = Q
                break
        if found is not None:
            per_class.append({
                "representative": found,
                "fully_automised": True,
                "receptive": True,
            })
        else:
            verdict = False
            least = cls[0]
            automised, receptive = least_flags
            per_class.append({
                "representative": least,
                "fully_automised": automised,
                "receptive": receptive if automised
                else is_receptive(F, least),
            })
            if counterexample is None:
                counterexample = least
    return SaturationReport(verdict, per_class, counterexample)


def is_strongly_closed(F: FusionSystem, P: Subgroup) -> bool:
    """Every element of P has its whole F-class in P."""
    _same_ambient(F.S, P)
    pids = P.ids
    return all(
        set(F.f_class_of_element(x)) <= pids for x in P.sorted_ids
    )


def classifier_rows(F: FusionSystem) -> list[dict]:
    """Per-object flag rows in the report schema, objects by generator
    permutation lists (never internal indices)."""
    amb = F.ambient
    rows = []
    for Q in F.objects():
        gens = [list(amb.elements[i]) for i in Q.generator_ids()]
        rows.append({
            "object": gens,
            "fully_automised": is_fully_automised(F, Q),
            "receptive": is_receptive(F, Q),
            "centric": is_centric(F, Q),
            "radical": is_radical(F, Q),
            "fully_normalised": is_fully_normalised(F, Q),
            "strongly_closed": is_strongly_closed(F, Q),
        })
    return rows
