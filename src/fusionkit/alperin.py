"""Factor fusion-system morphisms through automorphisms of fcr objects.

The decomposition theorem guarantees that in a saturated system every
morphism is a composite of restricted automorphisms of fully normalised,
centric, radical subgroups. `alperin_decompose` finds such a chain with
`fusion.word_steps`, the breadth-first search over generator images that
also closes generated systems, with the automorphisms of each fcr object as
one run of moves that share a domain. The search from each domain is kept
in the system's memo, suspended where the last query stopped, so the
queries on one domain share one search; `verify_decomposition` recomputes
the three clauses.
"""

from __future__ import annotations

from .classify import fcr_objects
from .fusion import (
    FusionSystem,
    _memoised,
    generated_fusion,
    same_domain_runs,
    word_steps,
)
from .groups import GroupHom, Subgroup, as_hom


class AlperinDecomposition:
    """A chain of fcr automorphisms whose composite restricts to `phi`.

    chain[i] = (P_i, Q_i, psi_i): psi_i is an automorphism of the fcr
    object Q_i carrying P_{i-1} (the previous image, P_0 = source) to P_i.
    """

    def __init__(self, source: Subgroup, target: Subgroup, chain: list,
                 phi: GroupHom):
        self.source = source
        self.target = target
        self.chain = chain
        self.phi = phi

    def __len__(self):
        return len(self.chain)

    def composite_table(self) -> tuple:
        """The composite of the chain restricted to the source."""
        cur = self.source.sorted_ids
        for _P, Q, psi in self.chain:
            cur = tuple(psi.images[Q.positions[x]] for x in cur)
        return cur

    def __repr__(self):
        orders = [Q.order for _P, Q, _psi in self.chain]
        return f"<AlperinDecomposition k={len(self.chain)} via {orders}>"


class DecompositionCheck:
    """Falsy when a clause fails; `violated` names the first failing one."""

    __slots__ = ("violated",)

    def __init__(self, violated: str | None):
        self.violated = violated

    def __bool__(self):
        return self.violated is None

    def __repr__(self):
        if self.violated is None:
            return "<DecompositionCheck ok>"
        return f"<DecompositionCheck violated clause {self.violated}>"


def alperin_decompose(F: FusionSystem, phi) -> AlperinDecomposition:
    """Decompose `phi` (or its isomorphism-onto-image factor) into a chain
    of fcr automorphisms. Raises LookupError when the search exhausts,
    which on a saturated system cannot happen; exhaustion therefore
    reports a theorem-hypothesis violation. The search runs on generator
    images, and full tables are rebuilt only along the returned chain. It
    is kept per domain (`_alperin_search`): a query whose target an earlier
    query on the same domain discovered reads its chain off the search,
    and any other query resumes the search where the last one stopped."""
    phi = as_hom(phi, F.S)
    P = phi.domain
    gens = P.generator_ids()
    target = tuple(phi.images[P.positions[g]] for g in gens)
    if not F.member_test(P)(target):
        raise ValueError("morphism does not belong to the system")
    parents, search = _alperin_search(F, P)
    # `in` resumes the suspended search up to the target, or to its end
    if target not in parents and target not in search:
        raise LookupError(
            "no fcr decomposition found; the decomposition theorem "
            "guarantees one for saturated systems, so the input system "
            "violates the theorem hypothesis"
        )
    _runs, tables, objects = F.cached(("alperin_moves",), lambda: _moves(F))
    word = []
    vec = target
    while parents[vec] is not None:
        vec, k = parents[vec]
        word.append(k)
    steps = []
    cur = P.sorted_ids
    for k in reversed(word):
        Q, psi = objects[k], tables[k]
        cur = tuple(psi[x] for x in cur)
        steps.append((F.subgroup(frozenset(cur)), Q,
                      GroupHom(Q, Q, [psi[x] for x in Q.sorted_ids])))
    # the composite is the morphism of F with phi's generator images, so a
    # table that agrees with it only there is not a morphism
    if cur != phi.images:
        raise ValueError("morphism does not belong to the system")
    return AlperinDecomposition(P, F.subgroup(phi.images), steps, phi)


@_memoised
def _alperin_search(F: FusionSystem, P: Subgroup) -> tuple:
    """The breadth-first search from P's generators over the fcr moves, as
    (parents, search): `parents` maps each vector discovered so far to
    (previous vector, move index), and `search` is the suspended
    `fusion.word_steps` that discovers the next ones. The search only
    grows, and its order is fixed, so a chain read off it is the chain of a
    fresh search that stops at its target. It holds the moves and the
    vectors, never the system."""
    runs = F.cached(("alperin_moves",), lambda: _moves(F))[0]
    parents: dict = {}
    return parents, word_steps(P.generator_ids(), runs, parents)


def _moves(F: FusionSystem) -> tuple:
    """The search moves as (runs, tables, objects): move k is the k-th
    automorphism psi of every fcr object Q, larger objects first and each
    object's automorphisms by image table, with tables[k] = {x: psi(x)}
    and objects[k] = Q. `runs` groups the tables of consecutive moves on
    one object, (Q.ids, tables), for `word_steps`; the chain rebuild
    reads `tables`. The search reads psi at any element of Q, so these are
    whole tables, built once per system."""
    fcr = sorted(fcr_objects(F), key=lambda Q: (-Q.order, Q.sorted_ids))
    autos = [(Q, dict(zip(Q.sorted_ids, t)))
             for Q in fcr for t in F.aut_f_tables(Q)]
    runs = same_domain_runs((Q.ids, table) for Q, table in autos)
    return (runs, tuple(table for _Q, table in autos),
            tuple(Q for Q, _table in autos))


def verify_decomposition(F: FusionSystem, d: AlperinDecomposition,
                         phi=None) -> DecompositionCheck:
    """Recompute the three clauses: (a) every Q_i is fcr, (b) each psi_i
    is an F-automorphism of Q_i moving P_{i-1} onto P_i inside Q_i,
    (c) the composite restricted to the source equals phi. Raises
    ValueError when (c) fails because phi is not a morphism of F; when
    (c) holds, phi is a composite of morphisms of F."""
    phi = as_hom(d.phi if phi is None else phi, F.S)
    fcr = {Q.ids for Q in fcr_objects(F)}
    for _P, Q, _psi in d.chain:
        if Q.ids not in fcr:
            return DecompositionCheck("a")
    prev = d.source
    for P_i, Q, psi in d.chain:
        # Q is fcr by clause (a), so psi is an automorphism of the moves
        # exactly when it is a morphism of F onto Q
        if not (F.has_morphism(Q, psi.images)
                and frozenset(psi.images) == Q.ids):
            return DecompositionCheck("b")
        if not (prev.ids <= Q.ids and P_i.ids <= Q.ids):
            return DecompositionCheck("b")
        pos = Q.positions
        if frozenset(psi.images[pos[x]] for x in prev.ids) != P_i.ids:
            return DecompositionCheck("b")
        prev = P_i
    if (phi.domain.ids != d.source.ids
            or d.composite_table() != phi.images):
        if not F.has_morphism(phi.domain, phi.images):
            raise ValueError("morphism does not belong to the system")
        return DecompositionCheck("c")
    return DecompositionCheck(None)


def regenerate_from_fcr(F: FusionSystem):
    """The fusion system generated by the fcr automorphism groups of F.

    For saturated F this regenerates F itself (the global content of the
    decomposition theorem).
    """
    seeds = [
        GroupHom(Q, Q, t) for Q in fcr_objects(F) for t in F.aut_f_tables(Q)
    ]
    return generated_fusion(F.S, F.p, seeds)
