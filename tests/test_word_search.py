"""The one breadth-first search over generator images, `word_search`,
against the two full-table searches it replaced (oracle_word_search).

Alperin chains are compared for every morphism of each transporter
system and of a copy of G with its points relabelled by a seeded random
permutation. The closure of generated systems is compared table by table
and word by word on the fcr regeneration of each system, on a system
that is not saturated, and on the generated closure of one product of
`witness --p 3` (oracle_product).
"""

import random

import pytest

import oracle_product
import oracle_word_search as oracle
from conftest import extraspecial27_c2
from test_sweep import GROUPS, relabelled
from fusionkit import (
    GroupHom,
    alperin_decompose,
    generated_fusion,
    hom_from_images,
    regenerate_from_fcr,
    sylow_p,
    symmetric_group,
    transporter_fusion,
)
from fusionkit.classify import fcr_objects
from fusionkit.fusion import word_search

CASES = [
    ("S6", 2),
    ("S6", 3),
    ("SL(3,3)", 3),
    ("3^(1+2):2", 3),
    pytest.param("A8", 2, marks=pytest.mark.slow),
]


def _transporter(G, p):
    return transporter_fusion(G, sylow_p(G.full(), p), p)


def _system(name, p, relabel):
    G = GROUPS[name]()
    if relabel:
        G = relabelled(G, random.Random(f"{name}@{p}"))
    return _transporter(G, p)


def _chain(d):
    return [(P.ids, Q.ids, psi.images) for P, Q, psi in d.chain]


def _unsaturated(F):
    """F_S(S) with one more map phi, between two subgroups of order p that
    S does not conjugate: only S is fcr in the generated system, so phi
    has no fcr decomposition. Returns (system, phi)."""
    amb = F.ambient
    small = [Q for Q in F.objects() if Q.order == F.p]
    A = small[0]
    conjugates = {frozenset(amb.conj_row(A.sorted_ids, s)) for s in F.S.ids}
    B = next(Q for Q in small if Q.ids not in conjugates)
    a, b = A.generator_ids()[0], B.generator_ids()[0]
    h = hom_from_images(A, amb, [a], [b])
    U = generated_fusion(F.S, F.p, [h])
    return U, GroupHom(U.subgroup(A.ids), U.S, h.images)


def _check_chains(F):
    moves = oracle.alperin_moves(F, fcr_objects(F))
    count = 0
    for Q in F.objects():
        for t in F.hom_to_S_tables(Q):
            d = alperin_decompose(F, GroupHom(Q, F.S, t))
            assert _chain(d) == oracle.decompose(moves, Q.sorted_ids, t)
            assert d.target.ids == frozenset(t)
            count += 1
    return count


def _seeds(F):
    """The seed maps of a generated system from its definition, as
    (domain ids, {x: image}): each generating morphism, its inverse onto
    its image, then conjugation by each generator of S."""
    seeds = []
    for m in F.generating_morphisms():
        dom = m.domain
        seeds.append((dom.ids, dict(zip(dom.sorted_ids, m.images))))
        seeds.append((frozenset(m.images),
                      dict(zip(m.images, dom.sorted_ids))))
    ssorted = F.S.sorted_ids
    for t in F.S.generator_ids():
        seeds.append((F.S.ids,
                      dict(zip(ssorted, F.ambient.conj_row(ssorted, t)))))
    return seeds


def _check_closure(F):
    seeds = _seeds(F)
    for Q in F.objects():
        want = oracle.closure(seeds, Q.generator_ids(), Q.sorted_ids)
        assert F.hom_to_S_tables(Q) == tuple(sorted(want))
        assert {m.images: m.provenance for m in F.hom_to_S(Q)} == want


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("name,p", CASES)
def test_chains_match_full_table_search(name, p, relabel):
    F = _system(name, p, relabel)
    assert _check_chains(F) > len(F.objects())


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("name,p", CASES)
def test_unsaturated_map_exhausts_both_searches(name, p, relabel):
    U, phi = _unsaturated(_system(name, p, relabel))
    _check_closure(U)
    moves = oracle.alperin_moves(U, fcr_objects(U))
    with pytest.raises(LookupError):
        oracle.decompose(moves, phi.domain.sorted_ids, phi.images)
    with pytest.raises(LookupError):
        alperin_decompose(U, phi)


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("name,p", CASES)
def test_regeneration_closure_matches_full_table_search(name, p, relabel):
    _check_closure(regenerate_from_fcr(_system(name, p, relabel)))


def test_witness_product_closure_matches_full_table_search():
    F = oracle_product.product_closure(_transporter(extraspecial27_c2(), 3),
                                       _transporter(symmetric_group(3), 3))
    _check_closure(F)


@pytest.mark.parametrize("name,p", CASES[:2])
def test_stopping_at_target_keeps_the_search_order(name, p):
    F = _system(name, p, False)
    maps = [
        (Q.ids, dict(zip(Q.sorted_ids, t)))
        for Q in fcr_objects(F)
        for t in F.aut_f_tables(Q)
    ]
    for Q in F.objects():
        gens = Q.generator_ids()
        everything = list(word_search(gens, maps).items())
        for vec, _parent in everything:
            found = list(word_search(gens, maps, vec).items())
            assert found == everything[:len(found)]
            assert found[-1][0] == vec
