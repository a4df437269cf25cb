"""The one breadth-first search over generator images, `word_search`,
against the two full-table searches it replaced and against the search
one map at a time that it was before its moves came in runs of consecutive
maps with one domain (oracle_word_search).

Alperin chains are compared for every morphism of each transporter
system and of a copy of G with its points relabelled by a seeded random
permutation. The closure of generated systems is compared table by table
on the fcr regeneration of each system, on a system that is not
saturated, and on the generated closure of one product of `witness --p 3`
(oracle_product).

A generated system searches Hom(Q, S) once per F-class and reads the
other members by transport. The tests below count those searches, and
check that which member of a class is searched changes no answer.

Runs are compared with the per-map search on seeded interleavings of fcr
automorphisms, so that one domain recurs in runs that are not adjacent,
and the domain tests of one Alperin search on A8 are counted per node.

`alperin_decompose` keeps one search per domain, suspended where its last
query stopped: every morphism's chain is compared with the chain of a
fresh `word_search` that stops at it, with the morphisms asked for in a
shuffled and in reversed order, a repeat query expands no node, an
exhausted search stays exhausted, and the kept searches do not hold the
system.
"""

import gc
import random
import weakref
from collections import Counter
from itertools import cycle

import pytest

import oracle_product
import oracle_word_search as oracle
from conftest import extraspecial27_c2
from test_sweep import GROUPS, relabelled
from fusionkit import (
    GroupHom,
    alperin,
    alperin_decompose,
    aut_F,
    build_rv,
    fusion,
    generated_fusion,
    hom_from_images,
    hom_set,
    hom_table_digest,
    regenerate_from_fcr,
    sylow_p,
    symmetric_group,
    transporter_fusion,
    verify_decomposition,
)
from fusionkit.classify import fcr_objects
from fusionkit.fusion import same_domain_runs, word_search

CASES = [("S6", 2), ("S6", 3), ("SL(3,3)", 3), ("3^(1+2):2", 3), ("A8", 2)]


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
    its image, then conjugation by each generator of S, keeping the first
    of equal maps."""
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
    return [seed for k, seed in enumerate(seeds)
            if seed not in seeds[:k]]


def _check_closure(F):
    seeds = _seeds(F)
    for Q in F.objects():
        want = oracle.closure(seeds, Q.generator_ids(), Q.sorted_ids)
        assert F.hom_to_S_tables(Q) == tuple(sorted(want))


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize(
    "name,p", [*CASES[:-1], pytest.param("A8", 2, marks=pytest.mark.slow)])
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
    # the search from phi's domain is exhausted, and stays so
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
    runs = same_domain_runs(
        (Q.ids, dict(zip(Q.sorted_ids, t)))
        for Q in fcr_objects(F)
        for t in F.aut_f_tables(Q)
    )
    for Q in F.objects():
        gens = Q.generator_ids()
        everything = list(word_search(gens, runs).items())
        for vec, _parent in everything:
            found = list(word_search(gens, runs, vec).items())
            assert found == everything[:len(found)]
            assert found[-1][0] == vec


def _interleaved(F, seed):
    """The fcr automorphisms of F as maps (Q.ids, {x: image}), dealt from
    one pile per object in chunks of one, two, three, one, ... maps, each
    from a pile picked at random among the others while they last."""
    rng = random.Random(seed)
    piles = [[(Q.ids, dict(zip(Q.sorted_ids, t))) for t in F.aut_f_tables(Q)]
             for Q in sorted(fcr_objects(F), key=lambda Q: Q.sorted_ids)]
    maps, last = [], None
    for take in cycle((1, 2, 3)):
        left = [pile for pile in piles if pile]
        if not left:
            return maps
        pile = rng.choice([pile for pile in left if pile is not last]
                          or left)
        maps += pile[:take]
        del pile[:take]
        last = pile


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name,p", [("S6", 2), ("S6", 3), ("SL(3,3)", 3)])
def test_runs_search_like_one_map_at_a_time(name, p, seed):
    F = _system(name, p, False)
    maps = _interleaved(F, f"{name}@{p}/{seed}")
    runs = same_domain_runs(maps)
    assert [(dom, t) for dom, tables in runs for t in tables] == maps
    assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))
    if len(fcr_objects(F)) > 1:
        # runs of one map and of more, and a domain in runs apart
        assert {len(tables) > 1 for _dom, tables in runs} == {False, True}
        assert len({dom for dom, _tables in runs}) < len(runs)
    widths = set()
    for Q in F.objects():
        gens = Q.generator_ids()
        widths.add(min(len(gens), 2))
        flat = list(oracle.flat_search(gens, maps).items())
        assert list(word_search(gens, runs).items()) == flat
        for vec, _parent in {flat[len(flat) // 2], flat[-1]}:
            assert (list(word_search(gens, runs, vec).items())
                    == list(oracle.flat_search(gens, maps, vec).items()))
    assert widths == {0, 1, 2}


class _CountedDomain(frozenset):
    """A domain that records the vector of each containment test."""

    def issuperset(self, vec):
        self.tests.append(vec)
        return frozenset.issuperset(self, vec)


def _counted(dom, tests):
    dom = _CountedDomain(dom)
    dom.tests = tests
    return dom


def test_alperin_search_tests_each_run_once_per_node(monkeypatch):
    F = _system("A8", 2, False)
    runs, tables, objects = alperin._moves(F)
    assert (len(runs), len(tables)) == (7, 596)
    tests = []
    counted = tuple((_counted(dom, tests), ts) for dom, ts in runs)
    monkeypatch.setattr(alperin, "_moves",
                        lambda _F: (counted, tables, objects))
    # every phi below on a search from scratch, not one that an earlier
    # query on its domain has run
    kept = alperin._alperin_search
    monkeypatch.setattr(alperin, "_alperin_search", kept.__wrapped__)
    length = 0
    for Q in F.objects():
        if Q.order != 4:
            continue
        for phi in F.hom_to_S(Q):
            tests.clear()
            d = alperin_decompose(F, phi)
            assert max(Counter(tests).values(), default=0) <= len(runs)
            if len(d) > length:
                length, longest, nodes = len(d), phi, Counter(tests)
    # the longest chain's search, one map at a time, tests every map's
    # domain at each node it expands: the same nodes
    assert length >= 3 and len(nodes) > 1
    flat_tests = []
    maps = [(_counted(R.ids, flat_tests), table)
            for R, table in zip(objects, tables)]
    Q = longest.domain
    gens = Q.generator_ids()
    target = tuple(longest.images[Q.positions[g]] for g in gens)
    assert target in oracle.flat_search(gens, maps, target)
    flat_nodes = Counter(flat_tests)
    assert flat_nodes.keys() == nodes.keys()
    assert max(flat_nodes.values()) == len(maps)
    # the search kept per domain expands the same nodes on its first
    # query, and a repeat query expands none
    monkeypatch.setattr(alperin, "_alperin_search", kept)
    tests.clear()
    chain = _chain(alperin_decompose(F, longest))
    assert Counter(tests) == nodes
    tests.clear()
    assert _chain(alperin_decompose(F, longest)) == chain
    assert tests == []


def _fresh_chain(moves, phi):
    """The chain of phi read off a `word_search` from its domain's
    generators that starts from scratch and stops at phi's vector."""
    runs, tables, objects = moves
    Q = phi.domain
    gens = Q.generator_ids()
    vec = tuple(phi.images[Q.positions[g]] for g in gens)
    parents = word_search(gens, runs, vec)
    word = []
    while parents[vec] is not None:
        vec, k = parents[vec]
        word.append(k)
    chain, cur = [], Q.sorted_ids
    for k in reversed(word):
        R, psi = objects[k], tables[k]
        cur = tuple(psi[x] for x in cur)
        chain.append((frozenset(cur), R.ids,
                      tuple(psi[x] for x in R.sorted_ids)))
    return chain


@pytest.mark.parametrize("order", ["shuffled", "reversed"])
@pytest.mark.parametrize("name,p", [("S6", 2), ("S6", 3), ("SL(3,3)", 3),
                                    ("A8", 2)])
def test_resumed_search_gives_the_chains_of_a_fresh_search(name, p, order):
    """The Alperin search kept per domain, resumed by each query in turn,
    gives every morphism the chain of a search from scratch that stops at
    it, whichever order the morphisms are asked for in."""
    F = _system(name, p, False)
    moves = alperin._moves(F)
    phis = [GroupHom(Q, F.S, t)
            for Q in F.objects() for t in F.hom_to_S_tables(Q)]
    if order == "shuffled":
        random.Random(f"{name}@{p}").shuffle(phis)
    else:
        phis.reverse()
    for phi in phis:
        assert _chain(alperin_decompose(F, phi)) == _fresh_chain(moves, phi)
    # domains recur, so most queries read or resume a kept search
    assert len({phi.domain.ids for phi in phis}) < len(phis)


def test_system_freed_after_its_decompositions():
    """The searches kept per domain hold the moves and the vectors, not
    the system: with the cyclic collector off throughout, a system whose
    searches are suspended, finished or exhausted is freed as soon as it
    is dropped."""
    gc.disable()
    try:
        F = _system("S6", 2, False)
        for Q in F.objects():
            for t in F.hom_to_S_tables(Q)[::3]:
                d = alperin_decompose(F, GroupHom(Q, F.S, t))
                assert verify_decomposition(F, d)
        U, phi = _unsaturated(F)
        with pytest.raises(LookupError):
            alperin_decompose(U, phi)
        refs = [weakref.ref(F), weakref.ref(U)]
        del F, U, phi
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def _count_searches(monkeypatch):
    """The generator ids of every `fusion.word_search` from now on."""
    calls = []

    def counted(gens, *args, _real=fusion.word_search):
        calls.append(tuple(gens))
        return _real(gens, *args)
    monkeypatch.setattr(fusion, "word_search", counted)
    return calls


def _roots(F):
    """(order, ids) of every object whose hom set F searched."""
    orders = {Q.order for Q in F.objects() if Q.order > 1}
    return {(order, R.ids) for order in orders
            for R, _psi in F._transports(order).values()}


@pytest.mark.parametrize("name,classes", [("rv1", 5), ("rv2", 5),
                                          ("rv3", 4)])
def test_build_rv_searches_once_per_f_class(monkeypatch, name, classes):
    calls = _count_searches(monkeypatch)
    F = build_rv(name)
    assert len(calls) == classes == len(F.conjugacy_classes())
    assert len(_roots(F)) == classes - 1  # and the trivial subgroup
    V = next(Q for Q in F.objects() if Q.order == F.p ** 2
             and (Q.order, Q.ids) not in _roots(F))
    hom_set(F, V, F.S)
    aut_F(F, V)
    assert len(calls) == classes


@pytest.mark.parametrize("name,p", CASES[:-1])
def test_reading_every_hom_set_searches_once_per_class(monkeypatch, name, p):
    """Every hom set of the fcr regeneration, handed out as morphisms,
    costs one search per F-class, of the member the class was recorded
    from: the other members are read by transport, and none is searched
    twice."""
    F = regenerate_from_fcr(_system(name, p, False))
    calls = _count_searches(monkeypatch)
    for Q in F.objects():
        F.hom_to_S(Q)
    searched = [()] + [tuple(F.subgroup(ids).generator_ids())
                       for _order, ids in _roots(F)]
    assert sorted(calls) == sorted(searched)
    assert len(calls) == len(F.conjugacy_classes()) < len(F.objects())


def _check_order_independence(build):
    """Two fresh systems from `build()`, asked for their objects forward
    and in reverse, search other members and give the same answers."""
    forward, reverse = build(), build()
    for F, order in ((forward, 1), (reverse, -1)):
        for Q in F.objects()[::order]:
            F.hom_vectors(Q)
    assert _roots(forward) != _roots(reverse)
    for Q in forward.objects():
        R = reverse.subgroup(Q.ids)
        assert set(forward.hom_vectors(Q)) == set(reverse.hom_vectors(R))
        assert ([P.ids for P in forward.f_conjugates(Q)]
                == [P.ids for P in reverse.f_conjugates(R)])
    assert hom_table_digest(forward) == hom_table_digest(reverse)


@pytest.mark.parametrize("name,p", CASES)
def test_searched_member_changes_no_answer(name, p):
    F = _system(name, p, False)
    _check_order_independence(lambda: regenerate_from_fcr(F))
    _check_order_independence(lambda: _unsaturated(F)[0])


def test_searched_member_changes_no_answer_on_rv1(rv_systems):
    F = rv_systems["rv1"]
    gens = F.generating_morphisms()
    _check_order_independence(lambda: generated_fusion(F.S, F.p, gens))
