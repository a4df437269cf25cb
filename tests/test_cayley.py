"""The one Cayley walk: greedy generators, tree and columns in one pass.

`groups.CayleyTree` finds a subgroup's greedy generating set on its walk.
These tests check that set against the greedy closure on raw permutation
tuples that it replaced (`oracle_sweep._generators`), check the tree
itself, and check the rejection paths the walk owns: id sets that are not
subgroups and actions that do not extend to homomorphisms.
"""

import random

import pytest

from conftest import extraspecial27_c2
from oracle_groups import p_core
from oracle_sweep import _generators
from test_sweep import relabelled
from fusionkit import (
    all_subgroups,
    alternating_group,
    cyclic_group,
    direct_product,
    extraspecial_plus,
    hom_from_images,
    quotient_group,
    semidirect_product,
    sylow_p,
    symmetric_group,
    transporter_fusion,
)
from fusionkit.groups import (
    CayleyTree,
    Subgroup,
    cayley_tree,
    subgroup_generated,
)

LATTICES = {
    "S4": lambda: symmetric_group(4).full(),
    "A5": lambda: alternating_group(5).full(),
    "Syl2(S6 relabelled)": lambda: sylow_p(
        relabelled(symmetric_group(6), random.Random("S6")).full(), 2),
    "Syl3(3^(1+2):2 x S3)": lambda: sylow_p(
        direct_product(extraspecial27_c2(), symmetric_group(3)).full(), 3),
    "7^(1+2)": lambda: extraspecial_plus(7).full(),
}


@pytest.mark.parametrize("name", ["S4", "Syl2(S6 relabelled)"])
def test_seeded_walk_climbs_one_greedy_generator_at_a_time(name):
    """Seeded with Q's generators, the walk of H reaches Q first, then adds
    the least element not yet reached until it has H; each pass reaches
    the subgroup its generators so far generate."""
    top = LATTICES[name]()
    amb = top.ambient
    lattice = all_subgroups(top)
    for H in lattice:
        sids = H.sorted_ids
        for Q in (Q for Q in lattice if Q.ids <= H.ids):
            seed = Q.generator_ids()
            tree = CayleyTree(H, seed=seed)
            assert tree.gens[:len(seed)] == seed
            assert tree.reached[0] == Q.order and tree.reached[-1] == H.order
            assert len(tree.reached) == len(tree.gens) - len(seed) + 1
            for i, size in enumerate(tree.reached):
                reached = {sids[x] for x in tree.order[:size]}
                gens = tree.gens[:len(seed) + i]
                assert reached == set(subgroup_generated(amb, gens).ids)
                if size < H.order:
                    assert tree.gens[len(seed) + i] == min(
                        H.ids - reached)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_walk_matches_greedy_closure_oracle(name):
    top = LATTICES[name]()
    amb = top.ambient
    els = amb.elements
    for H in all_subgroups(top):
        assert ([els[g] for g in H.generator_ids()]
                == _generators(sorted(H.perms())))
        tree = cayley_tree(H)
        assert tree.gens is H.generator_ids()
        sids = H.sorted_ids
        assert sorted(tree.order) == list(range(H.order))
        # step k fills node k + 1 from a parent node reached before it
        for k, (j, p) in enumerate(tree.full.steps):
            assert p <= k
            child, parent = sids[tree.order[k + 1]], sids[tree.order[p]]
            assert child == amb.mul_ids(parent, tree.gens[j])
        assert tree.full.images(amb, [tree.gens]) == [sids]
        for g, col in zip(tree.gens, tree.cols):
            assert tuple(sids[k] for k in col) == amb.mul_row(sids, g)
        # with its generators given, the walk builds the same maps
        given = cayley_tree(H, list(reversed(tree.gens)))
        assert given.full.images(amb, [given.gens]) == [sids]


def test_one_walk_call_takes_each_vector_on_its_own_path():
    # S4's Sylow 2-subgroup holds the table; one call walks a vector
    # inside it by lookups and one outside it by products
    G = symmetric_group(4)
    S = sylow_p(G.full(), 2)
    transporter_fusion(G, S, 2)
    x = next(i for i in S.sorted_ids if G.element_order(i) == 4)
    y = next(i for i in range(G.order)
             if i not in S.ids and G.element_order(i) == 4)
    Q = subgroup_generated(G, [x])
    plan = cayley_tree(Q, [x]).full
    powers = {G.power_ids(x, m): m for m in range(4)}
    want = [tuple(G.power_ids(g, powers[z]) for z in Q.sorted_ids)
            for g in (x, y)]
    assert plan.images(G, [[x], [y]]) == want
    assert plan.images(G, [[y], [x]]) == want[::-1]


def test_transporter_fusion_rejects_a_non_closed_s():
    G = symmetric_group(4)
    S = sylow_p(G.full(), 2)
    broken = Subgroup(G, S.sorted_ids[:5])
    with pytest.raises(ValueError,
                       match="S is not closed under the group operation"):
        transporter_fusion(G, broken, 2)


def test_non_subgroups_are_rejected_by_the_walk():
    G = symmetric_group(4)
    e = G.identity_id
    no_identity = Subgroup(G, [1])
    assert not no_identity.is_subgroup_closed()
    with pytest.raises(ValueError, match="identity"):
        CayleyTree(no_identity)
    # {e, a, b, b*a} is closed under its first greedy generator a, the
    # least id after e, but not under its second, b
    a = 1
    for b in range(2, G.order):
        X = Subgroup(G, {e, a, b, G.mul_ids(b, a)})
        if G.mul_ids(a, a) == e and G.mul_ids(a, b) not in X:
            break
    assert G.mul_ids(a, b) not in X and min(X.ids - {e}) == a
    assert set(G.mul_row(X.ids, a)) == X.ids
    assert not X.is_subgroup_closed()
    with pytest.raises(ValueError, match="leaves the set"):
        CayleyTree(X)
    V = p_core(G.full(), 2)
    assert V.is_subgroup_closed()
    outside = next(i for i in range(G.order) if i not in V)
    with pytest.raises(ValueError):
        hom_from_images(V, G, [outside], [e])


def test_semidirect_product_rejects_an_action_of_the_wrong_order():
    C7, C3 = cyclic_group(7), cyclic_group(3)
    x = C7.generator_ids()[0]
    # x -> x^3 has order 6 in Aut(C7), so no map C3 -> Aut(C7) sends the
    # generator of C3 to it
    action = [[C7.elements[C7.power_ids(x, 3)]]]
    with pytest.raises(ValueError,
                       match="action does not extend to a homomorphism"):
        semidirect_product(C7, C3, action)
    with pytest.raises(ValueError):
        semidirect_product(C7, C3, action * 2)


def test_semidirect_product_rejects_an_actor_without_generators():
    G = symmetric_group(4)
    Q, _theta = quotient_group(G.full(), p_core(G.full(), 2))
    assert Q.generators == [] and Q.order == 6
    with pytest.raises(ValueError):
        semidirect_product(cyclic_group(7), Q, [])
