"""The conjugation sweep of F_S(G) against per-element oracles.

The sweep conjugates S by one representative of each right coset of S in
G and reads every other element's conjugation off S's own table; the
oracles scan every element of G on raw permutation tuples. Each case also
builds a copy of G with its points relabelled by a seeded random
permutation: that changes the element numbering and which Sylow subgroup
is chosen, but not the fusion system, so the copy must have the same
hom-set cardinalities.
"""

import random
from collections import Counter

import pytest

import oracle_sweep
import oracle_tables
from conftest import extraspecial27_c2, sl33_group
from fusionkit import (
    FiniteGroup,
    alternating_group,
    extraspecial_plus,
    fusion,
    hom_table_digest,
    perms,
    sylow_p,
    symmetric_group,
    transporter_fusion,
)

GROUPS = {
    "S6": lambda: symmetric_group(6),
    "S7": lambda: symmetric_group(7),
    "A8": lambda: alternating_group(8),
    "SL(3,3)": sl33_group,
    "3^(1+2):2": extraspecial27_c2,
    # G = S: one coset, read off the table alone
    "3^(1+2)": lambda: extraspecial_plus(3),
}

CASES = [
    ("S6", 2),
    ("S6", 3),
    ("S7", 2),
    ("SL(3,3)", 3),
    ("3^(1+2):2", 3),
    ("3^(1+2)", 3),
]


def relabelled(G: FiniteGroup, rng: random.Random) -> FiniteGroup:
    """G with its points renamed by a random permutation sigma."""
    sigma = list(range(G.degree))
    rng.shuffle(sigma)
    gens = []
    for g in G.generators:
        h = [0] * G.degree
        for i, gi in enumerate(g):
            h[sigma[i]] = sigma[gi]
        gens.append(tuple(h))
    return FiniteGroup(G.degree, gens, name=f"relabelled {G.name}")


@pytest.mark.parametrize(
    "name,p", CASES + [pytest.param("A8", 2, marks=pytest.mark.slow)])
def test_sweep_matches_per_subgroup_oracle(name, p):
    G = GROUPS[name]()
    copy = relabelled(G, random.Random(f"{name}@{p}"))
    cardinalities = []
    for K in (G, copy):
        F = transporter_fusion(K, sylow_p(K.full(), p), p)
        for Q in F.objects():
            want = sorted(oracle_sweep.hom_to_S(K, F.S.ids, Q.ids))
            assert F.hom_to_S_tables(Q) == tuple(want)
            assert [m.images for m in F.hom_to_S(Q)] == want
        cardinalities.append(sorted(hom_table_digest(F)["cardinalities"]))
    assert cardinalities[0] == cardinalities[1]


@pytest.mark.parametrize("name,p", CASES + [("A8", 2)])
def test_generating_morphisms_match_oracle(name, p):
    """Domain and table of every pair, in the oracle's order of least g."""
    G = GROUPS[name]()
    for K in (G, relabelled(G, random.Random(f"{name}@{p}"))):
        F = transporter_fusion(K, sylow_p(K.full(), p), p)
        got = [(m.domain.ids, m.images) for m in F.generating_morphisms()]
        assert got == oracle_sweep.maximal_conjugations(K, F.S.ids)


@pytest.mark.parametrize("name,p,getters,products", [
    ("S7", 2, 331, 10080), ("A8", 2, 379, 40320)])
def test_sweep_conjugates_one_representative_per_coset(
        monkeypatch, name, p, getters, products):
    """S is conjugated by one representative r of each of the |G:S| right
    cosets, through permutation getters alone: one per element of S, built
    once, forms the products x*r of the coset, and one of r^-1 per coset
    reads them as x^r = r^-1 (x*r). That is |S| + |G:S| getters, 2|G|
    products and |G:S| inverses; every other element is read off S's
    table, and no `perms.mul` or `perms.conjugate` runs."""
    G = GROUPS[name]()
    S = sylow_p(G.full(), p)
    F = transporter_fusion(G, S, p)
    cosets = G.order // S.order
    assert (S.order + cosets, 2 * G.order) == (getters, products)
    counts = Counter()

    def counted(kernel, real):
        def call(*args):
            counts[kernel] += 1
            return real(*args)
        return call

    def left_mul(a, _real=perms.left_mul):
        counts["left_mul"] += 1
        return counted("product", _real(a))

    for kernel in ("conjugate", "mul", "inverse"):
        monkeypatch.setattr(perms, kernel,
                            counted(kernel, getattr(perms, kernel)))
    monkeypatch.setattr(perms, "left_mul", left_mul)
    fusion._conjugation_pairs(F, G)
    assert counts == {"left_mul": getters, "product": products,
                      "inverse": cosets}


@pytest.mark.parametrize("name,p", [
    ("S6", 2), ("S7", 2), ("SL(3,3)", 3), ("3^(1+2):2", 3), ("A8", 2)])
def test_hom_vectors_keep_the_order_of_a_full_pair_scan(name, p):
    """The transporter rule reads only the pairs whose domain holds Q's
    generators; every Hom(Q, S) it returns is the full scan's, in order."""
    G = GROUPS[name]()
    F = transporter_fusion(G, sylow_p(G.full(), p), p)
    for Q in F.objects():
        assert F.hom_vectors(Q) == oracle_tables.transporter_vectors(F, G, Q)
