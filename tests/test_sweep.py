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


@pytest.mark.parametrize("name,p,calls", [("S7", 2, 5024), ("A8", 2, 20096)])
def test_sweep_conjugates_one_representative_per_coset(monkeypatch, name, p,
                                                       calls):
    """Only the |G:S| - 1 representatives outside S take the tuple path:
    |S| products each to list their coset and |S| conjugations each to
    conjugate S; every other element is read off S's table."""
    G = GROUPS[name]()
    S = sylow_p(G.full(), p)
    F = transporter_fusion(G, S, p)
    assert (G.order // S.order - 1) * S.order == calls
    counts = Counter()
    for kernel in ("conjugate", "mul"):
        def counted(*args, _real=getattr(perms, kernel), _kernel=kernel):
            counts[_kernel] += 1
            return _real(*args)
        monkeypatch.setattr(perms, kernel, counted)
    fusion._conjugation_pairs(F, G)
    assert counts == {"conjugate": calls, "mul": calls}
