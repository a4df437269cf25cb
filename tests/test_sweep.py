"""The single conjugation sweep of F_S(G) against the per-subgroup sweep.

Each case also builds a copy of G with its points relabelled by a seeded
random permutation: that changes the element numbering and which Sylow
subgroup is chosen, but not the fusion system, so the copy must have the
same hom-set cardinalities.
"""

import random

import pytest

import oracle_sweep
from conftest import extraspecial27_c2, sl33_group
from fusionkit import (
    FiniteGroup,
    alternating_group,
    hom_table_digest,
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
}

CASES = [
    ("S6", 2),
    ("S6", 3),
    ("S7", 2),
    ("SL(3,3)", 3),
    ("3^(1+2):2", 3),
    pytest.param("A8", 2, marks=pytest.mark.slow),
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


@pytest.mark.parametrize("name,p", CASES)
def test_sweep_matches_per_subgroup_oracle(name, p):
    G = GROUPS[name]()
    copy = relabelled(G, random.Random(f"{name}@{p}"))
    cardinalities = []
    for K in (G, copy):
        F = transporter_fusion(K, sylow_p(K.full(), p), p)
        for Q in F.objects():
            want = oracle_sweep.hom_to_S(K, F.S.ids, Q.ids)
            assert F.hom_to_S_tables(Q) == tuple(sorted(want))
            got = {m.images: m.provenance for m in F.hom_to_S(Q)}
            assert got == {t: ("conjugation", g) for t, g in want.items()}
        cardinalities.append(sorted(hom_table_digest(F)["cardinalities"]))
    assert cardinalities[0] == cardinalities[1]


@pytest.mark.parametrize("name,p", CASES[:2])
def test_generating_morphisms_match_oracle(name, p):
    G = GROUPS[name]()
    F = transporter_fusion(G, sylow_p(G.full(), p), p)
    got = [(m.domain.ids, m.images, m.provenance[1])
           for m in F.generating_morphisms()]
    assert got == oracle_sweep.maximal_conjugations(G, F.S.ids)
