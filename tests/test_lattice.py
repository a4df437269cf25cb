"""Subgroup lattices against the algorithms they replaced.

Each p-group case also builds a copy of its ambient group with the points
relabelled by a seeded random permutation. The copy's lattice must match
the reference climb as well, and have the same multiset of orders.
"""

import random
from collections import Counter

import pytest

import oracle_lattice
from test_sweep import relabelled
from fusionkit import (
    all_subgroups,
    alternating_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    extraspecial_plus,
    sylow_p,
    symmetric_group,
)

P_GROUPS = {
    "Syl2(S8)": (lambda: symmetric_group(8), 2),
    "D16": (lambda: dihedral_group(16), 2),
    "3^(1+2)xC3": (
        lambda: direct_product(extraspecial_plus(3), cyclic_group(3)), 3),
    "7^(1+2)": (lambda: extraspecial_plus(7), 7),
    "3^(1+2)xC3xC3": (
        lambda: direct_product(extraspecial_plus(3), cyclic_group(3),
                               cyclic_group(3)), 3),
}

GENERIC = {
    "S4": lambda: symmetric_group(4),
    "A5": lambda: alternating_group(5),
}


def _as_perms(subgroups):
    return [frozenset(H.perms()) for H in subgroups]


@pytest.mark.parametrize("name", [
    "Syl2(S8)",
    "D16",
    "3^(1+2)xC3",
    "7^(1+2)",
    pytest.param("3^(1+2)xC3xC3", marks=pytest.mark.slow),
])
def test_p_group_lattice_matches_climb_oracle(name):
    build, p = P_GROUPS[name]
    G = build()
    copy = relabelled(G, random.Random(name))
    orders = []
    for K in (G, copy):
        S = sylow_p(K.full(), p)
        got = _as_perms(all_subgroups(S))
        assert got == oracle_lattice.p_group_lattice(S.perms(), p)
        orders.append(Counter(len(H) for H in got))
    assert orders[0] == orders[1]


@pytest.mark.parametrize("name", sorted(GENERIC))
def test_generic_lattice_matches_join_oracle(name):
    G = GENERIC[name]()
    got = _as_perms(all_subgroups(G.full()))
    assert got == oracle_lattice.join_lattice(G.elements)
