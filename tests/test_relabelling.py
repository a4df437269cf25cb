"""Renaming the points of G does not change any answer about F_S(G).

A point relabelling renumbers the elements of G and may pick another
Sylow subgroup, but the fusion system it gives is isomorphic. Its hom-set
cardinality multiset, the orders of its fcr objects and the number of
objects carrying each classifier flag must equal those of the unrelabelled
system. So must those of the system that `generated_fusion` closes from
the relabelled system's generating morphisms, which searches one member of
each class on the relabelled ids and reads the others by transport.
"""

import functools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_sweep import GROUPS, relabelled
from fusionkit import (
    generated_fusion,
    hom_table_digest,
    sylow_p,
    transporter_fusion,
)
from fusionkit.classify import classifier_rows, fcr_objects

CASES = [("S6", 2), ("S7", 2), ("SL(3,3)", 3), ("3^(1+2):2", 3)]


def _transporter(G, p):
    return transporter_fusion(G, sylow_p(G.full(), p), p)


def _invariants(F):
    cards = sorted(tuple(c) for c in hom_table_digest(F)["cardinalities"])
    fcr_orders = tuple(Q.order for Q in fcr_objects(F))
    flags = Counter(
        flag for row in classifier_rows(F)
        for flag, value in row.items() if flag != "object" and value
    )
    return cards, fcr_orders, flags


@functools.lru_cache(maxsize=None)
def _unrelabelled(name, p):
    return _invariants(_transporter(GROUPS[name](), p))


@pytest.mark.parametrize("name,p", CASES)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_relabelling_keeps_invariants(name, p, seed):
    G = relabelled(GROUPS[name](), random.Random(seed))
    assert _invariants(_transporter(G, p)) == _unrelabelled(name, p)


@pytest.mark.parametrize("name,p", CASES)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_relabelling_keeps_invariants_of_generated_closure(name, p, seed):
    F = _transporter(relabelled(GROUPS[name](), random.Random(seed)), p)
    closed = generated_fusion(F.S, p, F.generating_morphisms())
    assert _invariants(closed) == _unrelabelled(name, p)
