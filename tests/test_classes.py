"""F-classes read off the class record, against their two-way definition
(oracle_classes), on transporter, generated, product, quotient and
normalizer systems.

Every system records a class from one member: the class of Q is the set of
images of Hom(Q, S). A generated rule records each class as it searches
it, and any other system records one the first time the class of a member
is asked for. Each class is recorded once, so `_image_objects` runs once
per class of order > 1, however many members are asked for. `is_radical`,
a property of the class, answers each member from the member its class
was recorded from.
"""

from collections import Counter

import pytest

import oracle_classes
from conftest import extraspecial27_c2, sl33_group
from fusionkit import (
    FusionSystem,
    alternating_group,
    build_rv,
    normalizer_subsystem,
    product_fusion,
    quotient_fusion,
    regenerate_from_fcr,
    sylow_p,
    symmetric_group,
    transporter_fusion,
)
from fusionkit.classify import aut_f_p_core, is_radical
from fusionkit.cli import _witness_pairs_p3


def _transporter(G, p):
    return transporter_fusion(G, sylow_p(G.full(), p), p)


def _product():
    _n1, F1, _n2, F2 = _witness_pairs_p3()[3]
    return product_fusion(F1, F2)


def _quotient():
    F = _product()
    return quotient_fusion(F, F.subgroup(F.factor_embeddings[1].ids))[0]


def _normalizer():
    F = _transporter(extraspecial27_c2(), 3)
    Z = min((Q for Q in F.objects() if Q.order == 3
             and F.normalizer_of(Q) == F.S), key=lambda Q: Q.sorted_ids)
    return normalizer_subsystem(F, Z)


SYSTEMS = {
    "S6@2": lambda: _transporter(symmetric_group(6), 2),
    "SL(3,3)@3": lambda: _transporter(sl33_group(), 3),
    "A8@2": lambda: _transporter(alternating_group(8), 2),
    "3^(1+2):2 x S3": _product,
    "(3^(1+2):2 x S3)/S3": _quotient,
    "N_F(Z) of 3^(1+2):2@3": _normalizer,
    "rv1": lambda: build_rv("rv1"),
    "S6@2 regenerated": lambda: regenerate_from_fcr(
        _transporter(symmetric_group(6), 2)),
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_classes_match_the_two_way_definition(name, monkeypatch):
    read = []

    def counted(F, order, vectors, _real=FusionSystem._image_objects):
        read.append((F, order))
        return _real(F, order, vectors)
    monkeypatch.setattr(FusionSystem, "_image_objects", counted)
    F = SYSTEMS[name]()
    classes = [[Q.ids for Q in cls] for cls in F.conjugacy_classes()]
    members = {Q.ids: [R.ids for R in F.f_conjugates(Q)]
               for Q in F.objects()}
    # a system built from another counts only its own classes
    assert Counter(order for G, order in read if G is F) == Counter(
        len(cls[0]) for cls in classes if len(cls[0]) > 1)
    want = {ids: [R.ids for R in cls]
            for ids, cls in oracle_classes.conjugacy_classes(F).items()}
    assert members == want
    # one class per least member, in the order of F.objects()
    assert classes == [want[Q.ids] for Q in F.objects()
                       if want[Q.ids][0] == Q.ids]


@pytest.mark.parametrize("name", ["S6@2", "3^(1+2):2 x S3"])
def test_radical_answers_each_member_from_its_recorded_member(name):
    F = SYSTEMS[name]()
    moved = 0
    for Q in F.objects():
        core, inner = aut_f_p_core(F, Q)
        assert is_radical(F, Q) == (core == inner), Q.order
        moved += F._recorded(Q) is not Q
    assert moved > 0


@pytest.mark.parametrize("name", ["S6@2", "3^(1+2):2 x S3"])
def test_hom_sets_record_no_class_until_one_is_asked_for(name):
    F = SYSTEMS[name]()
    for Q in F.objects():
        F.hom_vectors(Q)
    assert not any(F._transports(Q.order) for Q in F.objects())
    P = F.objects()[1]
    assert {R.ids for R in F.f_conjugates(P)} == set(F._transports(P.order))
