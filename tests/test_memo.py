"""Memoised invariants: repeat calls agree with the first call and with a
freshly built system, and a caller mutating a returned list cannot change
what the next call returns. A system's memo holds no reference back to the
system, so every kind of system is freed by reference counting alone."""

import gc
import weakref

import pytest

import fusionkit.alperin
from fusionkit import (
    alperin_decompose,
    cr_objects,
    fcr_objects,
    generated_fusion,
    hom_table_digest,
    is_saturated,
    normalizer_subsystem,
    out_F,
    product_fusion,
    quotient_fusion,
    sylow_p,
    symmetric_group,
    transporter_fusion,
)
from fusionkit.classify import _extensions


def _system():
    G = symmetric_group(6)
    return transporter_fusion(G, sylow_p(G.full(), 2), 2)


@pytest.fixture
def pair():
    return _system(), _system()


def _class_ids(classes):
    return [[Q.ids for Q in cls] for cls in classes]


def test_aut_f_tables(pair):
    F, fresh = pair
    for Q in F.objects():
        first = F.aut_f_tables(Q)
        assert isinstance(first, tuple)
        assert F.aut_f_tables(Q) == first
        assert fresh.aut_f_tables(fresh.subgroup(Q.ids)) == first
        assert [m.images for m in F.aut_f(Q)] == list(first)


def test_conjugacy_classes(pair):
    F, fresh = pair
    first = F.conjugacy_classes()
    want = _class_ids(first)
    assert _class_ids(F.conjugacy_classes()) == want
    assert _class_ids(fresh.conjugacy_classes()) == want
    first[0].clear()
    first.pop()
    assert _class_ids(F.conjugacy_classes()) == want


def test_fcr_objects(pair):
    F, fresh = pair
    for objects in (fcr_objects, cr_objects):
        first = objects(F)
        want = [Q.ids for Q in first]
        assert [Q.ids for Q in objects(F)] == want
        assert [Q.ids for Q in objects(fresh)] == want
        first.clear()
        assert [Q.ids for Q in objects(F)] == want


def test_out_F(pair):
    F, fresh = pair
    for Q in F.objects():
        first = out_F(F, Q)
        again = out_F(F, Q)
        other = out_F(fresh, fresh.subgroup(Q.ids))
        assert again.elements == first.elements
        assert other.elements == first.elements


def test_alperin_moves_built_once(pair, monkeypatch):
    F, fresh = pair
    built = []
    moves = fusionkit.alperin._moves

    def counting(system):
        built.append(system)
        return moves(system)

    monkeypatch.setattr(fusionkit.alperin, "_moves", counting)
    Q = max(F.objects(), key=lambda Q: (len(F.hom_to_S_tables(Q)), Q.order))
    phi = F.hom_to_S(Q)[-1]
    first = alperin_decompose(F, phi)
    again = alperin_decompose(F, phi)
    other = alperin_decompose(fresh, fresh.hom_to_S(fresh.subgroup(Q.ids))[-1])
    assert built == [F, fresh]
    assert len(first) > 0
    # the memo keeps the moves as maximal runs of one object's automorphisms
    # beside the flat tables and objects of the chain rebuild
    runs, tables, objects = F._memo[("alperin_moves",)]
    assert [t for _dom, ts in runs for t in ts] == list(tables)
    assert [dom for dom, ts in runs for _t in ts] == [R.ids for R in objects]
    assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))

    def chain(d):
        return [(P.ids, Q.ids, psi.images) for P, Q, psi in d.chain]

    assert chain(again) == chain(first)
    assert chain(other) == chain(first)


KINDS = ["generated", "normalizer", "product", "quotient", "transporter"]


def _build(kind):
    F1, F2 = (transporter_fusion(G, sylow_p(G.full(), 2), 2)
              for G in (symmetric_group(4), symmetric_group(2)))
    if kind == "transporter":
        return F1
    if kind == "generated":
        return generated_fusion(F1.S, 2, F1.generating_morphisms())
    if kind == "normalizer":
        return normalizer_subsystem(F1, F1.S)
    F = product_fusion(F1, F2)
    if kind == "product":
        return F
    return quotient_fusion(F, F.factor_embeddings[1])[0]


@pytest.mark.parametrize("kind", KINDS)
def test_system_freed_by_reference_counting(kind):
    F = _build(kind)
    assert is_saturated(F).verdict
    fcr_objects(F)
    F.conjugacy_classes()
    F.generating_morphisms()
    hom_table_digest(F)
    ref = weakref.ref(F)
    gc.disable()
    try:
        del F
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", KINDS)
def test_system_freed_after_candidate_tests(kind):
    """Receptivity's candidate test, `FusionSystem.extends`, leaves no
    reference cycle through the system: with the cyclic collector off
    throughout, the system is freed as soon as it is dropped."""
    gc.disable()
    try:
        F = _build(kind)
        tested = 0
        for P in F.objects():
            if P == F.S:
                continue
            for Q in F.f_conjugates(P):
                for vec, N, candidates, _orbit in _extensions(
                        F, Q, P, F.hom_into(Q, P)[1]):
                    F.extends(N, Q, vec, candidates)
                    tested += 1
        assert tested > 0
        ref = weakref.ref(F)
        del F
        assert ref() is None
    finally:
        gc.enable()
