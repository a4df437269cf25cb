"""Decomposition of fusion morphisms through fcr automorphisms."""

import pytest

from fusionkit import (
    AlperinDecomposition,
    GroupHom,
    alperin_decompose,
    equal_hom_tables,
    fcr_objects,
    hom_set,
    regenerate_from_fcr,
    verify_decomposition,
)


def _iso_morphisms(F):
    for Q in F.objects():
        for m in F.hom_to_S(Q):
            yield GroupHom(Q, F.S, m.images)


def test_identity_decomposes_to_empty_chain(f_s4):
    F = f_s4
    phi = GroupHom(F.S, F.S, F.S.sorted_ids)
    d = alperin_decompose(F, phi)
    assert len(d) == 0
    assert verify_decomposition(F, d)


def test_trivial_subgroup_needs_no_steps(f_s4):
    F = f_s4
    one = F.subgroup(frozenset([F.ambient.identity_id]))
    phi = GroupHom(one, F.S, (F.ambient.identity_id,))
    d = alperin_decompose(F, phi)
    assert len(d) == 0


def test_double_transposition_swap_is_one_step(f_s4):
    F = f_s4
    G = F.ambient
    a = G.index[(1, 0, 3, 2)]
    b = G.index[(2, 3, 0, 1)]
    A = F.subgroup(frozenset([G.identity_id, a]))
    phi = GroupHom(A, F.S, (G.identity_id, b))
    d = alperin_decompose(F, phi)
    assert len(d) == 1
    _P, Q, psi = d.chain[0]
    assert Q.order == 4
    assert Q.ids in {R.ids for R in fcr_objects(F)}
    assert verify_decomposition(F, d)
    assert d.composite_table() == (G.identity_id, b)


def test_inner_morphism_goes_through_sylow(f_s4):
    F = f_s4
    G = F.ambient
    # conjugation by the 4-cycle inside S moves (12) off itself
    s = next(i for i in F.S.ids if G.element_order(i) == 4)
    t = next(i for i in F.S.ids if G.element_order(i) == 2
             and sum(1 for k, x in enumerate(G.elements[i]) if x != k) == 2)
    from fusionkit import perms
    img = G.index[perms.conjugate(G.elements[t], G.elements[s])]
    assert img != t
    A = F.subgroup(frozenset([G.identity_id, t]))
    phi = GroupHom(A, F.S, (G.identity_id, img))
    d = alperin_decompose(F, phi)
    assert len(d) >= 1
    assert verify_decomposition(F, d)
    assert all(Q.ids in {R.ids for R in fcr_objects(F)}
               for _P, Q, _psi in d.chain)


def test_every_isomorphism_decomposes(saturated_suite):
    for name, F in saturated_suite:
        fcr = {Q.ids for Q in fcr_objects(F)}
        for phi in _iso_morphisms(F):
            d = alperin_decompose(F, phi)
            chk = verify_decomposition(F, d)
            assert chk, (name, chk.violated)
            assert all(Q.ids in fcr for _P, Q, _psi in d.chain), name


def test_tampered_chain_detected(f_s4):
    F = f_s4
    G = F.ambient
    a = G.index[(1, 0, 3, 2)]
    b = G.index[(2, 3, 0, 1)]
    A = F.subgroup(frozenset([G.identity_id, a]))
    phi = GroupHom(A, F.S, (G.identity_id, b))
    d = alperin_decompose(F, phi)
    assert len(d) == 1
    P1, Q, psi = d.chain[0]

    # clause a: route the step through a non-fcr object
    C = F.subgroup(frozenset([G.identity_id, a]))
    bad_a = AlperinDecomposition(
        A, d.target, [(P1, C, GroupHom(C, C, C.sorted_ids))], phi)
    assert verify_decomposition(F, bad_a).violated == "a"

    # clause b: replace psi by a non-automorphism table
    ims = list(psi.images)
    ims[0], ims[1] = ims[1], ims[0]
    bad_b = AlperinDecomposition(
        A, d.target, [(P1, Q, GroupHom(Q, Q, tuple(ims)))], phi)
    assert verify_decomposition(F, bad_b).violated == "b"

    # clause c: claim the chain computes a different morphism
    other = GroupHom(A, F.S, (G.identity_id, a))
    assert verify_decomposition(F, d, other).violated == "c"


def test_unsaturated_morphism_fails_to_decompose(f_swap):
    F = f_swap
    V = F.ambient
    a, b = V.generator_ids()
    A = F.subgroup(frozenset([V.identity_id, a]))
    phi = GroupHom(A, F.S, (V.identity_id, b))
    assert phi.images in F.hom_to_S_tables(A)
    with pytest.raises(LookupError):
        alperin_decompose(F, phi)


def test_regeneration_reproduces_suite(saturated_suite):
    for name, F in saturated_suite:
        R = regenerate_from_fcr(F)
        assert equal_hom_tables(F, R), name


def test_chain_steps_are_fcr_automorphisms(f_es54):
    F = f_es54
    fcr = {Q.ids for Q in fcr_objects(F)}
    Z = F.subgroup(frozenset(
        i for i in F.S.ids
        if all(F.ambient.mul_ids(i, j) == F.ambient.mul_ids(j, i)
               for j in F.S.ids)
    ))
    for m in hom_set(F, Z, F.S):
        d = alperin_decompose(F, GroupHom(Z, F.S, m.images))
        assert verify_decomposition(F, d)
        for _P, Q, psi in d.chain:
            assert Q.ids in fcr
            assert frozenset(psi.images) == Q.ids
