"""Fusion-system model: transporter and generated backends, axioms."""

import gc
import re
import weakref
from itertools import product

import pytest

from fusionkit import (
    FusionSystem,
    GroupHom,
    Subgroup,
    alperin_decompose,
    alternating_group,
    audit_axioms,
    aut_F,
    aut_S,
    build_rv,
    centralizer,
    centralizer_subsystem,
    cyclic_group,
    dihedral_group,
    elementary_abelian_group,
    equal_hom_tables,
    f_class_of_element,
    f_conjugates,
    fcr_objects,
    generated_fusion,
    hom_from_images,
    hom_set,
    hom_table_digest,
    inner_fusion,
    is_centric,
    is_fully_automised,
    is_fully_centralised,
    is_fully_normalised,
    is_normal_in_F,
    is_radical,
    is_receptive,
    is_strongly_closed,
    normalizer,
    normalizer_subsystem,
    out_F,
    quotient_fusion,
    quotient_group,
    regenerate_from_fcr,
    subgroup_generated,
    sylow_p,
    symmetric_group,
    transporter_fusion,
    verify_decomposition,
)
import fusionkit.groups as groups
from conftest import sl33_group
from fusionkit.fusion import AUDIT_SAMPLES


def test_transporter_requires_sylow():
    G = symmetric_group(4)
    C2 = subgroup_generated(G, [G.index[(1, 0, 2, 3)]])
    with pytest.raises(ValueError):
        transporter_fusion(G, C2, 2)


def test_inner_fusion_of_d8_is_pure_conjugation():
    D8 = dihedral_group(8)
    F = transporter_fusion(D8, D8.full(), 2)
    Finn = inner_fusion(D8.full(), 2)
    assert equal_hom_tables(F, Finn)
    from fusionkit import perms
    for Q in F.objects():
        conj = {
            tuple(D8.index[perms.conjugate(D8.elements[i], s)]
                  for i in Q.sorted_ids)
            for s in D8.elements
        }
        assert set(F.hom_to_S_tables(Q)) == conj


def test_s4_klein_four_automizer():
    G = symmetric_group(4)
    S = sylow_p(G.full(), 2)
    F = transporter_fusion(G, S, 2)
    V1 = F.subgroup(frozenset(
        G.index[p] for p in [(0, 1, 2, 3), (1, 0, 3, 2),
                             (2, 3, 0, 1), (3, 2, 1, 0)]
    ))
    assert len(aut_F(F, V1)) == 6
    assert len(hom_set(F, V1, V1)) == 6
    assert len(aut_S(F, V1)) == 2


def test_s3_inverts_its_sylow_3():
    G = symmetric_group(3)
    S = sylow_p(G.full(), 3)
    F = transporter_fusion(G, S, 3)
    assert len(aut_F(F, F.S)) == 2


def test_generated_empty_is_inner():
    D8 = dihedral_group(8)
    F = generated_fusion(D8.full(), 2, [])
    assert equal_hom_tables(F, inner_fusion(D8.full(), 2))


def test_generated_inversion_matches_s3_transporter():
    C3 = cyclic_group(3)
    g = C3.generator_ids()[0]
    inv = C3.inverse_ids[g]
    h = hom_from_images(C3.full(), C3, [g], [inv])
    F = generated_fusion(C3.full(), 3, [h])
    G = symmetric_group(3)
    Ft = transporter_fusion(G, sylow_p(G.full(), 3), 3)
    assert equal_hom_tables(F, Ft)


def test_generated_order3_matches_a4_transporter():
    A4 = alternating_group(4)
    S = sylow_p(A4.full(), 2)
    a, b = S.generator_ids()
    ab = A4.mul_ids(a, b)
    rot = hom_from_images(S, A4, [a, b], [b, ab])
    F = generated_fusion(S, 2, [rot])
    Ft = transporter_fusion(A4, S, 2)
    assert equal_hom_tables(F, Ft)


def test_trivial_domain_has_one_map():
    G = symmetric_group(4)
    F = transporter_fusion(G, sylow_p(G.full(), 2), 2)
    one = F.subgroup(frozenset([G.identity_id]))
    assert len(hom_set(F, one, F.S)) == 1


def test_double_transpositions_fuse():
    G = symmetric_group(4)
    F = transporter_fusion(G, sylow_p(G.full(), 2), 2)
    doubles = [p for p in G.elements
               if sum(1 for i, x in enumerate(p) if x != i) == 4
               and all(p[p[i]] == i for i in range(4))
               and G.index[p] in F.S]
    assert len(doubles) >= 2
    subs = [F.subgroup(frozenset([G.identity_id, G.index[p]]))
            for p in doubles]
    mates = f_conjugates(F, subs[0])
    mate_ids = {Q.ids for Q in mates}
    for Q in subs[1:]:
        assert Q.ids in mate_ids


def test_f_class_of_identity():
    G = symmetric_group(3)
    F = transporter_fusion(G, sylow_p(G.full(), 3), 3)
    assert f_class_of_element(F, G.identity_id) == [G.identity_id]
    foreign = re.escape(f"not an element of {G!r}")
    with pytest.raises(ValueError, match=foreign):
        f_class_of_element(F, (0, 1))


@pytest.mark.parametrize("name", ["rv1", "A8@2"])
def test_f_class_of_element_matches_per_element_reading(request, name):
    """The classes read off Hom(<x>, S) over all of <x>, once per cyclic
    subgroup, are the images of x alone under Hom(<x>, S)."""
    if name == "rv1":
        F = request.getfixturevalue("rv_systems")["rv1"]
    else:
        G = alternating_group(8)
        F = transporter_fusion(G, sylow_p(G.full(), 2), 2)
    for x in F.S.sorted_ids:
        C = subgroup_generated(F.ambient, [x])
        want = sorted({y for y, in F.images_at(C, [x])})
        assert f_class_of_element(F, x) == want


def test_inner_f_conjugates_are_s_conjugates():
    D8 = dihedral_group(8)
    F = inner_fusion(D8.full(), 2)
    from fusionkit import perms
    C = subgroup_generated(D8, [D8.generator_ids()[1]])
    mates = {Q.ids for Q in f_conjugates(F, C)}
    s_mates = {
        frozenset(D8.index[perms.conjugate(D8.elements[i], g)] for i in C.ids)
        for g in D8.elements
    }
    assert mates == s_mates


def test_hom_cardinality_constant_on_classes(f_s4):
    F = f_s4
    for Q in F.objects():
        n = len(F.hom_to_S_tables(Q))
        for P in f_conjugates(F, Q):
            assert len(F.hom_to_S_tables(P)) == n


def test_axiom_audit_clean_on_suite(saturated_suite, f_swap):
    for name, F in saturated_suite:
        assert audit_axioms(F) == [], name
    assert audit_axioms(f_swap) == []


def _edited(T, edit):
    """T's hom rule with `edit(Q, vectors)` applied to each Hom(Q, S)."""
    def rule(F, Q):
        vectors = list(T.hom_vectors(Q))
        edit(Q, vectors)
        return tuple(vectors)
    return FusionSystem(T.S, T.p, rule, "derived")


def _at(X, vec):
    """An edit that appends `vec` to Hom(X, S)."""
    def edit(Q, vectors):
        if Q.ids == X.ids:
            vectors.append(vec)
    return edit


def test_axiom_audit_reports_each_broken_axiom(f_s4):
    T = f_s4
    S, amb = T.S, T.ambient
    objects = T.objects()
    # no sampling: the audit checks every restriction and composition
    assert sum(R.ids < Q.ids for Q in objects for R in objects) + 1 <= \
        AUDIT_SAMPLES
    assert sum(len(T.hom_vectors(Q)) for Q in objects) + 1 <= AUDIT_SAMPLES
    assert audit_axioms(T) == []

    def problems(edit):
        return sorted(set(audit_axioms(_edited(T, edit))))

    gens = S.generator_ids()
    assert problems(_at(S, (amb.identity_id,) * len(gens))) == [
        "non-injective map on order 8",
        "restriction of an order-8 map missing at order 2",
        "restriction of an order-8 map missing at order 4",
    ]
    bad = next(
        vec for vec in product(S.sorted_ids, repeat=len(gens))
        if hom_from_images(S, amb, gens, vec) is None
        and len(set(T.table(S, vec))) == S.order)
    assert "non-multiplicative map on order 8" in problems(_at(S, bad))

    def keep_one(Q, vectors):
        if Q.order == 4:
            del vectors[1:]
    assert problems(keep_one) == [
        "Aut_S not inside Aut_F at order 4",
        "missing inner map on subgroup of order 4",
        "restriction of an order-8 map missing at order 4",
    ]
    Q = next(Q for Q in objects if Q.order == 2)
    y = next(y for y in S.sorted_ids if amb.element_order(y) == 2
             and (y,) not in T.vector_set(Q))
    # a map Q -> <y> appended without its inverse: an F-class read off
    # the images of Hom(Q, S) would then hold <y>
    assert problems(_at(Q, (y,))) == [
        "composition escaping the table at order 2",
        "inverse of an order-2 map missing at its image"]


def test_generated_closure_seed_order_independent():
    V = elementary_abelian_group(2, 2)
    a, b = V.generator_ids()
    ab = V.mul_ids(a, b)
    rot = hom_from_images(V.full(), V, [a, b], [b, ab])
    swap = hom_from_images(V.full(), V, [a, b], [b, a])
    seeds = [rot, swap]
    digests = set()
    for ordering in ([0, 1], [1, 0]):
        F = generated_fusion(V.full(), 2, [seeds[i] for i in ordering])
        digests.add(hom_table_digest(F)["sha256"])
    assert len(digests) == 1


def test_generated_includes_inverse_isomorphisms(f_swap):
    F = f_swap
    V = F.ambient
    a, b = V.generator_ids()
    A = F.subgroup(frozenset([V.identity_id, a]))
    B = F.subgroup(frozenset([V.identity_id, b]))
    a_tables = set(F.hom_to_S_tables(A))
    b_tables = set(F.hom_to_S_tables(B))
    # a -> b present, so b -> a must be present too (factorization axiom)
    fwd = tuple(b if i == a else i for i in A.sorted_ids)
    back = tuple(a if i == b else i for i in B.sorted_ids)
    assert fwd in a_tables
    assert back in b_tables


def test_swap_class_structure(f_swap):
    F = f_swap
    sizes = sorted(len(c) for c in F.conjugacy_classes())
    assert sizes == [1, 1, 1, 2]


def test_generated_rejects_bad_seeds():
    V = elementary_abelian_group(2, 2)
    a, b = V.generator_ids()
    dom = subgroup_generated(V, [a])
    collapse = (dom, [V.identity_id] * dom.order)
    with pytest.raises(ValueError):
        generated_fusion(V.full(), 2, [collapse])


def test_morphism_restrict_and_image(f_s4):
    F = f_s4
    for m in hom_set(F, F.S, F.S):
        r = m.restrict(F.subgroup(frozenset([F.ambient.identity_id])))
        assert r.images == (F.ambient.identity_id,)
        assert m.image().order == F.S.order
        assert m.image_ids() == m.codomain.ids


def test_digest_stability(f_s3):
    d1 = hom_table_digest(f_s3)
    d2 = hom_table_digest(f_s3)
    assert d1 == d2
    assert d1["object_count"] == len(f_s3.objects())


def test_digest_independent_of_backend(f_s4):
    """Equal systems digest equally, whichever rule built their tables:
    S4@2 as a transporter system, as the closure of its own generating
    morphisms, and as N_F(1), the derived normalizer of the trivial
    subgroup."""
    F = f_s4
    gen = generated_fusion(F.S, 2, F.generating_morphisms())
    trivial = F.subgroup(frozenset([F.ambient.identity_id]))
    derived = normalizer_subsystem(F, trivial)
    assert (F.backend, gen.backend, derived.backend) == (
        "transporter", "generated", "derived")
    want = hom_table_digest(F)
    for other in (gen, derived):
        assert equal_hom_tables(F, other)
        assert hom_table_digest(other) == want


def test_short_image_table_is_rejected(f_s4):
    F = f_s4
    S = F.S
    short = S.sorted_ids[:2]
    with pytest.raises(ValueError, match="does not cover the domain"):
        GroupHom(S, S, short)
    with pytest.raises(ValueError, match="does not cover the domain"):
        generated_fusion(S, 2, [(S, short)])
    d = alperin_decompose(F, (S, S.sorted_ids))
    with pytest.raises(ValueError, match="does not cover the domain"):
        verify_decomposition(F, d, (S, short))


@pytest.mark.parametrize("form", ["pair", "hom_from_images", "morphism"])
def test_morphisms_from_another_ambient_are_rejected(f_s4, form):
    """The same ids in a separately built S4 name a different group."""
    F = f_s4
    V = next(Q for Q in fcr_objects(F) if Q.order == 4)
    G2 = symmetric_group(4)
    V2 = Subgroup(G2, V.ids)
    gens = V2.generator_ids()
    phi = {
        "pair": (V2, V.sorted_ids),
        "hom_from_images": hom_from_images(V2, G2, gens, gens),
        "morphism": GroupHom(V2, Subgroup(G2, F.S.ids), V.sorted_ids),
    }[form]
    foreign = "different ambient group"
    with pytest.raises(ValueError, match=foreign):
        generated_fusion(F.S, 2, [phi])
    with pytest.raises(ValueError, match=foreign):
        alperin_decompose(F, phi)
    d = alperin_decompose(F, (V, V.sorted_ids))
    with pytest.raises(ValueError, match=foreign):
        verify_decomposition(F, d, phi)
    if form != "pair":
        with pytest.raises(ValueError, match=foreign):
            normalizer_subsystem(F, V, [phi])


def test_restrict_outside_the_domain_raises(f_s4):
    F = f_s4
    V = next(Q for Q in fcr_objects(F) if Q.order == 4)
    with pytest.raises(ValueError, match="not inside the domain"):
        F.aut_f(V)[0].restrict(F.S)


def test_subgroups_of_another_ambient_are_rejected(f_s4):
    """A subgroup of a separately built S4 is not a subgroup of F's S4,
    even on the ids of one of F's objects, also once the memo holds an
    answer for F's own subgroup on those ids."""
    F = f_s4
    V = next(Q for Q in fcr_objects(F) if Q.order == 4)
    G2 = symmetric_group(4)
    V2, S2 = Subgroup(G2, V.ids), Subgroup(G2, F.S.ids)
    foreign = "subgroup lives in a different ambient group"
    out_F(F, V)
    F.f_conjugates(V)
    for query in (F.hom_vectors, F.aut_f, F.normalizer_of,
                  F.centralizer_cosets, F.f_conjugates):
        with pytest.raises(ValueError, match=foreign):
            query(V2)
    with pytest.raises(ValueError, match=foreign):
        F.table(V2, V2.generator_ids())
    for elems in (None, V2.generator_ids()):
        with pytest.raises(ValueError, match=foreign):
            F.images_at(V2, elems, [V2.generator_ids()])
        with pytest.raises(ValueError, match=foreign):
            F.images_at(V2, elems)
    for predicate in (is_normal_in_F, is_receptive, out_F, is_radical,
                      is_centric, is_fully_centralised, is_fully_normalised,
                      is_strongly_closed, quotient_fusion):
        for X in (V2, S2):
            with pytest.raises(ValueError, match=foreign):
                predicate(F, X)
    for op in (normalizer, centralizer, quotient_group, groups.product_ids,
               groups.right_cosets):
        with pytest.raises(ValueError, match=foreign):
            op(F.S, V2)


def test_reads_through_the_searched_member_reject_another_ambient(f_s4):
    """A generated system looks a member up in its transport record by
    its ids, so `hom_count` and `is_radical`, which read the searched
    member of the class, reject a subgroup of a separately built S4 on
    those ids, also once the record holds them."""
    F = regenerate_from_fcr(f_s4)
    G2 = symmetric_group(4)
    foreign = "subgroup lives in a different ambient group"
    for Q in F.objects():
        if Q.order == 1:
            continue
        F.hom_count(Q)
        is_radical(F, Q)
        Q2 = Subgroup(G2, Q.ids)
        with pytest.raises(ValueError, match=foreign):
            F.hom_count(Q2)
        with pytest.raises(ValueError, match=foreign):
            is_radical(F, Q2)


def test_subgroups_outside_S_are_rejected(f_s4):
    """A subgroup of F's ambient group that is not inside S is not an
    object: queries, predicates and constructions raise on it rather than
    answer for a one-element Aut_S or build a system that fails when
    queried."""
    F = f_s4
    amb = F.ambient
    x = next(i for i in range(amb.order)
             if i not in F.S.ids and amb.element_order(i) == 2)
    Q = subgroup_generated(amb, [x])
    outside = "not a subgroup of S"
    for query in (F.aut_s, F.centralizer_cosets, F.hom_vectors,
                  F.normalizer_of, F.f_conjugates):
        with pytest.raises(ValueError, match=outside):
            query(Q)
    for of_q in (is_normal_in_F, normalizer_subsystem, centralizer_subsystem,
                 is_receptive, out_F):
        with pytest.raises(ValueError, match=outside):
            of_q(F, Q)
    assert not any(Q.ids in key for key in F._memo)


def test_a_warm_lattice_builds_no_tree_again(monkeypatch):
    """Once the lattice is built, the subgroup on an object's id set is
    that object, with the Cayley tree the enumeration walked."""
    G = symmetric_group(6)
    F = transporter_fusion(G, sylow_p(G.full(), 2), 2)
    objects = F.objects()
    built = []
    walk = groups.CayleyTree.__init__

    def counted(self, Q, gens=None):
        built.append(Q.order)
        walk(self, Q, gens)
    monkeypatch.setattr(groups.CayleyTree, "__init__", counted)
    for Q in objects:
        normalizer(F.S, Subgroup(F.ambient, Q.ids))
    assert built == []


def _generated(name, rv_systems):
    if name in rv_systems:
        return rv_systems[name]
    G, p = {"S6@2": lambda: (symmetric_group(6), 2),
            "SL(3,3)@3": lambda: (sl33_group(), 3)}[name]()
    return regenerate_from_fcr(transporter_fusion(G, sylow_p(G.full(), p), p))


def _full_transport(F, R, Q):
    """(vectors, tables) of Hom(Q, S) for a member Q of the class that R
    was searched for, built in full as the generated rule once built it
    for every such member: Hom(R, S) read at psi^-1 of Q's generators and
    of all of Q, psi being the first morphism of R onto Q in rule order."""
    psi = next(v for v in F.hom_vectors(R) if Q.ids.issuperset(v))
    back = dict(zip(F.table(R, psi), R.sorted_ids))
    return (tuple(F.images_at(R, [back[y] for y in Q.generator_ids()])),
            F.images_at(R, [back[y] for y in Q.sorted_ids]))


def _unstored(F, Q, stored, n=3):
    """Up to `n` vectors of elements of S, one entry away from a stored
    vector, that are not stored."""
    out = []
    for vec in sorted(stored):
        for j in range(len(vec)):
            for x in F.S.sorted_ids:
                w = vec[:j] + (x,) + vec[j + 1:]
                if w not in stored:
                    out.append(w)
                    if len(out) == n:
                        return out
                    break
    return out


@pytest.mark.parametrize("name", ["rv1", "rv2", "rv3", "S6@2", "SL(3,3)@3"])
def test_transported_members_answer_as_their_full_hom_sets(
        name, rv_systems, monkeypatch):
    """A member Q of an F-class read by transport from its searched member
    R answers every class-level read as its whole Hom(Q, S) does, built
    as the generated rule built it before: its F-class, Hom(Q, P) in rule
    order, as vectors and as tables, for each P of the class, for S and for
    one object of Q's order outside the class, Aut_F(Q), the count, and
    membership. Full automisation still checks Aut_S(Q) against Aut_F(Q)
    there."""
    F = _generated(name, rv_systems)
    moved = 0
    cosets = FusionSystem.centralizer_cosets
    for cls in F.conjugacy_classes():
        for Q in cls:
            if Q.order == 1 or F._transports(Q.order)[Q.ids][0] is Q:
                continue
            moved += 1
            R = F._transports(Q.order)[Q.ids][0]
            vectors, tables = _full_transport(F, R, Q)
            assert {P.ids for P in F.f_conjugates(Q)} == {
                frozenset(t) for t in tables}
            # and one object of Q's order outside the class, if any
            outsider = [P for P in F.objects()
                        if P.order == Q.order and P not in cls][:1]
            for P in cls + outsider + [F.S]:
                picked = [i for i, v in enumerate(vectors)
                          if P.ids.issuperset(v)]
                assert F.hom_into(Q, P) == (picked,
                                            [vectors[i] for i in picked])
                assert F.hom_into(Q, P, tables=True) == (
                    picked, [tables[i] for i in picked])
            for P in (Q, F.S):
                picked = [i for i, v in enumerate(vectors)
                          if P.ids.issuperset(v)]
                assert [m.images for m in F.hom_set(Q, P)] == sorted(
                    tables[i] for i in picked)
            assert F.aut_f_vectors(Q) == tuple(
                v for v in vectors if Q.ids.issuperset(v))
            assert F.hom_count(Q) == len(vectors)
            stored = F.member_test(Q)
            assert all(map(stored, vectors))
            assert F.has_morphism(Q, tables[-1])
            outside = _unstored(F, Q, set(vectors))
            assert outside and not any(map(stored, outside))
            assert not stored(vectors[0][:-1]) and not stored((-1,) * len(
                vectors[0]))
            # Aut_S(Q) lies in Aut_F(Q), and a coset outside it is caught
            is_fully_automised(F, Q)
            with monkeypatch.context() as m:
                m.setattr(FusionSystem, "centralizer_cosets",
                          lambda F, P: cosets(F, P) + ((0, (), outside[0]),))
                with pytest.raises(AssertionError, match="escaped"):
                    is_fully_automised(F, Q)
    assert moved > 0


def test_handed_out_morphisms_outlive_the_system():
    """The morphisms `hom_set` hands out, out of a member Q read by
    transport and out of the searched member of its class, hold their
    subgroups and tables, not the system: with the cyclic collector off,
    the system is freed as soon as it is dropped, and they still read as
    its tables did."""
    G = symmetric_group(6)
    F = regenerate_from_fcr(transporter_fusion(G, sylow_p(G.full(), 2), 2))
    Q = next(Q for Q in F.objects()
             if Q.order > 1 and F._searched(Q) is not Q)
    handed, tables = [], []
    for X in (Q, F._searched(Q)):
        handed += F.hom_set(X, F.S)
        tables += F.hom_to_S_tables(X)
    gc.disable()
    try:
        freed = weakref.ref(F)
        del F
        assert freed() is None
    finally:
        gc.enable()
    assert [m.images for m in handed] == tables
    assert all(m.is_injective() and m.is_homomorphism() for m in handed)


def _exotic_rv_round() -> list:
    """One round of the exotic_rv benchmark: build_rv of rv1-rv3 and the
    automizer, centric and radical checks of their rank-2 subgroups."""
    built = []
    for name in ("rv1", "rv2", "rv3"):
        F = build_rv(name)
        for V in F.objects():
            if V.order == F.p ** 2:
                aut_F(F, V)
                is_centric(F, V)
                is_radical(F, V)
        built.append(F)
    return built


def test_build_rv_searches_each_class_once_and_transports_no_hom_set(
        work_counts):
    """build_rv and the rank-2 checks of the exotic_rv benchmark run the
    generated rule once per F-class, 14 times over rv1-rv3, and never on
    a member read by transport, whose whole hom set is not built: reading
    Hom(Q', S) = Hom(R, S) psi^-1 in full for every such member made 201
    runs of the rule and walked 135,408 vectors of Hom(R, S) per round."""
    built = _exotic_rv_round()
    assert len(work_counts.rules) == 14 == sum(
        len(F.conjugacy_classes()) for F in built)
    assert work_counts.walks["hom"] == 0
    for F in built:
        searched = {Q.ids for Q in F.objects() if Q.order == 1} | {
            R.ids for Q in F.objects() if Q.order > 1
            for R, _psi in F._transports(Q.order).values()}
        assert {key[1] for key in F._memo if key[0] == "hom"} == searched


def test_exotic_rv_round_decides_receptivity_by_double_cosets(work_counts):
    """One round computes N_phi for 2,925 maps, tests candidates for 520
    and walks 15,858 vectors in `_climb` and 73,282 in all. Taking every
    member of an F-class as a domain, and computing N_phi for every map of
    Hom(Q, P), computed it for 19,953 maps, tested candidates for 1,420
    and walked 58,038 vectors in `_climb` and 146,905 in all. Deciding
    `is_radical` of a member read by transport on its own Aut_F, not on
    its searched member's, walked 87,406 in all, 47,256 of them in
    `hom_into` against 33,144 now."""
    _exotic_rv_round()
    assert work_counts.n_phi == 2925
    assert work_counts.extends == 520
    assert work_counts.walks["_climb"] == 15858
    assert sum(work_counts.walks.values()) == 73282
