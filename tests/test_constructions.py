"""Products, quotients, normalizer subsystems, structure witnesses."""

import os
import pathlib
import resource
import subprocess
import sys

import pytest

import fusionkit
import oracle_tables
from conftest import extraspecial27_c2
from fusionkit import (
    GroupHom,
    Subgroup,
    audit_axioms,
    aut_F,
    automorphisms,
    centralizer_subsystem,
    cyclic_group,
    dihedral_group,
    direct_product,
    equal_hom_tables,
    fcr_objects,
    fusion_isomorphic,
    hom_set,
    hom_table_digest,
    inner_fusion,
    is_saturated,
    is_strongly_closed,
    main_theorem_witness,
    normalizer_subsystem,
    product_fusion,
    quotient_fusion,
    sylow_p,
    symmetric_group,
    alternating_group,
    transporter_fusion,
)
import fusionkit.constructions as constructions
import fusionkit.groups as groups


def _tr(G, p):
    return transporter_fusion(G, sylow_p(G.full(), p), p)


PRODUCT_PAIRS = [
    ("d8xc2", lambda: (inner_fusion(dihedral_group(8), 2),
                       inner_fusion(cyclic_group(2), 2))),
    ("a4xs3", lambda: (_tr(alternating_group(4), 2),
                       _tr(symmetric_group(3), 2))),
    ("s3xc3", lambda: (_tr(symmetric_group(3), 3),
                       inner_fusion(cyclic_group(3), 3))),
]


@pytest.mark.parametrize("name,mk", PRODUCT_PAIRS)
def test_product_equals_transporter_of_product(name, mk):
    F1, F2 = mk()
    F = product_fusion(F1, F2)
    G1, G2 = F1.ambient, F2.ambient
    G = direct_product(G1, G2)
    # the product's ambient is the same construction, so ids line up
    assert G.elements == F.ambient.elements
    Ft = transporter_fusion(G, Subgroup(G, F.S.ids), F.p)
    assert equal_hom_tables(F, Ft)
    assert audit_axioms(F) == []


def test_product_prime_mismatch(f_s4, f_s3):
    with pytest.raises(ValueError):
        product_fusion(f_s4, f_s3)


def test_product_factor_embeddings():
    F1 = inner_fusion(dihedral_group(8), 2)
    F2 = inner_fusion(cyclic_group(2), 2)
    F = product_fusion(F1, F2)
    L, R = F.factor_embeddings
    assert L.order == 8 and R.order == 2
    assert L.ids <= F.S.ids and R.ids <= F.S.ids
    inter = L.ids & R.ids
    assert len(inter) == 1


def test_quotient_by_whole_sylow(f_s4):
    Fq, qm = quotient_fusion(f_s4, f_s4.S)
    assert Fq.S.order == 1
    assert len(Fq.objects()) == 1
    assert is_saturated(Fq).verdict


def test_quotient_by_klein_four(f_s4):
    F = f_s4
    V1 = next(Q for Q in fcr_objects(F) if Q.order == 4)
    Fq, qm = quotient_fusion(F, V1)
    assert Fq.S.order == 2
    assert len(Fq.objects()) == 2
    assert all(len(Fq.hom_to_S_tables(Q)) == 1 for Q in Fq.objects())
    C2 = inner_fusion(cyclic_group(2), 2)
    assert fusion_isomorphic(Fq, C2) is not None


def test_quotient_requires_strongly_closed(f_s4):
    F = f_s4
    G = F.ambient
    A = F.subgroup(frozenset([G.identity_id, G.index[(1, 0, 3, 2)]]))
    assert not is_strongly_closed(F, A)
    with pytest.raises(ValueError):
        quotient_fusion(F, A)


def test_quotient_map_is_functorial(f_s4):
    F = f_s4
    V1 = next(Q for Q in fcr_objects(F) if Q.order == 4)
    Fq, qm = quotient_fusion(F, V1)
    mapped = 0
    for P in F.objects():
        if not V1.ids <= P.ids:
            continue
        Pq = qm.object_map(P)
        assert Pq.ids <= Fq.S.ids
        mapped += 1
    assert mapped == 2  # V1 itself and the whole Sylow
    for m in hom_set(F, F.S, F.S):
        alpha = GroupHom(F.S, F.S, m.images)
        mq = qm.morphism_map(alpha)
        assert mq.images in Fq.hom_to_S_tables(mq.domain)


def test_quotient_map_rejects_map_shrinking_the_kernel(f_s4):
    """A non-injective alpha that maps T's generators into T but T onto a
    proper subgroup of T has no push-forward alpha+."""
    F = f_s4
    G = F.ambient
    V1 = next(Q for Q in fcr_objects(F) if Q.order == 4)
    _Fq, qm = quotient_fusion(F, V1)
    # D8 -> <z> with kernel the cyclic subgroup C4 of D8, z central in V1
    c4 = next(Q for Q in F.objects()
              if Q.order == 4 and Q.ids != V1.ids
              and any(G.element_order(x) == 4 for x in Q.ids))
    z = next(x for x in c4.ids if G.element_order(x) == 2)
    assert z in V1.ids
    alpha = GroupHom(F.S, F.S, [G.identity_id if x in c4.ids else z
                                for x in F.S.sorted_ids])
    assert alpha.is_homomorphism() and not alpha.is_injective()
    assert V1.ids.issuperset(alpha.images[F.S.positions[t]]
                             for t in V1.generator_ids())
    with pytest.raises(ValueError, match="stabilize the kernel"):
        qm.morphism_map(alpha)
    trivial = GroupHom(F.S, F.S, [G.identity_id] * F.S.order)
    with pytest.raises(ValueError, match="stabilize the kernel"):
        qm.morphism_map(trivial)


def test_quotient_of_product_recovers_factors():
    F1 = inner_fusion(dihedral_group(8), 2)
    F2 = _tr(symmetric_group(3), 2)
    F = product_fusion(F1, F2)
    L, R = F.factor_embeddings
    FqR, _ = quotient_fusion(F, F.subgroup(R.ids))
    assert fusion_isomorphic(FqR, F1) is not None
    FqL, _ = quotient_fusion(F, F.subgroup(L.ids))
    assert fusion_isomorphic(FqL, F2) is not None


def test_normalizer_full_at_center(f_s4):
    F = f_s4
    G = F.ambient
    z = next(i for i in F.S.ids if i != G.identity_id
             and all(G.mul_ids(i, j) == G.mul_ids(j, i) for j in F.S.ids))
    Z = F.subgroup(frozenset([G.identity_id, z]))
    N = normalizer_subsystem(F, Z, "full")
    assert N.S.ids == F.S.ids
    assert audit_axioms(N) == []
    for Q in N.objects():
        got = set(N.hom_to_S_tables(Q))
        sup = set(F.hom_to_S_tables(F.subgroup(Q.ids)))
        assert got <= sup


@pytest.mark.parametrize("name,mk", [
    ("S4@2", lambda: _tr(symmetric_group(4), 2)),
    ("S6@2", lambda: _tr(symmetric_group(6), 2)),
    ("3^(1+2):2@3", lambda: _tr(extraspecial27_c2(), 3)),
])
def test_normalizer_full_matches_explicit_aut_q(name, mk):
    F = mk()
    for Q in F.objects():
        want = normalizer_subsystem(
            F, Q, [a.images for a in automorphisms(Q)])
        digest = hom_table_digest(want)
        for K in ("full", None):
            N = normalizer_subsystem(F, Q, K)
            assert N.S is want.S
            assert hom_table_digest(N) == digest


def test_normalizer_full_lists_no_automorphism(rv_systems, monkeypatch):
    """|Aut(7^(1+2))| = 98,784: N_F(S) on rv1 must not enumerate it."""
    F = rv_systems["rv1"]

    def refuse(*_args):
        raise AssertionError("Aut(Q) was enumerated")
    monkeypatch.setattr(groups, "isomorphisms", refuse)
    N = normalizer_subsystem(F, F.S)
    assert N.S is F.S
    assert N.hom_vectors(N.S) == F.hom_vectors(F.S)


def test_centralizer_subsystem_matches_trivial_k(f_s4):
    F = f_s4
    V1 = next(Q for Q in fcr_objects(F) if Q.order == 4)
    C = centralizer_subsystem(F, V1)
    N1 = normalizer_subsystem(F, V1, "trivial")
    assert C.S.ids == N1.S.ids
    assert equal_hom_tables(C, N1)
    # V1 is self-centralising, so C_F(V1) lives over V1 itself
    assert C.S.ids == V1.ids


def _v1_automizer(F):
    """V1, the fcr Klein four of S4@2, its Aut_F(V1) = S3 as image tables,
    and one automorphism t of order 3 with t^2."""
    V1 = next(Q for Q in fcr_objects(F) if Q.order == 4)
    homs = aut_F(F, V1)
    t = next(a.images for a in homs if _aut_order(V1, a) == 3)
    pos = V1.positions
    return V1, [a.images for a in homs], t, tuple(t[pos[y]] for y in t)


def test_normalizer_rejects_unclosed_k(f_s4):
    F = f_s4
    V1, autos, t, _t2 = _v1_automizer(F)
    # automorphisms of V1 but not the identity, and the identity with an
    # automorphism of order 3 but not its square
    for K in ([a for a in autos if a != V1.sorted_ids], [V1.sorted_ids, t]):
        with pytest.raises(ValueError,
                           match="K not closed under composition"):
            normalizer_subsystem(F, V1, K)


def test_normalizer_of_a_closed_k(f_s4):
    """K = <t> of order 3 meets Aut_S(V1), of order 2, trivially, so
    N_S^K(V1) = C_S(V1) = V1, and each hom set is the full-table rule's;
    K = Aut_F(V1) = Aut(V1) gives N_F(V1)."""
    F = f_s4
    V1, autos, t, t2 = _v1_automizer(F)
    K = [V1.sorted_ids, t, t2]
    N = normalizer_subsystem(F, V1, K)
    assert N.S.ids == V1.ids
    for P in N.objects():
        want = oracle_tables.normalizer(F, V1, set(K), N.S.ids, P)
        assert tuple(sorted(N.hom_to_S_tables(P))) == want
    full = normalizer_subsystem(F, V1, autos)
    assert full.S is F.S
    assert equal_hom_tables(full, normalizer_subsystem(F, V1))


def _aut_order(Q, a):
    qsorted = Q.sorted_ids
    pos = dict(zip(qsorted, range(Q.order)))
    cur = tuple(qsorted)
    n = 0
    while True:
        cur = tuple(a.images[pos[x]] for x in cur)
        n += 1
        if cur == tuple(qsorted):
            return n


def test_normalizer_rejects_non_homomorphism_in_k():
    # on D8@2 with Q = C4 = <a>, t: a -> a^3 -> a^2 -> a is a bijection of
    # Q of order 3, so {id, t, t^2} is closed under composition, but t is
    # not a homomorphism; its image of a is that of inversion, which K does
    # not hold
    F = inner_fusion(dihedral_group(8), 2)
    G = F.ambient
    C4 = next(Q for Q in F.objects()
              if Q.order == 4 and any(G.element_order(x) == 4 for x in Q.ids))
    a = next(x for x in C4.ids if G.element_order(x) == 4)
    a2, a3 = G.power_ids(a, 2), G.power_ids(a, 3)
    t = {G.identity_id: G.identity_id, a: a3, a3: a2, a2: a}
    t2 = {x: t[t[x]] for x in t}
    K = [C4.sorted_ids] + [tuple(m[x] for x in C4.sorted_ids) for m in (t, t2)]
    assert not GroupHom(C4, C4, K[1]).is_homomorphism()
    with pytest.raises(ValueError, match="non-automorphism"):
        normalizer_subsystem(F, C4, K)


def test_normalizer_rejects_foreign_domain(f_s4):
    F = f_s4
    G = F.ambient
    V1 = next(Q for Q in fcr_objects(F) if Q.order == 4)
    Z = F.subgroup(frozenset([G.identity_id,
                              next(iter(V1.ids - {G.identity_id}))]))
    alien = GroupHom(Z, F.S, Z.sorted_ids)
    with pytest.raises(ValueError):
        normalizer_subsystem(F, V1, [alien])


def test_fusion_isomorphic_finds_dihedral_match():
    F1 = inner_fusion(dihedral_group(8), 2)
    D2 = dihedral_group(8)
    F2 = inner_fusion(D2, 2)
    iso = fusion_isomorphic(F1, F2)
    assert iso is not None
    assert iso.is_homomorphism()
    assert len(set(iso.images)) == F1.S.order


def test_fusion_isomorphic_distinguishes_s4_from_d8(f_s4):
    F2 = inner_fusion(dihedral_group(8), 2)
    assert fusion_isomorphic(f_s4, F2) is None


def test_fusion_isomorphic_size_bound(monkeypatch, f_s4):
    monkeypatch.setattr(constructions, "MAX_ISO_SEARCH_ORDER", 4)
    with pytest.raises(ValueError):
        fusion_isomorphic(f_s4, f_s4)


def test_witness_all_p3_combos():
    from fusionkit.cli import _witness_pairs_p3
    for n1, F1, n2, F2 in _witness_pairs_p3():
        rep = main_theorem_witness(F1, F2)
        assert rep.all_pass, (n1, n2)
        d = rep.as_dict()
        assert d["p"] == 3
        assert d["strongly_closed"] and d["quotient_matches"]
        assert d["centralizer_matches"] and d["all_pass"]
        assert d["abelian_factor_order"] == F2.S.order


def test_witness_rejects_bad_first_factor(f_s4):
    C9 = inner_fusion(cyclic_group(9), 3)
    C3 = inner_fusion(cyclic_group(3), 3)
    with pytest.raises(ValueError):
        main_theorem_witness(C9, C3)
    with pytest.raises(ValueError):
        main_theorem_witness(f_s4, C3)


def test_witness_rejects_nonabelian_second_factor():
    from fusionkit.cli import _witness_pairs_p3
    _n1, F1, _n2, _F2 = _witness_pairs_p3()[0]
    D8 = inner_fusion(dihedral_group(8), 2)
    with pytest.raises(ValueError):
        main_theorem_witness(F1, D8)


# address-space limit of the p = 7 witness child: its peak virtual size
# measured 111 MB (4-7 s on a 2-vCPU VM), and the limit leaves about 4.8x
# that; the same run peaked at 3.5 GB resident when every morphism was
# stored as a full image table
P7_ADDRESS_SPACE = 512 * 2 ** 20

P7_SCRIPT = """
from fusionkit import main_theorem_witness
from fusionkit.cli import _witness_pairs_p7
for n1, F1, n2, F2 in _witness_pairs_p7():
    assert main_theorem_witness(F1, F2).all_pass, (n1, n2)
"""


def test_witness_p7_stretch():
    """The order-2401 product: one exotic factor, one Frobenius factor.

    The witness runs in a child process whose address space is capped by
    P7_ADDRESS_SPACE, so a memory regression fails the test rather than
    exhausting the host. It takes 5-8 s on one core.
    """
    src = str(pathlib.Path(fusionkit.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS,
                           (P7_ADDRESS_SPACE, P7_ADDRESS_SPACE))

    run = subprocess.run([sys.executable, "-c", P7_SCRIPT], env=env,
                         preexec_fn=cap, capture_output=True, text=True,
                         timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
