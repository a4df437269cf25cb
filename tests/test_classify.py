"""Classifier flags checked against an independent brute-force oracle.

The radical test decides O_p(Aut_F(P)) = Inn(P) on generator-image
vectors; it is compared with O_p(Out_F(P)) of the permutation group
`out_F`, by `oracle_groups.p_core`, on every object of the systems below,
of their `_unsaturated` extensions, and on generated systems where no
member of a class is fully automised. On the same objects the generating
set of Aut_F(P) and each step of its Sylow ascent, both closures of
`fusion.automorphism_closure`, are compared with the closures written out
by hand in `oracle_groups`.
"""

import pytest

from fusionkit import (
    FusionSystem,
    alternating_group,
    aut_F,
    automorphisms,
    center,
    classifier_rows,
    cr_objects,
    elementary_abelian_group,
    f_conjugates,
    fcr_objects,
    generated_fusion,
    hom_from_images,
    inner_automorphisms,
    is_centric,
    is_fully_automised,
    is_fully_centralised,
    is_fully_normalised,
    is_radical,
    is_receptive,
    is_saturated,
    is_strongly_closed,
    is_normal_in_F,
    out_F,
    regenerate_from_fcr,
    subgroup_generated,
    sylow_p,
    symmetric_group,
    transporter_fusion,
)

import oracle_groups
import oracle_s4
from oracle_sweep import _conj
from test_word_search import _unsaturated
from fusionkit import perms
from fusionkit.classify import _automizer_generators, _grow_sylow, aut_f_p_core
from fusionkit.fusion import automorphism_closure
from fusionkit.groups import _p_part


@pytest.fixture(scope="module")
def s4_pair():
    G = symmetric_group(4)
    S = sylow_p(G.full(), 2)
    F = transporter_fusion(G, S, 2)
    s_perms = frozenset(G.elements[i] for i in S.ids)
    return F, oracle_s4.classify(s_perms), s_perms


def _as_perms(F, Q):
    return frozenset(F.ambient.elements[i] for i in Q.ids)


def test_all_flags_match_oracle(s4_pair):
    F, info, _ = s4_pair
    subs = {_as_perms(F, Q): Q for Q in F.objects()}
    assert set(subs) == set(info)
    for key, Q in subs.items():
        row = info[key]
        assert is_fully_automised(F, Q) == row["fully_automised"], key
        assert is_receptive(F, Q) == row["receptive"], key
        assert is_centric(F, Q) == row["centric"], key
        assert is_radical(F, Q) == row["radical"], key
        assert is_fully_normalised(F, Q) == row["fully_normalised"], key
        assert is_fully_centralised(F, Q) == row["fully_centralised"], key
        assert len(aut_F(F, Q)) == row["aut_f_order"], key


def test_fcr_matches_oracle(s4_pair):
    F, _, s_perms = s4_pair
    got = {_as_perms(F, Q) for Q in fcr_objects(F)}
    assert got == oracle_s4.fcr_set(s_perms)


def test_fcr_is_v1_and_s(s4_pair):
    F, _, _ = s4_pair
    got = sorted(
        (Q.order, sorted(_as_perms(F, Q))) for Q in fcr_objects(F)
    )
    orders = [o for o, _ in got]
    assert orders == [4, 8]
    V1 = next(Q for Q in fcr_objects(F) if Q.order == 4)
    # the fused Klein four: all three double transpositions plus identity
    assert all(
        p == tuple(range(4)) or all(p[p[i]] == i for i in range(4))
        for p in _as_perms(F, V1)
    )
    assert len(aut_F(F, V1)) == 6
    assert out_F(F, V1).order == 6


def test_c4_not_radical(s4_pair):
    F, _, _ = s4_pair
    C4 = next(Q for Q in F.objects()
              if Q.order == 4
              and any(F.ambient.element_order(i) == 4 for i in Q.ids))
    assert not is_radical(F, C4)
    assert is_centric(F, C4)


def test_receptive_implies_fully_centralised(saturated_suite):
    for name, F in saturated_suite:
        for Q in F.objects():
            if is_receptive(F, Q):
                assert is_fully_centralised(F, Q), (name, Q.order)


def test_suite_is_saturated(saturated_suite):
    for name, F in saturated_suite:
        rep = is_saturated(F)
        assert rep.verdict, name
        assert rep.counterexample is None
        assert bool(rep)


def test_swap_system_not_saturated(f_swap):
    rep = is_saturated(f_swap)
    assert not rep.verdict
    assert rep.counterexample is not None
    assert any(r["representative"].order == 2 for r in rep.per_class
               if not (r["fully_automised"] and r["receptive"]))


def test_saturation_report_rows(f_s4):
    rep = is_saturated(f_s4)
    assert rep.verdict
    for r in rep.per_class:
        assert set(r) >= {"representative", "fully_automised", "receptive"}


def test_strongly_closed_in_s4(f_s4):
    F = f_s4
    closed = sorted(Q.order for Q in F.objects()
                    if is_strongly_closed(F, Q))
    assert closed == [1, 4, 8]
    V1 = next(Q for Q in fcr_objects(F) if Q.order == 4)
    assert is_strongly_closed(F, V1)
    assert is_normal_in_F(F, V1)


def test_normal_implies_strongly_closed(saturated_suite):
    for name, F in saturated_suite:
        for Q in F.objects():
            if is_normal_in_F(F, Q):
                assert is_strongly_closed(F, Q), name


# orders of the normal subgroups, frozen from the definition quantified
# over every morphism Q -> R and its extensions to QP
NORMAL_ORDERS = {
    "s3_c3": [1, 3],
    "s4_d8": [1, 4],
    "a4_v4": [1, 4],
    "sl33": [1],
    "a4s3_p2": [1, 2, 4, 8],
    "a4s3_p3": [1, 3, 3, 9],
    "es27_c2": [1, 3, 9, 9, 9, 9, 27],
    "rv1": [1],
}


def test_normal_subgroup_orders(saturated_suite, rv_systems):
    for name, F in saturated_suite + [("rv1", rv_systems["rv1"])]:
        normal = [Q.order for Q in F.objects() if is_normal_in_F(F, Q)]
        assert sorted(normal) == NORMAL_ORDERS[name], name


def test_cr_superset_of_fcr(saturated_suite):
    for name, F in saturated_suite:
        fcr = {Q.ids for Q in fcr_objects(F)}
        cr = {Q.ids for Q in cr_objects(F)}
        assert fcr <= cr, name


def test_classifier_rows_schema(f_s3):
    rows = classifier_rows(f_s3)
    assert len(rows) == len(f_s3.objects())
    flags = {"fully_automised", "receptive", "centric", "radical",
             "fully_normalised", "strongly_closed"}
    for r in rows:
        assert flags <= set(r)
        assert all(isinstance(r[f], bool) for f in flags)
        for g in r["object"]:
            assert f_s3.ambient.index.get(tuple(g)) in f_s3.S


def test_whole_sylow_always_flagged(saturated_suite):
    for name, F in saturated_suite:
        S = F.S
        assert is_fully_automised(F, S), name
        assert is_receptive(F, S), name
        assert is_centric(F, S), name
        assert is_radical(F, S), name


def _out_f_reference(F, Q):
    """Out_F(Q) from the tuple coset action, fed with Aut_F(Q) and the
    inner automorphisms as permutations of Q's positions."""
    pos = Q.positions
    aut = {tuple(pos[v] for v in t) for t in F.aut_f_tables(Q)}
    q_perms = Q.perms()
    at = {x: k for k, x in enumerate(q_perms)}
    inn = {tuple(at[_conj(y, x)] for y in q_perms) for x in q_perms}
    return oracle_groups.out_f(aut, inn)


def _transporter(G, p):
    return transporter_fusion(G, sylow_p(G.full(), p), p)


OUT_F_SYSTEMS = {
    "S4@2": lambda request: request.getfixturevalue("f_s4"),
    "S6@2": lambda request: _transporter(symmetric_group(6), 2),
    "S6@3": lambda request: _transporter(symmetric_group(6), 3),
    "SL(3,3)@3": lambda request: request.getfixturevalue("f_sl33"),
    "3^(1+2):2@3": lambda request: request.getfixturevalue("f_es54"),
    "A8@2": lambda request: _transporter(alternating_group(8), 2),
}


@pytest.mark.parametrize("name", sorted(OUT_F_SYSTEMS))
def test_out_f_matches_coset_action_reference(name, request):
    F = OUT_F_SYSTEMS[name](request)
    trivial = 0
    for Q in F.objects():
        out = out_F(F, Q)
        assert (out.degree, out.elements) == _out_f_reference(F, Q), Q.order
        if Q.order > 1 and len(F.aut_f_tables(Q)) == 1:
            trivial += 1
            assert out.degree == 1
    # every subgroup of order 2 has a trivial automizer, and its Out_F is
    # the degree-1 trivial group, not Aut_F(Q) on its two points
    assert trivial > 0 or F.p != 2


@pytest.mark.parametrize("name, order", [("rv1", 72), ("rv2", 48),
                                         ("rv3", 96)])
def test_out_f_of_rv_matches_coset_action_reference(rv_systems, name, order):
    F = rv_systems[name]
    out = out_F(F, F.S)
    assert out.order == order
    assert (out.degree, out.elements) == _out_f_reference(F, F.S)


def test_out_f_of_rv1_makes_no_permutation_product(rv_systems, monkeypatch):
    """Out_F(S) is read off automizer vectors: the unmemoised build calls
    the tuple kernel `perms.mul` not once."""
    F = rv_systems["rv1"]
    calls = []
    mul = perms.mul
    monkeypatch.setattr(perms, "mul", lambda a, b: calls.append(1) or mul(a, b))
    assert out_F.__wrapped__(F, F.S).order == 72
    assert calls == []


def _d8_system(vectors):
    """A system over D, the Sylow 2-subgroup of S4, whose Aut_F(D) is
    `vectors(D)`, as images of D's generators, and whose other objects map
    by the identity alone."""
    G = symmetric_group(4)
    D = sylow_p(G.full(), 2)

    def rule(F, Q):
        return vectors(Q) if Q == D else (tuple(Q.generator_ids()),)
    return FusionSystem(D, 2, rule, "derived")


def _inn_and_one_outer(D):
    inner = inner_automorphisms(D)
    homs = inner + [next(a for a in automorphisms(D) if a not in inner)]
    pos = D.positions
    return tuple(tuple(phi.images[pos[g]] for g in D.generator_ids())
                 for phi in homs)


@pytest.mark.parametrize("vectors, message", [
    # the identity alone: Inn(D) has order 4
    (lambda D: (tuple(D.generator_ids()),),
     r"Inn\(P\) is not inside Aut_F\(P\)"),
    # the four inner automorphisms and one outer one, not a group
    (_inn_and_one_outer, r"cosets of Inn\(P\) do not split"),
], ids=["identity alone", "Inn and one outer"])
def test_out_f_rejects_an_automizer_that_inn_does_not_split(vectors, message):
    F = _d8_system(vectors)
    with pytest.raises(ValueError, match=message):
        out_F(F, F.S)


RADICAL_SYSTEMS = dict(OUT_F_SYSTEMS, **{
    "rv1": lambda request: request.getfixturevalue("rv_systems")["rv1"],
    "rv2": lambda request: request.getfixturevalue("rv_systems")["rv2"],
    "rv3": lambda request: request.getfixturevalue("rv_systems")["rv3"],
})


def _check_radical_against_out_f(F):
    """The vector core against O_p(Out_F(Q)) of the permutation group, on
    every object; returns how many objects are not fully automised, whose
    core is cut from a Sylow subgroup grown from Aut_S(Q)."""
    grown = 0
    for Q in F.objects():
        ref = oracle_groups.p_core(out_F(F, Q).full(), F.p)
        inn = Q.order // center(Q).order
        core, inner = aut_f_p_core(F, Q)
        assert inner <= core
        assert (len(inner), len(core)) == (inn, inn * ref.order), Q.order
        assert is_radical(F, Q) == (ref.order == 1), Q.order
        grown += not is_fully_automised(F, Q)
    return grown


def _check_closures_against_oracle(F):
    """On every object Q, the generating set of Aut_F(Q) against the
    hand-written closure of `oracle_groups.automizer_generators`: the same
    vectors in the same order, whose `automorphism_closure` is Aut_F(Q);
    and each step of the Sylow ascent from Aut_S(Q) against
    `oracle_groups.grow_sylow`, as sets. Returns the number of ascent
    steps compared."""
    steps = 0
    for Q in F.objects():
        aut = F.aut_f_vectors(Q)
        gens = _automizer_generators(F, Q, aut)
        assert gens == oracle_groups.automizer_generators(F, Q, aut), Q.order
        assert automorphism_closure(
            Q, [t for _vec, t in gens]).keys() == set(aut), Q.order
        vecs = [vec for _r, _c, vec in F.centralizer_cosets(Q)]
        T = dict(zip(vecs, F.images_at(Q, vectors=vecs)))
        while len(T) < _p_part(len(aut), F.p):
            grown = _grow_sylow(F, Q, T, aut)
            assert grown.keys() == oracle_groups.grow_sylow(
                F, Q, T, aut).keys(), Q.order
            T = grown
            steps += 1
    return steps


@pytest.mark.parametrize("name", sorted(RADICAL_SYSTEMS))
def test_radical_matches_p_core_of_out_f(name, request):
    F = RADICAL_SYSTEMS[name](request)
    grown = _check_radical_against_out_f(F)
    steps = _check_closures_against_oracle(F)
    if name == "A8@2":
        assert grown == 64
        assert steps == 68


@pytest.mark.parametrize("name", sorted(RADICAL_SYSTEMS))
def test_radical_matches_p_core_of_out_f_when_unsaturated(name, request):
    U, _phi = _unsaturated(RADICAL_SYSTEMS[name](request))
    _check_radical_against_out_f(U)
    _check_closures_against_oracle(U)


# systems with members read by transport: the rv systems and the fcr
# regeneration, a `generated_fusion` closure, of three transporter systems
TRANSPORTED_SYSTEMS = {
    **{name: RADICAL_SYSTEMS[name] for name in ("rv1", "rv2", "rv3")},
    **{f"{name} regenerated": (
        lambda request, name=name: regenerate_from_fcr(
            OUT_F_SYSTEMS[name](request)))
       for name in ("S6@2", "SL(3,3)@3", "3^(1+2):2@3")},
}


@pytest.mark.parametrize("name", sorted(TRANSPORTED_SYSTEMS))
def test_radical_of_a_transported_member_matches_its_own_core(name, request):
    """`is_radical` answers a member read by transport from the searched
    member of its F-class; on every object it agrees with the member's own
    core, O_p(Aut_F(Q)) = Inn(Q), which `aut_f_p_core` reads off Q."""
    F = TRANSPORTED_SYSTEMS[name](request)
    moved = 0
    for Q in F.objects():
        core, inner = aut_f_p_core(F, Q)
        assert is_radical(F, Q) == (core == inner), Q.order
        moved += Q.order > 1 and F._searched(Q) is not Q
    assert moved > 0


def _seeded_automizer(p, rank, seed_images):
    """The system over E = Cp^(rank + 1) generated by automorphisms of
    V = Cp^rank, each given by its images of V's generators: V is
    F-conjugate to itself alone, and Aut_S(V) = 1 is a Sylow subgroup of
    no Aut_F(V) of order divisible by p, so its core is read from a grown
    Sylow subgroup."""
    E = elementary_abelian_group(p, rank + 1)
    gens = E.generator_ids()[:rank]
    V = subgroup_generated(E, gens)
    seeds = [hom_from_images(V, E, gens, [E.index[x] for x in images])
             for images in seed_images(*[E.elements[g] for g in gens])]
    F = generated_fusion(E.full(), p, seeds)
    return F, F.subgroup(V.ids)


def _times(x, y):
    return tuple(x[i] for i in y)


# (p, rank of V, seed automorphisms as images of V's generators,
# |Aut_F(V)|, |O_p(Aut_F(V))|)
GROWN_SYLOW = {
    "C2 on C2^2": (2, 2, lambda a, b: [(b, a)], 2, 2),
    "S3 on C2^2": (2, 2, lambda a, b: [(b, a), (b, _times(a, b))], 6, 1),
    # a 3-cycle of the basis and a transvection generate GL(3, 2)
    "GL(3,2) on C2^3": (2, 3, lambda a, b, c: [
        (b, c, a), (_times(a, b), b, c)], 168, 1),
    # the stabiliser of the point a: S4, whose O_2 is its four unipotent
    # elements
    "S4 on C2^3": (2, 3, lambda a, b, c: [
        (a, c, b), (a, c, _times(b, c)), (a, _times(a, b), c)], 24, 4),
    # one transvection, of order 3
    "C3 on C3^2": (3, 2, lambda a, b: [(a, _times(a, b))], 3, 3),
    # the two elementary transvections generate SL(2, 3)
    "SL(2,3) on C3^2": (3, 2, lambda a, b: [
        (a, _times(a, b)), (_times(a, b), b)], 24, 1),
}


@pytest.mark.parametrize("name", sorted(GROWN_SYLOW))
def test_radical_grows_a_sylow_when_no_member_is_fully_automised(name):
    p, rank, seed_images, order, core_order = GROWN_SYLOW[name]
    F, V = _seeded_automizer(p, rank, seed_images)
    assert len(F.aut_f_vectors(V)) == order
    assert F.f_conjugates(V) == [V]
    assert not is_fully_automised(F, V)
    core, _inner = aut_f_p_core(F, V)
    assert len(core) == core_order
    assert is_radical(F, V) == (core_order == 1)
    _check_radical_against_out_f(F)
    assert _check_closures_against_oracle(F) > 0
