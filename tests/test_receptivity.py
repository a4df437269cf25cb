"""Receptivity by generator images against the full-table oracle.

For every object P the library's Aut_S(P) tables, and for every
isomorphism phi: Q -> P with Q in the F-class of P, its N_phi and whether
it extends over N_phi, must equal those of `oracle_receptivity`, and so
must the verdict of `is_receptive`. Each transporter case also runs on a
copy of G with its points relabelled by a seeded random permutation, and
the systems that `test_word_search` makes unsaturated supply objects that
are not receptive.

`is_receptive` decides a map either from the restrictions of all of
Hom(N_phi, S) (`FusionSystem.extension_index`) or from the map's own
candidate images (`FusionSystem.extends`); the two are compared on every
map, whichever one the size rule picks, and the restrictions are compared
with the oracle's extensions on every map with N_phi != Q. The library
takes phi as its own extension when N_phi = Q, so each pair is restricted
once and no entry has N_phi = Q.

`is_receptive` takes one domain Q of each S-class in P's F-class and one
map of each double coset Aut_S(P) phi Aut_S(Q); `oracle_receptivity`'s
`is_receptive` keeps the loop it replaced, over every member Q and one map
per orbit under Aut_S(Q), and the two verdicts are compared on every
object of transporter, regenerated, unsaturated and exotic systems.
"""

import random
from collections import Counter

import pytest

import oracle_receptivity
from test_sweep import GROUPS, relabelled
from test_word_search import _unsaturated
from fusionkit import (
    build_rv,
    is_saturated,
    perms,
    regenerate_from_fcr,
    sylow_p,
    transporter_fusion,
)
from fusionkit.classify import _extensions, is_receptive

CASES = [("S6", 2), ("S6", 3), ("SL(3,3)", 3), ("3^(1+2):2", 3)]
UNSATURATED = [("S6", 2), ("3^(1+2):2", 3)]


def _transporter(name, p, relabel):
    G = GROUPS[name]()
    if relabel:
        G = relabelled(G, random.Random(f"{name}@{p}"))
    return transporter_fusion(G, sylow_p(G.full(), p), p)


def _check_against_oracle(F, objects):
    """Compare every object, and every isomorphism onto it, with the
    oracle; returns how many objects are not receptive."""
    ref = oracle_receptivity.Reference(F)
    refused = 0
    for P in objects:
        want = ref.aut_s(P)
        aut_s = F.aut_s(P)
        assert [a.images for a in aut_s] == sorted(want)
        verdict = True
        for Q in F.f_conjugates(P):
            rows = list(_extensions(F, Q, P, F.hom_into(Q, P)[1]))
            tables = F.images_at(Q, vectors=[vec for vec, *_rest in rows])
            assert sorted(tables) == [t for t in ref.hom_tables(Q)
                                      if frozenset(t) == P.ids]
            for (vec, N, _candidates, _orbit), t in zip(rows, tables):
                assert N.ids == ref.n_phi(Q, t)
                extends = ref.extension(N, Q, t) is not None
                if N != Q:
                    assert (vec in F.extension_index(N, Q)) == extends
                verdict = verdict and extends
        assert is_receptive(F, P) == verdict
        refused += not verdict
    return refused


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("name,p", CASES)
def test_receptivity_matches_full_table_oracle(name, p, relabel):
    F = _transporter(name, p, relabel)
    _check_against_oracle(F, F.objects())


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("name,p", UNSATURATED)
def test_refusals_match_full_table_oracle(name, p, relabel):
    U, _phi = _unsaturated(_transporter(name, p, relabel))
    assert _check_against_oracle(U, U.objects()) > 0


def test_rv1_receptivity_matches_full_table_oracle(rv_systems):
    # P = S is left out: its full-table oracle twists 49 cosets of order 343
    # for each of the 3528 automorphisms of S; the S6, SL(3,3) and
    # 3^(1+2):2 cases above check that branch
    F = rv_systems["rv1"]
    _check_against_oracle(F, [P for P in F.objects() if P != F.S])


def test_receptivity_makes_no_kernel_calls(monkeypatch):
    F = _transporter("3^(1+2):2", 3, False)
    for Q in F.objects():
        F.hom_to_S_tables(Q)
        F.centralizer_cosets(Q)
    calls = Counter()
    for name in ("conjugate", "mul"):
        def counted(*args, _real=getattr(perms, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(perms, name, counted)
    # the counters see the kernel calls that FiniteGroup makes; S is
    # tabled by now, so the probe multiplies by an element outside S
    g = min(i for i in range(F.ambient.order) if i not in F.S.ids)
    F.ambient.conj_row(F.S.sorted_ids[:1], g)
    F.ambient.mul_row(F.S.sorted_ids[:1], g)
    assert calls == {"conjugate": 1, "mul": 1}
    calls.clear()
    for P in F.objects():
        assert is_receptive(F, P)
        list(_extensions(F, P, P, F.hom_into(P, P)[1]))
    assert _both_sides(F) > 0
    assert calls == {}


def _both_sides(F):
    """For every map phi onto every object but S, `FusionSystem.extends` on
    phi's candidates against the restrictions of Hom(N_phi, S) to its
    domain; returns how many maps were compared."""
    count = 0
    for P in F.objects():
        if P == F.S:
            continue
        for Q in F.f_conjugates(P):
            for vec, N, candidates, _orbit in _extensions(
                    F, Q, P, F.hom_into(Q, P)[1]):
                assert F.extends(N, Q, vec, candidates) == (
                    vec in F.extension_index(N, Q))
                count += 1
    return count


@pytest.mark.parametrize("name,p", [
    ("S6", 2), ("SL(3,3)", 3), ("A8", 2)])
def test_candidates_agree_with_restrictions(name, p):
    assert _both_sides(_transporter(name, p, False)) > 0


@pytest.mark.parametrize("name,p", UNSATURATED + [("SL(3,3)", 3)])
def test_candidates_agree_with_restrictions_when_unsaturated(name, p):
    U, _phi = _unsaturated(_transporter(name, p, False))
    assert _both_sides(U) > 0


def test_rv1_candidates_agree_with_restrictions(rv_systems):
    assert _both_sides(rv_systems["rv1"]) > 0


def _kinds(F):
    return Counter(key[0] for key in F._memo)


def test_rv1_decides_by_candidates_and_restricts_twice():
    """Building rv1 restricts Hom(N_phi, S) for two pairs (N_phi, Q) where
    it restricted it for 74 (56 with |N_phi| = 49 and |Q| = 7, 8 with
    N_phi = Q and 10 others), and tests candidates for the rest."""
    kinds = _kinds(build_rv("rv1"))
    assert kinds["extension_index"] == 2
    assert kinds["extension_chain"] > 0


def test_s6_decides_by_restrictions():
    F = _transporter("S6", 2, False)
    assert is_saturated(F).verdict
    assert _kinds(F)["extension_index"] > 0


@pytest.mark.parametrize("unsaturated", [False, True])
def test_each_pair_is_restricted_once(unsaturated):
    """`is_receptive` reads one entry per pair (N_phi, Q),
    `extension_index`, the set of restrictions to Q of all of
    Hom(N_phi, S); no entry has N_phi = Q, where phi is its own extension,
    and among the maps looked up some extend and some do not."""
    F = _transporter("S6", 2, False)
    if unsaturated:
        F, _phi = _unsaturated(F)
    is_saturated(F)
    extended = refused = 0
    for P in F.objects():
        for Q in F.f_conjugates(P):
            for vec, N, _candidates, _orbit in _extensions(
                    F, Q, P, F.hom_into(Q, P)[1]):
                if N == Q:
                    continue
                if vec in F.extension_index(N, Q):
                    extended += 1
                else:
                    refused += 1
    assert extended > 0 and refused > 0
    assert "extension_candidates" not in _kinds(F)
    index = {key[1:]: value for key, value in F._memo.items()
             if key[0] == "extension_index"}
    for (n_ids, q_ids), found in index.items():
        assert n_ids != q_ids
        N, Q = F.subgroup(n_ids), F.subgroup(q_ids)
        gens, pos = Q.generator_ids(), N.positions
        assert found == frozenset(F.images_at(N, gens)) == {
            tuple(t[pos[g]] for g in gens) for t in F.hom_to_S_tables(N)}


def _against_loop(F):
    """`is_receptive` against the per-Aut_S(Q)-orbit loop it replaced, on
    every object; returns how many objects are not receptive."""
    refused = 0
    for P in F.objects():
        want = oracle_receptivity.is_receptive(F, P)
        assert is_receptive(F, P) == want
        refused += not want
    return refused


@pytest.mark.parametrize("name,p,relabel", [
    ("A8", 2, False), ("SL(3,3)", 3, False), ("3^(1+2):2", 3, True)])
def test_receptivity_matches_the_orbit_loop(name, p, relabel):
    _against_loop(_transporter(name, p, relabel))


def test_regenerated_receptivity_matches_the_orbit_loop():
    _against_loop(regenerate_from_fcr(_transporter("S6", 2, False)))


@pytest.mark.parametrize("name,p", UNSATURATED)
def test_unsaturated_receptivity_matches_the_orbit_loop(name, p):
    U, _phi = _unsaturated(_transporter(name, p, False))
    assert _against_loop(U) > 0


@pytest.mark.parametrize("name", ["rv1", "rv2", "rv3"])
def test_rv_receptivity_matches_the_orbit_loop(rv_systems, name):
    _against_loop(rv_systems[name])


def test_rv1_takes_one_domain_per_s_class_and_map_per_double_coset(
        rv_systems, work_counts, monkeypatch):
    """Z(S) of 7^(1+2) is F-conjugate in rv1 to all 57 subgroups of order
    7, which fall into 9 S-classes: Z(S) and 8 classes of 7. Reading
    Hom(Q, Z(S)) for one member of each, `is_receptive` tests candidates
    for 48 maps, where taking every member tested them for 336. On each
    class of order 49, Aut_S(P) has order 7 and N_phi is computed for 576
    of the 4,032 maps onto P, one per left Aut_S(P)-orbit; the 72
    candidate tests stay, since N_phi = S makes the orbits under
    Aut_S(P) on the left and Aut_S(Q) on the right coincide."""
    F = rv_systems["rv1"]
    read = []
    hom_into = type(F).hom_into

    def counted_hom_into(F, Q, P, tables=False):
        read.append(Q.ids)
        return hom_into(F, Q, P, tables)

    monkeypatch.setattr(type(F), "hom_into", counted_hom_into)
    Z = next(P for P in F.objects()
             if P.order == 7 and F.normalizer_of(P) == F.S)
    assert len(F.f_conjugates(Z)) == 57
    assert is_receptive(F, Z)
    assert len(read) == len(set(read)) == 9
    assert (work_counts.n_phi, work_counts.extends) == (54, 48)
    rank2 = [cls for cls in F.conjugacy_classes() if cls[0].order == 49]
    assert rank2
    for cls in rank2:
        P = cls[0]
        assert len(F.centralizer_cosets(P)) == 7
        work_counts.n_phi = work_counts.extends = 0
        assert is_receptive(F, P)
        maps = sum(len(hom_into(F, Q, P)[1]) for Q in cls)
        assert (work_counts.n_phi, maps, work_counts.extends) == (
            576, 4032, 72)
