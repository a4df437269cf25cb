"""Receptivity by generator images against the full-table oracle.

For every object P the library's Aut_S(P) tables and least-s provenance,
and for every isomorphism phi: Q -> P with Q in the F-class of P, its
N_phi and the extension it finds over N_phi, must equal those of
`oracle_receptivity`, and so must the verdict of `is_receptive`. Each
transporter case also runs on a copy of G with its points relabelled by a
seeded random permutation, and the systems that `test_word_search` makes
unsaturated supply objects that are not receptive.

`is_receptive` decides a map either from the restrictions of all of
Hom(N_phi, S) (`FusionSystem.extension_index`) or from the map's own
candidate images (`FusionSystem.extends`); the two are compared on every
map, whichever one the size rule picks. The witnesses read their
extensions from the same `extension_index` entries, Hom(N_phi, S) grouped
by restriction, and both readers take phi as its own extension when
N_phi = Q, so each pair is restricted once and no entry has N_phi = Q.
"""

import random
from collections import Counter

import pytest

import oracle_receptivity
from test_sweep import GROUPS, relabelled
from test_word_search import _unsaturated
from fusionkit import build_rv, is_saturated, perms, sylow_p, transporter_fusion
from fusionkit.classify import _extensions, is_receptive, receptivity_witnesses

CASES = [("S6", 2), ("S6", 3), ("SL(3,3)", 3), ("3^(1+2):2", 3)]
UNSATURATED = [("S6", 2), ("3^(1+2):2", 3)]


def _transporter(name, p, relabel):
    G = GROUPS[name]()
    if relabel:
        G = relabelled(G, random.Random(f"{name}@{p}"))
    return transporter_fusion(G, sylow_p(G.full(), p), p)


def _check_against_oracle(F, objects):
    """Compare every object with the oracle; returns how many are not
    receptive."""
    ref = oracle_receptivity.Reference(F)
    refused = 0
    for P in objects:
        want = ref.aut_s(P)
        aut_s = F.aut_s(P)
        assert [a.images for a in aut_s] == sorted(want)
        assert [a.provenance for a in aut_s] == [
            ("conjugation", want[t]) for t in sorted(want)]
        verdict, got = receptivity_witnesses(F, P)
        expected = []
        for Q in F.f_conjugates(P):
            for t in F.hom_to_S_tables(Q):
                if frozenset(t) != P.ids:
                    continue
                n_phi = ref.n_phi(Q, t)
                expected.append(
                    (Q.ids, t, n_phi,
                     ref.extension(F.subgroup(n_phi), Q, t))
                )
        assert [
            (w.phi.domain.ids, w.phi.images, w.n_phi.ids,
             None if w.extension is None else w.extension.images)
            for w in got
        ] == expected
        assert verdict == all(e[3] is not None for e in expected)
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
        receptivity_witnesses(F, P)
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
            for vec, N, candidates, _orbit in _extensions(F, Q, P):
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
    """`is_receptive` and the witnesses read one entry per pair (N_phi, Q),
    `extension_index`, which lists every vector of Hom(N_phi, S) once under
    its restriction to Q; each witness extension is listed under its phi,
    and no entry has N_phi = Q, where phi is its own extension."""
    F = _transporter("S6", 2, False)
    if unsaturated:
        F, _phi = _unsaturated(F)
    is_saturated(F)
    witnesses = [w for P in F.objects()
                 for w in receptivity_witnesses(F, P)[1]]
    assert "extension_candidates" not in _kinds(F)
    index = {key[1:]: value for key, value in F._memo.items()
             if key[0] == "extension_index"}
    for (n_ids, q_ids), found in index.items():
        assert n_ids != q_ids
        listed = [v for vectors in found.values() for v in vectors]
        assert sorted(listed) == sorted(F.hom_vectors(F.subgroup(n_ids)))
    extended = refused = 0
    for w in witnesses:
        N, Q = w.n_phi, w.phi.domain
        if N == Q:
            assert w.extension.images == w.phi.images
            continue
        vec = tuple(w.phi.images[Q.positions[g]] for g in Q.generator_ids())
        found = index[N.ids, Q.ids]
        if w.extension is None:
            assert vec not in found
            refused += 1
        else:
            ext = w.extension.images
            assert tuple(ext[N.positions[g]]
                         for g in N.generator_ids()) in found[vec]
            extended += 1
    assert extended > 0 and refused > 0
