"""Receptivity by generator images against the full-table oracle.

For every object P the library's Aut_S(P) tables and least-s provenance,
and for every isomorphism phi: Q -> P with Q in the F-class of P, its
N_phi and the extension it finds over N_phi, must equal those of
`oracle_receptivity`. Each transporter case also runs on a copy of G with
its points relabelled by a seeded random permutation.
"""

import random
from collections import Counter

import pytest

import oracle_receptivity
from test_sweep import GROUPS, relabelled
from fusionkit import perms, sylow_p, transporter_fusion
from fusionkit.classify import receptivity_witnesses

CASES = [("S6", 2), ("S6", 3), ("SL(3,3)", 3), ("3^(1+2):2", 3)]


def _transporter(name, p, relabel):
    G = GROUPS[name]()
    if relabel:
        G = relabelled(G, random.Random(f"{name}@{p}"))
    return transporter_fusion(G, sylow_p(G.full(), p), p)


def _check_against_oracle(F, objects):
    ref = oracle_receptivity.Reference(F)
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


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("name,p", CASES)
def test_receptivity_matches_full_table_oracle(name, p, relabel):
    F = _transporter(name, p, relabel)
    _check_against_oracle(F, F.objects())


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
