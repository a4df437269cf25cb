"""Morphisms stored by generator images against the full-table rules.

Every rule now stores Hom(Q, S) as the images of Q.generator_ids() and
builds image tables only when they are asked for. For every object, the
tables that `hom_to_S_tables` rebuilds must equal those of the full-table
rule it replaced (`oracle_tables`), on transporter systems of S6 and A8,
on rv2, on the four `witness --p 3` products and their quotients by the
abelian factor, and on two normalizer subsystems of 3^(1+2):2. Their
digests must equal the ones the full-table rules gave.

The materialiser is checked against `hom_from_images`, and a table that
agrees with a morphism on the generators but not elsewhere must be
rejected wherever a morphism is taken as input. `FusionSystem.images_at`,
the one reader of stored morphisms, must give at chosen elements what the
whole tables give there.
"""

import json
import random

import pytest

import oracle_tables
from conftest import extraspecial27_c2
from test_layering import _product, _s6
from fusionkit import (
    AlperinDecomposition,
    GroupHom,
    Subgroup,
    alperin_decompose,
    alternating_group,
    hom_from_images,
    hom_table_digest,
    normalizer_subsystem,
    product_fusion,
    quotient_fusion,
    sylow_p,
    symmetric_group,
    transporter_fusion,
    verify_decomposition,
)
from fusionkit.cli import _witness_pairs_p3, main
import fusionkit.cli as cli

# hom_table_digest of each system as the full-table rules gave it
DIGESTS = {
    "S6@2": "2fc7ed6a062db172f8f9bf017a456f881c121bfe796c5f33b2f6dbddb2e6bf07",
    "S6@3": "bce0779ef53740a0844ea474cfa1416068e73aa4941542590b4fcbd9efbede93",
    "A8@2": "f8e7e0d6126d9bd4d20324a9de7f167849e9d198db246e0fd138018482b2d254",
    "rv2": "2e464ecb2ee3d66e1ee3c9d2209c8dce7d6ea1104a1623f15b9299c736997b9f",
    "witness0": "5f85d9ddd8b41860ca3bee4ec50be5a00929d2439162e250847c60ef87ac107d",
    "witness0/A": "f4097cb6e7297a30b9034bb7897237058da50c23becf5699ea9e91f9f387f4ff",
    "witness1": "1d5e4a2896a539ea900a37a6d6603056e0a512f8ca422b40d8fa47f61196c7a5",
    "witness1/A": "f4097cb6e7297a30b9034bb7897237058da50c23becf5699ea9e91f9f387f4ff",
    "witness2": "965a17782eb707203c3967af59bb57464559c468a577293d8b925d95db805a6a",
    "witness2/A": "77bcfdd910237c7a446f3c00db872c255b9902a8f2882a062091fdf64f928637",
    "witness3": "568df62d671c8c68aff2c97fed98428c119a3a4d40c72e6a61dc04e5f8bed67f",
    "witness3/A": "77bcfdd910237c7a446f3c00db872c255b9902a8f2882a062091fdf64f928637",
    "normalizer-full": "85236d8dcec84d01163568ea57f8c6e513e1f8cbd958b7c85c079db12cb21f55",
    "normalizer-trivial": "e3ac4003f2786973270d2e860fe3442ff140eff187ec30b7aecf767846526450",
}

TRANSPORTER = {
    "S6@2": (symmetric_group, 6, 2),
    "S6@3": (symmetric_group, 6, 3),
    "A8@2": (alternating_group, 8, 2),
}


def _transporter(G, p):
    return transporter_fusion(G, sylow_p(G.full(), p), p)


def _check(F, name, reference):
    for Q in F.objects():
        assert F.hom_to_S_tables(Q) == reference(Q), (name, Q.order)
    assert hom_table_digest(F)["sha256"] == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(TRANSPORTER))
def test_transporter_matches_full_table_rule(name):
    make, n, p = TRANSPORTER[name]
    G = make(n)
    F = _transporter(G, p)
    _check(F, name, lambda Q: oracle_tables.transporter(F, G, Q))


def test_generated_matches_full_table_rule(rv_systems):
    F = rv_systems["rv2"]
    _check(F, "rv2", lambda Q: oracle_tables.generated(F, Q))


@pytest.mark.parametrize("k", range(4))
def test_product_and_quotient_match_full_table_rules(k):
    _n1, F1, _n2, F2 = _witness_pairs_p3()[k]
    F = product_fusion(F1, F2)
    _check(F, f"witness{k}",
           lambda Q: oracle_tables.product(F1, F2, F, Q))
    A = F.factor_embeddings[1]
    Fq, qm = quotient_fusion(F, A)
    _check(Fq, f"witness{k}/A",
           lambda Pq: oracle_tables.quotient(F, A, qm.theta, Pq))


@pytest.mark.parametrize("K", ["full", "trivial"])
def test_normalizer_matches_full_table_rule(K):
    F = _transporter(extraspecial27_c2(), 3)
    Q = min((Q for Q in F.objects() if Q.order == 9),
            key=lambda Q: Q.sorted_ids)
    N = normalizer_subsystem(F, Q, K)
    K_tables = oracle_tables.automorphism_tables(Q, K)
    _check(N, f"normalizer-{K}",
           lambda P: oracle_tables.normalizer(F, Q, K_tables, N.S.ids, P))


@pytest.mark.parametrize("name", ["S6@2", "3^(1+2):2@3"])
def test_materialised_tables_match_hom_from_images(name):
    G = symmetric_group(6) if name == "S6@2" else extraspecial27_c2()
    F = _transporter(G, 2 if name == "S6@2" else 3)
    for Q in F.objects():
        gens = Q.generator_ids()
        for vec in F.hom_vectors(Q):
            h = hom_from_images(Q, F.ambient, gens, vec)
            assert h is not None
            assert F.table(Q, vec) == h.images


@pytest.mark.parametrize("name", ["S6@2", "rv1", "3^(1+2):2 x S3"])
def test_images_at_reads_the_tables_at_the_chosen_elements(name, rv_systems):
    """Entry i of `images_at(X, elems, vectors)` is the table of vectors[i]
    read at `elems`, for every object X and a seeded sample of element
    lists (repeats and the empty list among them); without
    `vectors` it reads Hom(X, S) in the order of `hom_vectors`, and without
    `elems` it gives the whole tables."""
    F = {"rv1": lambda: rv_systems["rv1"], "S6@2": _s6,
         "3^(1+2):2 x S3": _product}[name]()
    rng = random.Random(name)
    for X in F.objects():
        vectors = F.hom_vectors(X)
        tables = [F.table(X, v) for v in vectors]
        assert F.images_at(X) == tables
        pos = X.positions
        picked = rng.sample(range(len(vectors)), min(5, len(vectors)))
        some = [vectors[i] for i in picked]
        for _ in range(3):
            elems = rng.choices(X.sorted_ids, k=rng.randrange(5))
            at = [pos[x] for x in elems]
            want = [tuple(t[k] for k in at) for t in tables]
            assert F.images_at(X, elems) == want
            assert F.images_at(X, elems, some) == [want[i] for i in picked]
        assert F.images_at(X, [], some) == [()] * len(some)


def _bogus(F):
    """(morphism, table): a morphism of F and a table that agrees with it
    on its domain's generators and differs at two other elements."""
    for Q in sorted(F.objects(), key=lambda Q: -Q.order):
        gens = set(Q.generator_ids())
        rest = [k for k, x in enumerate(Q.sorted_ids)
                if x not in gens and x != F.ambient.identity_id]
        for phi in F.hom_to_S(Q):
            ims = list(phi.images)
            a, b = rest[0], rest[1]
            if ims[a] != ims[b]:
                ims[a], ims[b] = ims[b], ims[a]
                return phi, tuple(ims)
    raise AssertionError("no object with two non-generators")


def test_bogus_table_is_rejected(f_s4):
    F = f_s4
    phi, bogus = _bogus(F)
    Q = phi.domain
    assert F.has_morphism(Q, phi.images)
    assert not F.has_morphism(Q, bogus)
    with pytest.raises(ValueError, match="does not belong"):
        alperin_decompose(F, (Q, bogus))
    d = alperin_decompose(F, phi)
    assert verify_decomposition(F, d, phi)
    with pytest.raises(ValueError, match="does not belong"):
        verify_decomposition(F, d, GroupHom(Q, F.S, bogus))


def test_bogus_chain_step_is_rejected(f_es54):
    F = f_es54
    for Q in F.objects():
        for phi in F.hom_to_S(Q):
            d = alperin_decompose(F, phi)
            for k, (P_k, R, psi) in enumerate(d.chain):
                gens = set(R.generator_ids())
                rest = [i for i, x in enumerate(R.sorted_ids)
                        if x not in gens and x != F.ambient.identity_id]
                ims = list(psi.images)
                if len(rest) < 2 or ims[rest[0]] == ims[rest[1]]:
                    continue
                ims[rest[0]], ims[rest[1]] = ims[rest[1]], ims[rest[0]]
                chain = list(d.chain)
                chain[k] = (P_k, R, GroupHom(R, R, ims))
                bad = AlperinDecomposition(d.source, d.target, chain, phi)
                assert verify_decomposition(F, d)
                assert verify_decomposition(F, bad).violated == "b"
                # a step whose table is not over R at all
                e = F.ambient.identity_id
                E = F.subgroup(frozenset([e]))
                chain[k] = (P_k, R, GroupHom(E, E, [e]))
                short = AlperinDecomposition(d.source, d.target, chain, phi)
                assert verify_decomposition(F, short).violated == "b"
                return
    raise AssertionError("no chain step with two non-generators")


def test_cli_decompose_rejects_bogus_table(tmp_path, monkeypatch, capsys):
    group = tmp_path / "s4.json"
    group.write_text(json.dumps({"type": "named", "name": "symmetric",
                                 "n": 4}))
    mor = tmp_path / "mor.json"
    mor.write_text(json.dumps([{"domain_gens": [], "images": []}]))
    G = symmetric_group(4)
    F = _transporter(G, 2)
    phi, bogus = _bogus(F)

    def parse(S, _data):
        # the parsed morphism in the job's own ambient, table swapped
        return [GroupHom(Subgroup(S.ambient, phi.domain.ids), S, bogus)]

    monkeypatch.setattr(cli, "parse_fusion_generators", parse)
    code = main(["decompose", "--group", str(group), "--sylow", "2",
                 "--morphism", str(mor)])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err["error"] == "not an F-isomorphism"
