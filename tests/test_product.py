"""Products by the factor rule against the generated closure they replaced
(oracle_product), quotients of products read off the other factor against
the generic push-forward rule, the laziness of the derived systems of the
witness, and the saturation of the products themselves: each
`witness --p 3` product is saturated, and a product with an unsaturated
factor is not.

The comparison covers every object of the four `witness --p 3` products,
of the small products of test_constructions, and of one product whose
first factor has its points relabelled by a seeded random permutation.
"""

import random

import pytest

import oracle_product
from conftest import extraspecial27_c2
from test_constructions import PRODUCT_PAIRS
from test_sweep import relabelled
from test_word_search import _unsaturated
from fusionkit import (
    FusionSystem,
    centralizer,
    centralizer_subsystem,
    dihedral_group,
    hom_table_digest,
    inner_fusion,
    is_saturated,
    main_theorem_witness,
    product_fusion,
    quotient_fusion,
    sylow_p,
    symmetric_group,
    transporter_fusion,
)
from fusionkit.cli import _witness_pairs_p3
import fusionkit.constructions as constructions


def _transporter(G, p):
    return transporter_fusion(G, sylow_p(G.full(), p), p)


def _relabelled_pair():
    G = relabelled(extraspecial27_c2(), random.Random("product"))
    return _transporter(G, 3), _transporter(symmetric_group(3), 3)


def _witness_pair(k):
    return lambda: _witness_pairs_p3()[k][1::2]


CASES = (
    [(f"witness{k}", _witness_pair(k)) for k in range(4)]
    + PRODUCT_PAIRS
    + [("relabelled 3^(1+2):2 x S3", _relabelled_pair)]
)


@pytest.mark.parametrize("name,mk", CASES)
def test_factor_rule_matches_generated_closure(name, mk):
    F1, F2 = mk()
    F = product_fusion(F1, F2)
    want = oracle_product.product_closure(F1, F2)
    # the closure's ambient is closed from padded generators, so equal
    # element lists mean the ids of the two systems name the same elements
    assert want.ambient.elements == F.ambient.elements
    assert F.S.ids == want.S.ids
    objects = F.objects()
    assert [Q.ids for Q in objects] == [Q.ids for Q in want.objects()]
    for Q in objects:
        assert (F.hom_to_S_tables(Q)
                == want.hom_to_S_tables(want.subgroup(Q.ids)))
    assert F.backend == "derived"


def _recorded(monkeypatch, name):
    """Record each system that `constructions.<name>` returns."""
    built = []
    make = getattr(constructions, name)

    def recording(*args):
        built.append(make(*args))
        return built[-1]

    monkeypatch.setattr(constructions, name, recording)
    return built


def _hom_keys(F):
    return [key[1] for key in F._memo if key[0] == "hom"]


@pytest.mark.parametrize("k", range(4))
def test_witness_builds_hom_sets_only_inside_A(monkeypatch, k):
    """Both quotients of the witness read the first factor's hom sets, so
    the product and C_F(A) build hom sets only for the subgroups of A
    whose classes `is_strongly_closed` reads: at most |A| of them."""
    products = _recorded(monkeypatch, "product_fusion")
    centralizers = _recorded(monkeypatch, "centralizer_subsystem")
    assert main_theorem_witness(*_witness_pair(k)()).all_pass
    (F,), (C,) = products, centralizers
    _left, A = F.factor_embeddings
    for X in (F, C):
        computed = _hom_keys(X)
        assert computed and len(computed) <= A.order
        assert all(Q <= A.ids for Q in computed)


def _generic(F):
    """F's hom sets behind a plain rule that carries no factor data, so a
    quotient of it takes the generic push-forward rule."""
    return FusionSystem(F.S, F.p, lambda _F, Q: F.hom_vectors(Q), "derived")


# each case lists (system, kernel, whether the kernel is a factor
# embedding that the system reads its quotient through)
def _product_and_centralizer(F1, F2):
    F = product_fusion(F1, F2)
    A = F.factor_embeddings[1]
    return [(F, A, True), (centralizer_subsystem(F, A), A, True)]


def _both_embeddings(F1, F2):
    # a product of its own for each, as the generic rule fills its memo
    return [(F, F.factor_embeddings[i], True)
            for i in (0, 1) for F in [product_fusion(F1, F2)]]


def _centre_kernel(F1, F2):
    """Z(S1) x S2 = Z(S), strongly closed in the product but no factor."""
    F = product_fusion(F1, F2)
    return [(F, centralizer(F.S, F.S), False)]


def _s5_squared():
    """F = S5@5 x S5@5 modulo each factor embedding T, and C_F(T) =
    S5@5 x inner(C5) or inner(C5) x S5@5 modulo each embedding: modulo T
    it reads the other factor, modulo the other embedding it is generic."""
    F1 = _transporter(symmetric_group(5), 5)
    cases = _both_embeddings(F1, F1)
    for i, j in [(0, 0), (0, 1), (1, 1), (1, 0)]:
        F = product_fusion(F1, F1)
        E = F.factor_embeddings
        cases.append((centralizer_subsystem(F, E[i]), E[j], i == j))
    return cases


QUOTIENT_CASES = [
    *[(f"witness{k}",
       lambda k=k: _product_and_centralizer(*_witness_pair(k)()))
      for k in range(4)],
    ("D8 x S3@2", lambda: _both_embeddings(
        inner_fusion(dihedral_group(8), 2),
        _transporter(symmetric_group(3), 2))),
    ("S5@5 x S5@5", _s5_squared),
    *[(f"witness{k} Z(S)", lambda k=k: _centre_kernel(*_witness_pair(k)()))
      for k in (0, 3)],
]


@pytest.mark.parametrize("name,mk", QUOTIENT_CASES)
def test_factor_quotient_matches_generic_rule(name, mk):
    """A quotient by a factor embedding, of a product or of the
    centralizer of that embedding, reads the other factor and builds no
    hom set of the system above the kernel; a quotient by any other
    kernel reads the system at the preimages. Either way it has the
    generic rule's hom vectors, in its order, on every object."""
    for F, T, factor in mk():
        fast, _ = quotient_fusion(F, T)
        vectors = [fast.hom_vectors(Q) for Q in fast.objects()]
        assert all(Q <= T.ids for Q in _hom_keys(F)) == factor
        slow, _ = quotient_fusion(_generic(F), T)
        assert fast.ambient.elements == slow.ambient.elements
        assert vectors == [slow.hom_vectors(slow.subgroup(Q.ids))
                           for Q in fast.objects()]
        assert hom_table_digest(fast) == hom_table_digest(slow)


@pytest.mark.parametrize("k", range(4))
def test_factor_quotient_walks_one_vector_per_morphism(work_counts, k):
    """On warm factors, the quotient rule read off the first factor walks
    one vector for each morphism of F/A. The generic rule walks the
    product's vectors at each preimage, |Aut_F2(S2)| for each morphism of
    F/A, after the product's rule has walked the first factor's once."""
    F1, F2 = _witness_pair(k)()

    def walked(wrap):
        F = product_fusion(F1, F2)
        Fq, _ = quotient_fusion(wrap(F), F.factor_embeddings[1])
        work_counts.walks.clear()
        morphisms = sum(len(Fq.hom_vectors(Q)) for Q in Fq.objects())
        return sum(work_counts.walks.values()), morphisms

    walked(lambda F: F)
    fast, morphisms = walked(lambda F: F)
    slow, same = walked(_generic)
    assert same == morphisms
    assert fast == morphisms
    assert slow >= (1 + len(F2.hom_vectors(F2.S))) * morphisms


@pytest.mark.parametrize("k", range(4))
def test_witness_products_are_saturated(k):
    F1, F2 = _witness_pair(k)()
    assert is_saturated(product_fusion(F1, F2)).verdict


@pytest.mark.parametrize("k", [0, 1])
def test_product_with_an_unsaturated_factor_is_not_saturated(k):
    """_unsaturated(3^(1+2):2@3) times inner(C3) (k = 0) and S3 (k = 1)."""
    U, _phi = _unsaturated(_transporter(extraspecial27_c2(), 3))
    _n1, _F1, _n2, F2 = _witness_pairs_p3()[k]
    assert not is_saturated(product_fusion(U, F2)).verdict
