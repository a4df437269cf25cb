"""Products by the factor rule against the generated closure they replaced
(oracle_product), the laziness of the derived systems of the witness, and
the saturation of the products themselves: each `witness --p 3` product is
saturated, and a product with an unsaturated factor is not.

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
    is_saturated,
    main_theorem_witness,
    product_fusion,
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


def test_witness_reads_only_objects_inside_or_above_A(monkeypatch):
    built = []

    def recording_product(F1, F2):
        F = product_fusion(F1, F2)
        built.append(F)
        return F

    monkeypatch.setattr(constructions, "product_fusion", recording_product)
    _n1, F1, _n2, F2 = _witness_pairs_p3()[3]
    assert main_theorem_witness(F1, F2).all_pass
    (F,) = built
    _left, A = F.factor_embeddings
    computed = [key[1] for key in F._memo if key[0] == "hom"]
    assert computed
    assert all(Q <= A.ids or A.ids <= Q for Q in computed)
    assert len(computed) < len(F.objects())


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
