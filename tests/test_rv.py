"""The three exotic systems over the extraspecial group of order 343."""

import pytest

from fusionkit import (
    FCR_PROFILES,
    OUT_ORDERS,
    RVDescriptor,
    audit_axioms,
    build_rv,
    certify_rv,
    comparison_out_group,
    group_isomorphic,
    hom_table_digest,
    is_strongly_closed,
    out_F,
    outer_group_matrices,
    sylow_p,
    symmetric_group,
    transporter_fusion,
)
from fusionkit.rv import _Extraspecial, _lines, _line_orbits, _mclose


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        build_rv("rv4")
    with pytest.raises(ValueError):
        RVDescriptor("xx", [], {})


@pytest.mark.parametrize("name", [7, None, ["rv1"]])
def test_build_rv_takes_only_a_name(name):
    with pytest.raises(ValueError, match="takes a system name"):
        build_rv(name)


def test_build_rv_rejects_a_descriptor():
    """A descriptor is the record of a built system, not an input: its
    matrices and profile would be ignored, so it is refused."""
    mats = outer_group_matrices("rv3")
    rv = RVDescriptor("rv3", mats, {orb: 672 for orb in _line_orbits(mats)})
    with pytest.raises(ValueError, match="takes a system name"):
        build_rv(rv)


def test_certify_rv_names_build_rv_on_a_foreign_system():
    """Only a system made by `build_rv` carries the RVDescriptor that
    `certify_rv` checks against."""
    S4 = symmetric_group(4)
    F = transporter_fusion(S4, sylow_p(S4.full(), 2), 2)
    with pytest.raises(ValueError, match="build_rv"):
        certify_rv(F)


def test_profile_classes_of_one_size_share_one_automizer_order():
    """build_rv pairs line orbits with profile classes by size; this is
    the only assignment because classes of equal size carry equal
    automizer orders."""
    for name, classes in FCR_PROFILES.items():
        orders_by_size = {}
        for size, type_order in classes:
            orders_by_size.setdefault(size, set()).add(type_order)
        assert all(len(v) == 1 for v in orders_by_size.values()), name


@pytest.mark.parametrize("build", ["rank2_aut_seeds", "aut_group_tables"])
def test_unknown_rank2_type_order_rejected(build):
    with pytest.raises(ValueError, match="unknown type order"):
        getattr(_Extraspecial(), build)((1, 0), 100)


def test_descriptor_rejects_wrong_profile():
    mats = outer_group_matrices("rv1")
    orbits = _line_orbits(mats)
    bad = {orb: 672 for orb in orbits}
    with pytest.raises(ValueError):
        RVDescriptor("rv1", mats, bad)


def test_outer_matrix_groups_close_to_advertised_orders():
    for name, want in OUT_ORDERS.items():
        mats = outer_group_matrices(name)
        assert len(_mclose(mats)) == want, name


def test_line_orbit_sizes_match_profiles():
    for name in OUT_ORDERS:
        mats = outer_group_matrices(name)
        sizes = sorted(len(o) for o in _line_orbits(mats))
        assert sizes == sorted(n for n, _ in FCR_PROFILES[name]), name
        assert sum(sizes) == len(_lines()) == 8


def test_rv_systems_structure(rv_systems):
    for name, F in rv_systems.items():
        assert F.S.order == 343
        assert F.p == 7
        assert F.rv.name == name
        # |Aut_F(S)| = |Inn(S)| * |Out_F(S)| = 49 * out, from cached tables
        auts = [t for t in F.hom_to_S_tables(F.S)]
        assert len(auts) == 49 * OUT_ORDERS[name], name
        shape = tuple(sorted(
            (len(orb), t) for orb, t in F.rv.profile.items()
        ))
        assert shape == tuple(sorted(FCR_PROFILES[name])), name
        assert not hasattr(F, "certificate")


def test_rv_rank2_automizer_orders(rv_systems):
    for name, F in rv_systems.items():
        ext = F.rv.extraspecial
        got = []
        for orb, type_order in F.rv.profile.items():
            for line in orb:
                V = F.subgroup(ext.rank2_subgroup(line).ids)
                auts = [t for t in F.hom_to_S_tables(V)
                        if frozenset(t) == V.ids]
                got.append(len(auts))
                assert len(auts) == type_order, (name, line)
        assert len(got) == 8


def test_rv_strongly_closed_only_trivial_and_sylow(rv_systems):
    F = rv_systems["rv3"]
    closed = sorted(Q.order for Q in F.objects() if is_strongly_closed(F, Q))
    assert closed == [1, 343]


def test_rv_rebuild_is_deterministic(rv_systems):
    F = rv_systems["rv3"]
    F2 = build_rv("rv3")
    assert hom_table_digest(F) == hom_table_digest(F2)


def test_rv_outer_group_shapes(rv_systems):
    for name, F in rv_systems.items():
        out = out_F(F, F.S)
        assert out.order == OUT_ORDERS[name], name
        want = comparison_out_group(name)
        assert group_isomorphic(out.full(), want.full()) is not None, name


def test_rv_axiom_audit(rv_systems):
    assert audit_axioms(rv_systems["rv1"]) == []
