"""The three exotic systems over the extraspecial group of order 343."""

import os
import pathlib
import subprocess
import sys
import textwrap
from itertools import accumulate, repeat

import pytest

import fusionkit
from fusionkit import (
    FCR_PROFILES,
    OUT_ORDERS,
    FusionSystem,
    RVDescriptor,
    audit_axioms,
    build_rv,
    certify_rv,
    comparison_out_group,
    equal_hom_tables,
    fcr_objects,
    generated_fusion,
    group_isomorphic,
    hom_from_images,
    hom_table_digest,
    is_strongly_closed,
    out_F,
    outer_group_matrices,
    sylow_p,
    symmetric_group,
    transporter_fusion,
)
from fusionkit import rv as rv_module
from fusionkit.rv import (
    HALF_TYPE_ORDER,
    _I2,
    _ORDER16,
    _RANK2_GENERATORS,
    _Extraspecial,
    _line_orbits,
    _lines,
    _mclose,
    _mmul,
)
from fusionkit.classify import _automizer_generators
from fusionkit.fusion import automorphism_closure


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


def test_unknown_rank2_type_order_rejected():
    with pytest.raises(ValueError, match="unknown type order"):
        _Extraspecial().rank2_aut_seeds((1, 0), 100)


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


def test_order16_constant_has_multiplicative_order_16():
    """rv2 and rv3 are generated from a field element of order 16; every
    element of GL(2, 7) has order at most 48."""
    powers = list(accumulate(repeat(_ORDER16, 48), _mmul))
    assert powers.index(_I2) + 1 == 16


def _lifted_matrix_closure(ext, line, type_order):
    """The reference for the rank-2 check of `certify_rv`: every matrix of
    the group that `_RANK2_GENERATORS[type_order]` generates, lifted one at
    a time to an automorphism of the rank-2 subgroup V over the line (v to
    v^a z^c and z to v^b z^d for the matrix ((a, b), (c, d))), as its
    images of `V.generator_ids()`."""
    mats = _mclose(_RANK2_GENERATORS[type_order])
    G, z = ext.G, ext.z
    V = ext.rank2_subgroup(line)
    v = ext.word(line[0], line[1], 0)
    gens = [V.positions[g] for g in V.generator_ids()]
    out = set()
    for m in mats:
        imgs = [G.mul_ids(G.power_ids(v, m[0][c]), G.power_ids(z, m[1][c]))
                for c in (0, 1)]
        h = hom_from_images(V, G, [v, z], imgs)
        assert h is not None and h.is_injective(), m
        out.add(tuple(h.images[i] for i in gens))
    assert len(out) == len(mats) == type_order
    return out


def test_seed_closure_matches_lifted_matrix_closure(rv_systems):
    """The `automorphism_closure` of the three lifted seeds is the lift of
    the matrix group they generate, and both are Aut_F(V), on every orbit
    representative V of rv1-rv3."""
    for name, F in rv_systems.items():
        ext = F.rv.extraspecial
        for orb, type_order in F.rv.profile.items():
            V = ext.rank2_subgroup(min(orb))
            seeds = ext.rank2_aut_seeds(min(orb), type_order)
            closure = automorphism_closure(
                V, [h.images for h in seeds]).keys()
            ref = _lifted_matrix_closure(ext, min(orb), type_order)
            assert closure == ref == set(F.aut_f_vectors(V)), (name, orb)


def test_certify_rv_lifts_only_the_rank2_seeds(rv_systems, monkeypatch):
    """`certify_rv` lifts the three generators of each orbit
    representative's automizer and no other matrix, and evaluates fewer
    rank-2 morphisms than one automizer holds."""
    lifts, walked = [], []
    real_images_at = FusionSystem.images_at

    def lift(domain, *args):
        lifts.append(domain.order)
        return hom_from_images(domain, *args)

    def images_at(F, X, elems=None, vectors=None):
        out = real_images_at(F, X, elems, vectors)
        if X.order == 49:
            walked.append(len(out))
        return out

    monkeypatch.setattr(rv_module, "hom_from_images", lift)
    monkeypatch.setattr(FusionSystem, "images_at", images_at)
    for name, F in rv_systems.items():
        lifts.clear()
        walked.clear()
        certify_rv(F)
        assert lifts == [49] * 3 * len(F.rv.profile), name
        assert sum(walked) < HALF_TYPE_ORDER, name


MISMATCH = textwrap.dedent("""
    import sys
    from fusionkit import RVDescriptor, build_rv, certify_rv
    from fusionkit import outer_group_matrices
    from fusionkit.rv import _line_orbits
    if not sys.flags.optimize:
        sys.exit("not run under -O")
    F = build_rv("rv2")
    mats = outer_group_matrices("rv3")
    rv3 = RVDescriptor("rv3", mats, {orb: 672 for orb in _line_orbits(mats)})
    rv3.extraspecial = F.rv.extraspecial
    F.rv = rv3
    certify_rv(F)
""")


def test_certify_rv_rejects_a_mismatched_system_under_python_O():
    """rv2 with an rv3 descriptor has an outer group of order 48, not 96;
    `python -O` strips asserts, and `certify_rv` still refuses it."""
    src = str(pathlib.Path(fusionkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", MISMATCH],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 1, proc.stderr
    assert "AssertionError: outer group order 48 != 96" in proc.stderr


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


def _automizer_seeds(F, objects):
    """A generating set of Aut_F(P) for each P of `objects`, as
    (P, image table) seeds."""
    return [(P, table) for P in objects
            for _vec, table in _automizer_generators(F, P,
                                                     F.aut_f_vectors(P))]


@pytest.mark.parametrize("name,seeds", [("rv1", 35), ("rv2", 41),
                                        ("rv3", 39)])
def test_fcr_automizer_generators_generate_the_system(rv_systems, name,
                                                      seeds):
    """Alperin's theorem (Aschbacher, Kessar & Oliver 2011, Thm I.3.5): a
    saturated F is generated by the automizers of its fully normalised fcr
    subgroups, Aut_F(S) among them, so a generating set of each automizer
    generates F. Without the generators of Aut_F(S) the closure is a
    smaller system."""
    F = rv_systems[name]
    fcr = fcr_objects(F)
    assert F.S in fcr
    gens = _automizer_seeds(F, fcr)
    assert len(gens) == seeds
    assert equal_hom_tables(generated_fusion(F.S, F.p, gens), F)
    without_s = _automizer_seeds(F, [P for P in fcr if P != F.S])
    assert len(without_s) < seeds
    assert not equal_hom_tables(generated_fusion(F.S, F.p, without_s), F)


def test_rv_axiom_audit(rv_systems):
    assert audit_axioms(rv_systems["rv1"]) == []
