"""Acceptance gate: the seven headline checks, one pass/fail line each.

Each test prints `CRITERION n: PASS|FAIL - detail (measured vs budget)`
and then asserts, so a verbose run shows one line per criterion and the
printed detail carries the measured wall-clock time.  Budgets are
enforced on honest fresh measurements; where a shared fixture was built
earlier in the session its recorded build time is added back in.
"""

import json
import time

import oracle_s4
from conftest import BUILD_SECONDS, extraspecial27_c2, sl33_group
from fusionkit import (
    alternating_group,
    alperin_decompose,
    aut_F,
    certify_rv,
    cyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian_group,
    equal_hom_tables,
    fcr_objects,
    fusion_isomorphic,
    generated_fusion,
    hom_from_images,
    inner_fusion,
    is_radical,
    is_saturated,
    main_theorem_witness,
    product_fusion,
    quotient_fusion,
    regenerate_from_fcr,
    subgroup_generated,
    sylow_p,
    symmetric_group,
    transporter_fusion,
    verify_decomposition,
    GroupHom,
)
from fusionkit.cli import main as cli_main, _witness_pairs_p3
from fusionkit.report import strip_timing


def _finish(n: int, ok: bool, detail: str, dt: float, budget: float):
    within = dt <= budget
    verdict = "PASS" if (ok and within) else "FAIL"
    print(f"CRITERION {n}: {verdict} - {detail} ({dt:.1f}s of {budget:.0f}s)")
    assert ok, detail
    assert within, f"budget exceeded: {dt:.1f}s > {budget:.0f}s"


def _transporter(G, p):
    return transporter_fusion(G, sylow_p(G.full(), p), p)


def _fresh_suite():
    systems = [
        ("s3_c3", _transporter(symmetric_group(3), 3)),
        ("s4_d8", _transporter(symmetric_group(4), 2)),
        ("a4_v4", _transporter(alternating_group(4), 2)),
        ("sl33", _transporter(sl33_group(), 3)),
        # over a direct product whose claimed Sylow is not a p-group,
        # both single-prime readings are checked instead
        ("a4s3_p2", _transporter(
            direct_product(alternating_group(4), symmetric_group(3)), 2)),
        ("a4s3_p3", _transporter(
            direct_product(alternating_group(4), symmetric_group(3)), 3)),
        ("es27_c2", _transporter(extraspecial27_c2(), 3)),
    ]
    return systems


def _swap_system():
    V = elementary_abelian_group(2, 2)
    a, b = V.generator_ids()
    dom = subgroup_generated(V, [a])
    h = hom_from_images(dom, V, [a], [b])
    return generated_fusion(V.full(), 2, [h])


def test_criterion_1_saturation_verdicts():
    t0 = time.perf_counter()
    wrong = []
    for name, F in _fresh_suite():
        if not is_saturated(F).verdict:
            wrong.append(name)
    swap = _swap_system()
    if is_saturated(swap).verdict:
        wrong.append("swap_v4 (expected unsaturated)")
    dt = time.perf_counter() - t0
    _finish(1, not wrong,
            "saturation verdicts on 7 systems plus the unsaturated swap"
            + (f"; wrong: {wrong}" if wrong else ""), dt, 30.0)


def test_criterion_2_classifier_against_oracle(f_s4):
    t0 = time.perf_counter()
    F = f_s4
    G = F.ambient
    s_perms = frozenset(G.elements[i] for i in F.S.ids)
    want_fcr = oracle_s4.fcr_set(s_perms)
    got_fcr = {frozenset(G.elements[i] for i in Q.ids)
               for Q in fcr_objects(F)}
    ok = got_fcr == want_fcr
    V1 = next(Q for Q in fcr_objects(F) if Q.order == 4)
    ok = ok and len(aut_F(F, V1)) == 6
    C4 = next(Q for Q in F.objects()
              if Q.order == 4
              and any(G.element_order(i) == 4 for i in Q.ids))
    ok = ok and not is_radical(F, C4)
    info = oracle_s4.classify(s_perms)
    for key, row in info.items():
        Q = F.subgroup(frozenset(G.index[p] for p in key))
        ok = ok and len(aut_F(F, Q)) == row["aut_f_order"]
        ok = ok and is_radical(F, Q) == row["radical"]
    dt = time.perf_counter() - t0
    _finish(2, ok, "fcr set, automizer orders and radical flags match "
            "the brute-force oracle", dt, 120.0)


def test_criterion_3_decomposition(saturated_suite):
    t0 = time.perf_counter()
    bad = []
    for name, F in saturated_suite:
        fcr = {Q.ids for Q in fcr_objects(F)}
        n_maps = 0
        for Q in F.objects():
            for tab in F.hom_to_S_tables(Q):
                phi = GroupHom(Q, F.S, tab)
                d = alperin_decompose(F, phi)
                chk = verify_decomposition(F, d, phi)
                if not chk or not all(
                    R.ids in fcr for _P, R, _psi in d.chain
                ):
                    bad.append((name, Q.order))
                n_maps += 1
        R = regenerate_from_fcr(F)
        if not equal_hom_tables(F, R):
            bad.append((name, "regeneration"))
    dt = time.perf_counter() - t0 + sum(
        BUILD_SECONDS.get(k, 0.0)
        for k in ("s3_c3", "s4_d8", "a4_v4", "sl33",
                  "a4s3_p2", "a4s3_p3", "es27_c2")
    )
    _finish(3, not bad,
            "every morphism in 7 systems decomposes through fcr objects "
            "and the fcr automorphisms regenerate each system"
            + (f"; failures: {bad[:3]}" if bad else ""), dt, 120.0)


def test_criterion_4_products_and_quotients():
    t0 = time.perf_counter()
    pairs = [
        ("d8xc2", inner_fusion(dihedral_group(8), 2),
         inner_fusion(cyclic_group(2), 2)),
        ("a4xs3", _transporter(alternating_group(4), 2),
         _transporter(symmetric_group(3), 2)),
        ("s3xc3", _transporter(symmetric_group(3), 3),
         inner_fusion(cyclic_group(3), 3)),
    ]
    bad = []
    for name, F1, F2 in pairs:
        F = product_fusion(F1, F2)
        G = direct_product(F1.ambient, F2.ambient)
        from fusionkit import Subgroup
        Ft = transporter_fusion(G, Subgroup(G, F.S.ids), F.p)
        if not equal_hom_tables(F, Ft):
            bad.append((name, "product != transporter"))
        L, R = F.factor_embeddings
        FqR, _ = quotient_fusion(F, F.subgroup(R.ids))
        if fusion_isomorphic(FqR, F1) is None:
            bad.append((name, "quotient by right factor"))
        FqL, _ = quotient_fusion(F, F.subgroup(L.ids))
        if fusion_isomorphic(FqL, F2) is None:
            bad.append((name, "quotient by left factor"))
    dt = time.perf_counter() - t0
    _finish(4, not bad,
            "three products match the transporter systems of the product "
            "groups and each quotient by one factor recovers the other"
            + (f"; failures: {bad}" if bad else ""), dt, 120.0)


def test_criterion_5_structure_witnesses():
    t0 = time.perf_counter()
    bad = []
    for n1, F1, n2, F2 in _witness_pairs_p3():
        rep = main_theorem_witness(F1, F2)
        if not rep.all_pass:
            bad.append((n1, n2, rep.as_dict()))
    dt = time.perf_counter() - t0
    _finish(5, not bad,
            "all four p=3 factor combinations pass the strongly-closed, "
            "quotient and centralizer checks"
            + (f"; failures: {bad}" if bad else ""), dt, 120.0)


RV_TABLE = {
    "rv1": {"out_order": 72, "out_shape": "6^2:2",
            "rank2_counts": {"672": 6, "2016": 2},
            "rank2_class_sizes": [2, 6]},
    "rv2": {"out_order": 48, "out_shape": "D16 x 3",
            "rank2_counts": {"672": 8, "2016": 0},
            "rank2_class_sizes": [4, 4]},
    "rv3": {"out_order": 96, "out_shape": "SD32 x 3",
            "rank2_counts": {"672": 8, "2016": 0},
            "rank2_class_sizes": [8]},
}


def test_criterion_6_exotic_systems(request):
    t0 = time.perf_counter()
    systems = request.getfixturevalue("rv_systems")
    certs = {name: certify_rv(F) for name, F in systems.items()}
    bad = []
    for name, want in RV_TABLE.items():
        got = certs[name]
        for key, val in want.items():
            if got[key] != val:
                bad.append((name, key, got[key], val))
        if got["strongly_closed_orders"] != [1, 343]:
            bad.append((name, "strongly_closed", got["strongly_closed_orders"]))
        if not got["saturated"]:
            bad.append((name, "saturated", False))
    # build seconds are added even when the build ran inside this window,
    # so the bound is conservative
    dt = time.perf_counter() - t0 + sum(
        BUILD_SECONDS.get(k, 0.0) for k in ("rv1", "rv2", "rv3")
    )
    _finish(6, not bad,
            "all three systems certify: outer group orders and shapes, "
            "rank-2 automizer counts and class sizes, strong closure"
            + (f"; failures: {bad}" if bad else ""), dt, 600.0)


def test_criterion_7_report_determinism(tmp_path, capsys):
    t0 = time.perf_counter()

    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    s4 = write("s4.json", {"type": "named", "name": "symmetric", "n": 4})
    s3 = write("s3.json", {"type": "named", "name": "symmetric", "n": 3})
    d8 = write("d8.json", {"type": "named", "name": "dihedral", "order": 8})
    c2 = write("c2.json", {"type": "named", "name": "cyclic", "n": 2})
    v1 = write("v1.json", [[1, 0, 3, 2], [2, 3, 0, 1]])
    jobs = [
        ["build", "--group", s4, "--sylow", "2"],
        ["saturation", "--group", s4, "--sylow", "2"],
        ["classify", "--group", s3, "--sylow", "3"],
        ["fcr", "--group", s4, "--sylow", "2"],
        ["quotient", "--group", s4, "--sylow", "2", "--kernel", v1],
        ["normalizer", "--group", s4, "--sylow", "2", "--at", v1],
        ["product", "--group", d8, "--sylow", "2",
         "--group2", c2, "--sylow2", "2"],
        ["witness", "--p", "3"],
    ]
    bad = []
    for argv in jobs:
        outs = []
        for _ in range(2):
            code = cli_main(argv)
            captured = capsys.readouterr()
            if code != 0:
                bad.append((argv[0], f"exit {code}"))
            outs.append(strip_timing(captured.out))
        if outs[0] != outs[1]:
            bad.append((argv[0], "nondeterministic"))
    dt = time.perf_counter() - t0
    _finish(7, not bad,
            "eight command pipelines produce byte-identical reports "
            "modulo the timing block"
            + (f"; failures: {bad}" if bad else ""), dt, 120.0)
