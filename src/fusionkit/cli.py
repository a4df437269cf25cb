"""Command-line interface: one job per invocation, JSON report out.

Exit status is 0 when the job's verdict is true, 1 when a check verdict
is false, and 2 on any error (bad descriptor, group too large, morphism
outside the system, failed construction).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .alperin import alperin_decompose, verify_decomposition
from .classify import (
    classifier_rows,
    cr_objects,
    fcr_objects,
    is_saturated,
    out_F,
)
from .constructions import (
    main_theorem_witness,
    normalizer_subsystem,
    product_fusion,
    quotient_fusion,
)
from .descriptors import (
    DescriptorError,
    load_json,
    parse_fusion_generators,
    parse_group_spec,
    parse_subgroup_spec,
    serialize_subgroup,
)
from .fusion import generated_fusion, transporter_fusion
from .groups import FiniteGroup, sylow_p
from .named import cyclic_group, extraspecial_plus, semidirect_product, symmetric_group
from .report import Report, error_report
from .rv import OUT_ORDERS, RV_NAMES, build_rv, certify_rv
from .rv import FCR_PROFILES as RV_PROFILES


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise DescriptorError(f"cannot read {path}: {e}") from e


def _load_system(args, *, need_fusion: bool = True):
    """Group from --group, Sylow from --sylow, system from --fusion or
    the transporter construction."""
    if not getattr(args, "group", None):
        raise DescriptorError("--group FILE is required for this command")
    G = parse_group_spec(_read(args.group))
    p = getattr(args, "sylow", None)
    if p is None:
        if need_fusion:
            raise DescriptorError("--sylow P is required for this command")
        return G, None
    return G, _system(G, p, getattr(args, "fusion", None))


def _system(G: FiniteGroup, p: int, fusion_path):
    """Generated by the maps in `fusion_path`, else the transporter system."""
    S = sylow_p(G.full(), p)
    if fusion_path:
        gens = parse_fusion_generators(S, load_json(_read(fusion_path)))
        return generated_fusion(S, p, gens)
    return transporter_fusion(G, S, p)


# --------------------------------------------------------------------------
# command handlers

def _cmd_build(args, rep: Report):
    G, F = _load_system(args, need_fusion=False)
    rep.data["group"] = {
        "name": G.name or "perm", "degree": G.degree, "order": G.order,
    }
    if F is not None:
        rep.data["sylow_order"] = F.S.order
        rep.data["backend"] = F.backend
        rep.add_digest("system", F)


def _cmd_saturation(args, rep: Report):
    _, F = _load_system(args)
    sat = is_saturated(F)
    rep.set_verdict("saturated", sat.verdict)
    rep.rows = [
        {
            "representative": serialize_subgroup(row["representative"]),
            "order": row["representative"].order,
            "fully_automised": row["fully_automised"],
            "receptive": row["receptive"],
        }
        for row in sat.per_class
    ]
    if sat.counterexample is not None:
        rep.data["counterexample"] = serialize_subgroup(sat.counterexample)
    rep.add_digest("system", F)


def _cmd_classify(args, rep: Report):
    _, F = _load_system(args)
    rep.rows = classifier_rows(F)
    rep.add_digest("system", F)


def _cmd_fcr(args, rep: Report):
    _, F = _load_system(args)
    rep.data["fcr"] = [
        {"generators": serialize_subgroup(Q), "order": Q.order}
        for Q in fcr_objects(F)
    ]
    rep.add_digest("system", F)


def _cmd_decompose(args, rep: Report):
    _, F = _load_system(args)
    if not getattr(args, "morphism", None):
        raise DescriptorError("decompose needs --morphism FILE")
    entry = load_json(_read(args.morphism))
    if isinstance(entry, list):
        if len(entry) != 1:
            raise DescriptorError("decompose expects exactly one morphism")
        entry = entry[0]
    (phi,) = parse_fusion_generators(F.S, [entry])
    if not F.has_morphism(phi.domain, phi.images):
        raise DescriptorError("not an F-isomorphism")
    d = alperin_decompose(F, phi)
    check = verify_decomposition(F, d, phi)
    rep.set_verdict("recomposes", bool(check))
    amb = F.ambient
    rep.data["steps"] = len(d.chain)
    rep.data["chain"] = [
        {
            "object": serialize_subgroup(Q),
            "map": [
                [list(amb.elements[i]), list(amb.elements[j])]
                for i, j in zip(Q.sorted_ids, psi.images)
            ],
        }
        for _P, Q, psi in d.chain
    ]


def _cmd_product(args, rep: Report):
    _, F1 = _load_system(args)
    if not getattr(args, "group2", None) or getattr(args, "sylow2", None) is None:
        raise DescriptorError("product needs --group2 FILE and --sylow2 P")
    F2 = _system(parse_group_spec(_read(args.group2)), args.sylow2,
                 getattr(args, "fusion2", None))
    F = product_fusion(F1, F2)
    rep.data["factor_orders"] = [F1.S.order, F2.S.order]
    rep.data["product_order"] = F.S.order
    rep.add_digest("factor1", F1)
    rep.add_digest("factor2", F2)
    rep.add_digest("product", F)


def _cmd_quotient(args, rep: Report):
    _, F = _load_system(args)
    if not getattr(args, "kernel", None):
        raise DescriptorError("quotient needs --kernel FILE")
    T = parse_subgroup_spec(F.S, load_json(_read(args.kernel)))
    Fq, _theta = quotient_fusion(F, T)
    rep.data["kernel_order"] = T.order
    rep.data["quotient_order"] = Fq.S.order
    rep.add_digest("system", F)
    rep.add_digest("quotient", Fq)


def _cmd_normalizer(args, rep: Report):
    _, F = _load_system(args)
    if not getattr(args, "at", None):
        raise DescriptorError("normalizer needs --at FILE")
    Q = parse_subgroup_spec(F.S, load_json(_read(args.at)))
    k = getattr(args, "k", None) or "full"
    if k in ("full", "trivial"):
        K = k
    else:
        hs = parse_fusion_generators(F.S, load_json(_read(k)))
        for h in hs:
            if h.domain.ids != Q.ids or frozenset(h.images) != Q.ids:
                raise DescriptorError(
                    "--k entries must be automorphisms of the --at subgroup"
                )
        K = [h.images for h in hs]
    sub = normalizer_subsystem(F, Q, K)
    rep.data["at_order"] = Q.order
    rep.data["normalizer_order"] = sub.S.order
    rep.add_digest("system", F)
    rep.add_digest("normalizer", sub)


def _cmd_rv(args, rep: Report):
    name = getattr(args, "name", None)
    if name not in RV_NAMES:
        raise DescriptorError(f"--name must be one of {'|'.join(RV_NAMES)}")
    F = build_rv(name)
    rep.set_verdict("saturated", True)
    out = out_F(F, F.S)
    rep.set_verdict("out_order", out.order == OUT_ORDERS[name])
    rank2 = [Q for Q in cr_objects(F) if Q.order == F.p ** 2]
    rep.set_verdict("rank2_count", len(rank2) == 8)
    rep.data["out_order"] = out.order
    rep.data["rank2_centric_radical"] = len(rank2)
    rep.data["profile"] = sorted(
        [len(orb), t] for orb, t in F.rv.profile.items()
    )
    rep.data["expected_profile"] = sorted(list(e) for e in RV_PROFILES[name])
    if getattr(args, "certify", False):
        rep.data["certificate"] = certify_rv(F)
    rep.add_digest("system", F)


def _witness_pairs_p3():
    P3 = extraspecial_plus(3)
    x, y, z = P3.generator_ids()
    inv = P3.inverse_ids
    action = [[
        P3.elements[inv[x]], P3.elements[inv[y]], P3.elements[z],
    ]]
    PC2 = semidirect_product(P3, cyclic_group(2), action)
    S3 = symmetric_group(3)
    C3 = cyclic_group(3)

    def transporter(G: FiniteGroup, p: int):
        return transporter_fusion(G, sylow_p(G.full(), p), p)

    f1s = [
        ("inner(3^(1+2))", transporter(P3, 3)),
        ("3^(1+2):2", transporter(PC2, 3)),
    ]
    f2s = [
        ("inner(C3)", transporter(C3, 3)),
        ("S3", transporter(S3, 3)),
    ]
    return [(n1, F1, n2, F2) for n1, F1 in f1s for n2, F2 in f2s]


def _witness_pairs_p7():
    C7 = cyclic_group(7)
    g = C7.generator_ids()[0]
    action = [[C7.elements[C7.power_ids(g, 2)]]]
    frob = semidirect_product(C7, cyclic_group(3), action)
    F2 = transporter_fusion(frob, sylow_p(frob.full(), 7), 7)
    return [("rv3", build_rv("rv3"), "C7:C3", F2)]


def _cmd_witness(args, rep: Report):
    p = getattr(args, "p", None)
    if p == 3:
        combos = _witness_pairs_p3()
    elif p == 7:
        combos = _witness_pairs_p7()
    else:
        raise DescriptorError("--p must be 3 or 7")
    results = []
    for n1, F1, n2, F2 in combos:
        w = main_theorem_witness(F1, F2)
        rep.set_verdict(f"{n1} x {n2}", w.all_pass)
        results.append({"f1": n1, "f2": n2, "checks": w.as_dict()})
    rep.data["combos"] = results


_HANDLERS = {
    "build": _cmd_build,
    "saturation": _cmd_saturation,
    "classify": _cmd_classify,
    "fcr": _cmd_fcr,
    "decompose": _cmd_decompose,
    "product": _cmd_product,
    "quotient": _cmd_quotient,
    "normalizer": _cmd_normalizer,
    "rv": _cmd_rv,
    "witness": _cmd_witness,
}


def _add_common(sp):
    sp.add_argument("--group", metavar="FILE", help="group descriptor JSON")
    sp.add_argument("--sylow", metavar="P", type=int, help="Sylow prime")
    sp.add_argument("--fusion", metavar="FILE",
                    help="fusion generator JSON (default: transporter)")
    sp.add_argument("--out", metavar="FILE", help="report path (default stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process. Its actions, formatters and
    subparsers refer to one another, so a parser built per job would be
    left to the cyclic garbage collector after each in-process job."""
    ap = argparse.ArgumentParser(
        prog="fusionkit",
        description="saturated fusion system toolkit over finite p-groups",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("build", help="construct a group/system"))
    _add_common(sub.add_parser("saturation", help="saturation verdict"))
    _add_common(sub.add_parser("classify", help="per-object predicate rows"))
    _add_common(sub.add_parser("fcr", help="fully normalised centric radical objects"))

    sp = sub.add_parser("decompose", help="chain a morphism through fcr automorphisms")
    _add_common(sp)
    sp.add_argument("--morphism", metavar="FILE",
                    help="one {'domain_gens':[...],'images':[...]} map")

    sp = sub.add_parser("product", help="direct product of two systems")
    _add_common(sp)
    sp.add_argument("--group2", metavar="FILE")
    sp.add_argument("--sylow2", metavar="P", type=int)
    sp.add_argument("--fusion2", metavar="FILE")

    sp = sub.add_parser("quotient", help="quotient by a strongly closed subgroup")
    _add_common(sp)
    sp.add_argument("--kernel", metavar="FILE",
                    help="subgroup spec (generator permutations)")

    sp = sub.add_parser("normalizer", help="K-normalizer subsystem")
    _add_common(sp)
    sp.add_argument("--at", metavar="FILE",
                    help="subgroup spec (generator permutations)")
    sp.add_argument("--k", metavar="K", default="full",
                    help="'full', 'trivial', or an automorphism list FILE")

    sp = sub.add_parser("rv", help="build one of the order-343 systems")
    sp.add_argument("--name", choices=RV_NAMES, required=True)
    sp.add_argument("--certify", action="store_true",
                    help="run the full invariant battery (slow)")
    sp.add_argument("--out", metavar="FILE")

    sp = sub.add_parser("witness", help="product/quotient witness checks")
    sp.add_argument("--p", type=int, required=True, help="3, or 7 (slow)")
    sp.add_argument("--out", metavar="FILE")

    return ap


def run_job(args) -> tuple[Report, int]:
    options = {
        k: v for k, v in vars(args).items()
        if k not in ("command", "out") and v not in (None, False)
    }
    rep = Report(args.command, options)
    _HANDLERS[args.command](args, rep)
    rep.finish()
    return rep, (0 if rep.verdict else 1)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rep, code = run_job(args)
    except (ValueError, LookupError, RuntimeError) as e:
        text = json.dumps(error_report(args.command, str(e)),
                          indent=2, sort_keys=True) + "\n"
        out = getattr(args, "out", None)
        if out in (None, "-"):
            sys.stderr.write(text)
        else:
            with open(out, "w") as fh:
                fh.write(text)
        return 2
    rep.write(getattr(args, "out", None))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
