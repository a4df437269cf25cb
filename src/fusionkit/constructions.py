"""Constructions that produce new fusion systems from old ones.

Products over S1 x S2, quotients by strongly closed subgroups, normalizer
and centralizer subsystems, a fusion-system isomorphism search, and the
structural witness report combining all of them.
"""

from __future__ import annotations

from . import perms
from .classify import is_saturated, is_strongly_closed
from .fusion import DerivedFusion, FusionSystem, GeneratedFusion
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    all_subgroups,
    as_hom,
    automorphisms,
    centralizer,
    is_abelian,
    isomorphisms,
    normalizer,
    product_ids,
    quotient_group,
    subgroup_generated,
)
from .named import direct_product

MAX_ISO_SEARCH_ORDER = 4096


def product_fusion(F1: FusionSystem, F2: FusionSystem) -> FusionSystem:
    """The fusion system over S1 x S2 generated by coordinate pairs of
    morphisms; seeded with identity-padded generators of each factor,
    whose closure equals the all-pairs seeding."""
    if F1.p != F2.p:
        raise ValueError(f"prime mismatch: {F1.p} != {F2.p}")
    amb1, amb2 = F1.ambient, F2.ambient
    amb = direct_product(amb1, amb2)
    pair_cache: dict = {}

    def pair_id(i: int, j: int) -> int:
        key = (i, j)
        out = pair_cache.get(key)
        if out is None:
            out = amb.index[perms.direct_sum(amb1.elements[i],
                                             amb2.elements[j])]
            pair_cache[key] = out
        return out

    s_ids = frozenset(
        pair_id(i, j) for i in F1.S.ids for j in F2.S.ids
    )
    S12 = Subgroup(amb, s_ids)
    seeds = []
    for m in F1.generating_morphisms():
        table = {}
        mmap = dict(zip(m.domain.sorted_ids, m.images))
        for x in m.domain.ids:
            for j in F2.S.ids:
                table[pair_id(x, j)] = pair_id(mmap[x], j)
        D = Subgroup(amb, frozenset(table))
        seeds.append((D, tuple(table[q] for q in D.sorted_ids)))
    for m in F2.generating_morphisms():
        table = {}
        mmap = dict(zip(m.domain.sorted_ids, m.images))
        for i in F1.S.ids:
            for y in m.domain.ids:
                table[pair_id(i, y)] = pair_id(i, mmap[y])
        D = Subgroup(amb, frozenset(table))
        seeds.append((D, tuple(table[q] for q in D.sorted_ids)))
    F = GeneratedFusion(S12, F1.p, seeds,
                        descriptor={"kind": "product",
                                    "factors": (F1.descriptor, F2.descriptor)})
    F.factor_embeddings = _factor_embeddings(F1, F2, amb, pair_id)
    return F


def _factor_embeddings(F1, F2, amb, pair_id):
    """Subgroups S1 x 1 and 1 x S2 inside the product ambient."""
    e1 = F1.ambient.identity_id
    e2 = F2.ambient.identity_id
    left = Subgroup(amb, frozenset(pair_id(i, e2) for i in F1.S.ids))
    right = Subgroup(amb, frozenset(pair_id(e1, j) for j in F2.S.ids))
    return left, right


class QuotientMap:
    """The data of S -> S+ = S/T: element map theta, the induced bijection
    on subgroups above T, and the morphism push-forward."""

    def __init__(self, F: FusionSystem, Fq: FusionSystem, T: Subgroup,
                 theta: dict):
        self.F = F
        self.Fq = Fq
        self.T = T
        self.theta = theta

    def object_map(self, P: Subgroup) -> Subgroup:
        if not self.T.ids <= P.ids:
            raise ValueError("subgroup does not contain the kernel")
        return self.Fq.subgroup(frozenset(self.theta[i] for i in P.ids))

    def morphism_map(self, alpha: GroupHom) -> GroupHom:
        """alpha+ for alpha with domain containing T and alpha(T) = T."""
        dom = alpha.domain
        if not self.T.ids <= dom.ids:
            raise ValueError("domain does not contain the kernel")
        Pq = self.object_map(dom)
        images = _push_forward(self.theta, self.T.ids, dom.sorted_ids,
                               alpha.images, Pq.sorted_ids)
        if images is None:
            raise ValueError("morphism does not stabilize the kernel")
        return GroupHom(Pq, self.Fq.subgroup(frozenset(images)), images)


def _push_forward(theta: dict, kernel: frozenset, dom_sorted, table,
                  target_sorted):
    """The table over `target_sorted` (the quotient ids of the domain) of
    the map theta(x) -> theta(phi(x)) induced by phi, given by `table` on
    `dom_sorted`; None when phi does not map the kernel onto itself."""
    d = dict(zip(dom_sorted, table))
    if frozenset(d[x] for x in kernel) != kernel:
        return None
    vals: dict = {}
    for x, y in d.items():
        c, v = theta[x], theta[y]
        if vals.setdefault(c, v) != v:
            raise AssertionError("push-forward is not well defined")
    return tuple(vals[c] for c in target_sorted)


def quotient_fusion(F: FusionSystem, T: Subgroup):
    """(F/T, QuotientMap). T must be strongly closed; hom sets are the
    push-forwards of the kernel-stabilizing morphisms on preimages."""
    T = F.subgroup(T.ids)
    if not is_strongly_closed(F, T):
        raise ValueError("kernel is not strongly closed")
    Sq_group, theta = quotient_group(F.S, T)
    Sq = Sq_group.full()
    preimage: dict = {}
    for i in F.S.sorted_ids:
        preimage.setdefault(theta[i], []).append(i)
    tables: dict = {}
    for Pq in all_subgroups(Sq):
        pre = frozenset(
            x for c in Pq.ids for x in preimage[c]
        )
        Phat = F.subgroup(pre)
        pushed = {
            _push_forward(theta, T.ids, Phat.sorted_ids, t, Pq.sorted_ids)
            for t in F.hom_to_S_tables(Phat)
        }
        pushed.discard(None)
        tables[Pq.ids] = tuple(sorted(pushed))
    Fq = DerivedFusion(Sq, F.p, tables,
                       descriptor={"kind": "quotient",
                                   "kernel_order": T.order,
                                   "parent": F.descriptor})
    return Fq, QuotientMap(F, Fq, T, theta)


def _coerce_aut_set(F: FusionSystem, Q: Subgroup, K):
    """K as a set of automorphism tables over Q.sorted_ids; validates
    closure under composition (with identity, a finite group)."""
    qsorted = Q.sorted_ids
    if K == "full" or K is None:
        return {a.images for a in automorphisms(Q)}
    if K == "trivial":
        return {qsorted}
    tables = set()
    for k in K:
        if isinstance(k, GroupHom):
            h = as_hom(k, Q)
            if h.domain.ids != Q.ids:
                raise ValueError("automorphism domain is not Q")
            k = h.images
        tables.add(tuple(k))
    for t in tables:
        if frozenset(t) != Q.ids:
            raise ValueError("K contains a non-automorphism of Q")
    if qsorted not in tables:
        raise ValueError("K not closed under composition")
    pos = Q.positions
    for a in tables:
        for b in tables:
            comp = tuple(b[pos[y]] for y in a)
            if comp not in tables:
                raise ValueError("K not closed under composition")
    return tables


def normalizer_subsystem(F: FusionSystem, Q: Subgroup,
                         K="full") -> FusionSystem:
    """N_F^K(Q): the system over N_S^K(Q) of morphisms extending to maps
    that stabilize Q with restriction in K."""
    amb = F.ambient
    Q = F.subgroup(Q.ids)
    K_tables = _coerce_aut_set(F, Q, K)
    qsorted = Q.sorted_ids
    s_ids = {
        g for g in normalizer(F.S, Q).ids
        if amb.conj_row(qsorted, g) in K_tables
    }
    Sp = F.subgroup(frozenset(s_ids))
    assert Sp.is_subgroup_closed(), "N_S^K(Q) did not close"
    tables: dict = {}
    for P in all_subgroups(Sp):
        PQ = F.subgroup(product_ids(P, Q))
        qpos = [PQ.positions[x] for x in qsorted]
        ppos = [PQ.positions[x] for x in P.sorted_ids]
        out = set()
        for t in F.hom_to_S_tables(PQ):
            if tuple(t[k] for k in qpos) not in K_tables:
                continue
            rest = tuple(t[k] for k in ppos)
            if set(rest) <= s_ids:
                out.add(rest)
        tables[P.ids] = tuple(sorted(out))
    return DerivedFusion(Sp, F.p, tables,
                         descriptor={"kind": "normalizer",
                                     "at_order": Q.order,
                                     "k_order": len(K_tables),
                                     "parent": F.descriptor})


def centralizer_subsystem(F: FusionSystem, Q: Subgroup) -> FusionSystem:
    """C_F(Q) = N_F^{1}(Q), over C_S(Q)."""
    sub = normalizer_subsystem(F, Q, "trivial")
    C = centralizer(F.S, F.subgroup(Q.ids))
    assert sub.S.ids == C.ids, "N_S^1(Q) differs from C_S(Q)"
    return sub


def _hom_fingerprint(F: FusionSystem):
    return sorted(
        (Q.order, len(F.hom_to_S_tables(Q))) for Q in F.objects()
    )


def fusion_isomorphic(F: FusionSystem, Fp: FusionSystem):
    """A group isomorphism S -> S' carrying hom tables onto hom tables,
    or None. Exhaustive over group isomorphisms, cheapest domains first."""
    if F.S.order != Fp.S.order or F.p != Fp.p:
        return None
    if F.S.order > MAX_ISO_SEARCH_ORDER:
        raise ValueError("size bound exceeded for isomorphism search")
    if _hom_fingerprint(F) != _hom_fingerprint(Fp):
        return None
    objs = sorted(F.objects(), key=lambda Q: (Q.order, Q.sorted_ids))
    targets = {Q.ids: set(Fp.hom_to_S_tables(Q)) for Q in Fp.objects()}
    for iso in isomorphisms(F.S, Fp.S):
        sigma = dict(zip(iso.domain.sorted_ids, iso.images))
        ok = True
        for Q in objs:
            qimg = frozenset(sigma[i] for i in Q.ids)
            want = targets.get(qimg)
            if want is None or len(want) != len(F.hom_to_S_tables(Q)):
                ok = False
                break
            Qp = Fp.subgroup(qimg)
            back = sorted(range(Q.order),
                          key=lambda k: Qp.positions[sigma[Q.sorted_ids[k]]])
            pushed = {
                tuple(sigma[t[k]] for k in back)
                for t in F.hom_to_S_tables(Q)
            }
            if pushed != want:
                ok = False
                break
        if ok:
            return iso
    return None


class WitnessReport:
    """Outcome of the product/quotient/centralizer structure checks."""

    def __init__(self, p: int, strongly_closed: bool,
                 quotient_matches: bool, centralizer_matches: bool,
                 details: dict):
        self.p = p
        self.strongly_closed = strongly_closed
        self.quotient_matches = quotient_matches
        self.centralizer_matches = centralizer_matches
        self.details = details

    @property
    def all_pass(self) -> bool:
        return (self.strongly_closed and self.quotient_matches
                and self.centralizer_matches)

    def __bool__(self):
        return self.all_pass

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "strongly_closed": self.strongly_closed,
            "quotient_matches": self.quotient_matches,
            "centralizer_matches": self.centralizer_matches,
            "all_pass": self.all_pass,
            **self.details,
        }


def _check_extraspecial(S: Subgroup, p: int):
    amb = S.ambient
    if S.order != p ** 3:
        raise ValueError("first factor is not of order p^3")
    Z = centralizer(S, S)
    if Z.order != p:
        raise ValueError("first factor does not have center of order p")
    if any(amb.element_order(i) > p for i in S.ids):
        raise ValueError("first factor does not have exponent p")


def main_theorem_witness(F1: FusionSystem, F2: FusionSystem,
                         *, verify_inputs: bool = True) -> WitnessReport:
    """Build F = F1 x F2 over (p^(1+2)) x A and certify: the abelian
    factor A is strongly closed, F/A is isomorphic to F1, and the
    quotient of C_F(A) by A is isomorphic to F1."""
    p = F1.p
    _check_extraspecial(F1.S, p)
    if not is_abelian(F2.S):
        raise ValueError("second factor is not abelian")
    if verify_inputs:
        if not is_saturated(F1).verdict:
            raise ValueError("first factor system is not saturated")
        if not is_saturated(F2).verdict:
            raise ValueError("second factor system is not saturated")
    F = product_fusion(F1, F2)
    _left, A = F.factor_embeddings
    sc = is_strongly_closed(F, A)
    Fq, _qm = quotient_fusion(F, A)
    sigma_q = fusion_isomorphic(Fq, F1)
    C = centralizer_subsystem(F, A)
    Cq, _cm = quotient_fusion(C, A)
    sigma_c = fusion_isomorphic(Cq, F1)
    details = {
        "product_order": F.S.order,
        "abelian_factor_order": A.order,
        "quotient_order": Fq.S.order,
        "centralizer_order": C.S.order,
    }
    return WitnessReport(p, sc, sigma_q is not None, sigma_c is not None,
                         details)
