"""Constructions that produce new fusion systems from old ones.

Products over S1 x S2, quotients by strongly closed subgroups, normalizer
and centralizer subsystems (and normality, read from the normalizer
subsystem), a fusion-system isomorphism search, and the structural witness
report combining all of them.

A quotient reads its hom sets off the parent's. Modulo a factor embedding
T = 1 x S2 of a product, a1 x a2 pushes forward to a1 alone (the factor
rule, Aschbacher, Kessar & Oliver 2011, I.6), so F/T reads Hom(P/T, S/T)
off the other factor's hom set at the projection of the preimage of P/T,
and walks no vector of the product. A product records this read for each
factor embedding; the centralizer C_F(T) of a factor embedding inherits
the read for T itself when C_S(T) = S, since C_F(T) keeps the maps
a1 x 1, which push forward to the same a1. Every other kernel and system
takes the generic rule, which pushes forward the parent's morphisms out
of the preimage.
"""

from __future__ import annotations

from operator import add

from .classify import is_saturated, is_strongly_closed
from .fusion import FusionSystem, automorphism_closure
from .groups import (
    GroupHom,
    Subgroup,
    as_hom,
    centralizer,
    is_abelian,
    isomorphisms,
    product_ids,
    quotient_group,
)
from .named import direct_product

MAX_ISO_SEARCH_ORDER = 4096


def product_fusion(F1: FusionSystem, F2: FusionSystem) -> FusionSystem:
    """F1 x F2 over S1 x S2, by the factor rule of Aschbacher, Kessar &
    Oliver, Fusion Systems in Algebra and Topology (2011), I.6: Hom(Q, S)
    is the set of restrictions to Q of a1 x a2, with a_i in
    Hom_{F_i}(pi_i Q, S_i). The ambient is direct_product(G1, G2), whose
    element i*|G2| + j is (g_i, h_j), so an id projects by divmod. Each
    object's vectors are a1 x a2 on its generators, from the factors'
    vectors when it is first asked for; `factor_embeddings` holds S1 x 1
    and 1 x S2. `factor_quotients` maps each factor embedding T to the
    other factor and the projection of an id of S onto it, from which
    `quotient_fusion` reads F/T."""
    if F1.p != F2.p:
        raise ValueError(f"prime mismatch: {F1.p} != {F2.p}")
    amb = direct_product(F1.ambient, F2.ambient)
    n2 = F2.ambient.order

    def hom(_F, Q: Subgroup):
        pairs = [divmod(x, n2) for x in Q.generator_ids()]
        Q1 = F1.subgroup(x // n2 for x in Q.ids)
        Q2 = F2.subgroup(x % n2 for x in Q.ids)
        # each factor's maps at the projections of Q's generators
        left = [[a * n2 for a in im]
                for im in F1.images_at(Q1, [i for i, _ in pairs])]
        right = F2.images_at(Q2, [j for _, j in pairs])
        return tuple(dict.fromkeys(
            tuple(map(add, a, b)) for a in left for b in right
        ))

    S12 = Subgroup(amb, frozenset(
        i * n2 + j for i in F1.S.ids for j in F2.S.ids
    ))
    F = FusionSystem(S12, F1.p, hom, "derived")
    e1, e2 = F1.ambient.identity_id, F2.ambient.identity_id
    F.factor_embeddings = left, right = (
        F.subgroup(i * n2 + e2 for i in F1.S.ids),
        F.subgroup(e1 * n2 + j for j in F2.S.ids),
    )
    F.factor_quotients = {left: (F2, lambda x: x % n2),
                          right: (F1, lambda x: x // n2)}
    return F


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
        pos, images, theta = dom.positions, alpha.images, self.theta
        if frozenset(images[pos[t]] for t in self.T.ids) != self.T.ids:
            raise ValueError("morphism does not stabilize the kernel")
        lift: dict = {}
        for x in dom.sorted_ids:
            lift.setdefault(theta[x], x)
        images = [theta[images[pos[lift[c]]]] for c in Pq.sorted_ids]
        return GroupHom(Pq, self.Fq.subgroup(frozenset(images)), images)


def quotient_fusion(F: FusionSystem, T: Subgroup):
    """(F/T, QuotientMap). T must be strongly closed. Hom(P/T, S/T) is the
    set of push-forwards of the kernel-stabilizing morphisms out of the
    preimage P, computed when P/T is first asked for. A morphism phi is
    injective, so it maps T onto T when it maps T's generators into T, and
    then theta(x) -> theta(phi(x)) is well defined: its vector is theta of
    phi at one lift of each generator of P/T.

    When T is a key of F's `factor_quotients` (a product, or the
    centralizer of a factor embedding over all of S), P = P1 x T and each
    push-forward is the other factor's a1, so Hom(P/T, S/T) is that
    factor's Hom(P1, S1) carried to S/T, in its order."""
    if not is_strongly_closed(F, T):
        raise ValueError("kernel is not strongly closed")
    Sq_group, theta = quotient_group(F.S, T)
    Sq = Sq_group.full()
    read = getattr(F, "factor_quotients", {}).get(T)
    hom = (_pushed_rule(F, T, theta) if read is None
           else _factor_quotient_rule(theta, *read))
    Fq = FusionSystem(Sq, F.p, hom, "derived")
    return Fq, QuotientMap(F, Fq, T, theta)


def _factor_quotient_rule(theta: dict, other: FusionSystem, proj):
    """Hom(P/T, S/T) read off `other` at P1 = proj(P): `up` carries S/T
    onto the other factor, and back again `down`."""
    up = {c: proj(x) for x, c in theta.items()}
    down = {a: c for c, a in up.items()}

    def hom(_F, Pq: Subgroup):
        P1 = other.subgroup(up[c] for c in Pq.ids)
        at = [up[c] for c in Pq.generator_ids()]
        return tuple(tuple([down[a] for a in im])
                     for im in other.images_at(P1, at))
    return hom


def _pushed_rule(F: FusionSystem, T: Subgroup, theta: dict):
    """Hom(P/T, S/T) as the push-forwards of Hom_F(P, S)."""
    preimage: dict = {}
    for i in F.S.sorted_ids:
        preimage.setdefault(theta[i], []).append(i)
    tgens = T.generator_ids()

    def hom(_F, Pq: Subgroup):
        Phat = F.subgroup(x for c in Pq.ids for x in preimage[c])
        # phi at T's generators, then at one lift of each generator of P/T
        at = tgens + [preimage[c][0] for c in Pq.generator_ids()]
        tids, k = T.ids, len(tgens)
        pushed = {}
        for im in F.images_at(Phat, at):
            if tids.issuperset(im[:k]):
                pushed[tuple([theta[y] for y in im[k:]])] = None
        return tuple(pushed)
    return hom


def _coerce_aut_set(Q: Subgroup, K):
    """K, other than "full", as the images of Q.generator_ids() under its
    members; validates that each is an automorphism of Q and that K is a
    group: its `automorphism_closure` has |K| elements."""
    if K == "trivial":
        return frozenset([tuple(Q.generator_ids())])
    tables = set()
    for k in K:
        if isinstance(k, GroupHom):
            h = as_hom(k, Q)
            if h.domain.ids != Q.ids:
                raise ValueError("automorphism domain is not Q")
            k = h.images
        tables.add(tuple(k))
    for t in tables:
        if (frozenset(t) != Q.ids or len(t) != Q.order
                or not GroupHom(Q, Q, t).is_homomorphism()):
            raise ValueError("K contains a non-automorphism of Q")
    closure = automorphism_closure(Q, tables)
    if len(closure) != len(tables):
        raise ValueError("K not closed under composition")
    return frozenset(closure)


def normalizer_subsystem(F: FusionSystem, Q: Subgroup,
                         K="full") -> FusionSystem:
    """N_F^K(Q): the system over N_S^K(Q) of morphisms extending to maps
    that stabilize Q with restriction in K, read for each object P from
    Hom_F(PQ, S) when P is first asked for. N_S^K(Q) is the union of the
    cosets of C_S(Q) in N_S(Q) whose conjugation lies in K; automorphisms
    of Q are compared by their images of Q's generators. K = Aut(Q)
    ("full" or None) is not listed: a restriction lies in it when it maps
    Q's generators into Q, and N_S^K(Q) = N_S(Q)."""
    qgens = Q.generator_ids()
    if K == "full" or K is None:
        in_k, Sp = Q.ids.issuperset, F.normalizer_of(Q)
    else:
        in_k = _coerce_aut_set(Q, K).__contains__
        Sp = F.subgroup(frozenset().union(*(
            coset for _r, coset, vec in F.centralizer_cosets(Q) if in_k(vec)
        )))
        if not Sp.is_subgroup_closed():
            raise AssertionError("N_S^K(Q) did not close")
    s_ids = Sp.ids

    def hom(_F, P: Subgroup):
        PQ = F.subgroup(product_ids(P, Q))
        # psi at Q's generators (its restriction to Q, which must lie in
        # K), then at P's (its restriction to P)
        k = len(qgens)
        out = {}
        for im in F.images_at(PQ, qgens + P.generator_ids()):
            if in_k(im[:k]):
                rest = im[k:]
                if s_ids.issuperset(rest):
                    out[rest] = None
        return tuple(out)

    return FusionSystem(Sp, F.p, hom, "derived")


def is_normal_in_F(F: FusionSystem, P: Subgroup) -> bool:
    """P is normal in F when F = N_F(P) (Aschbacher, Kessar & Oliver,
    I.4): N_S(P) = S, and at every object N_F(P) has every morphism of F."""
    if F.normalizer_of(P) != F.S:
        return False
    N = normalizer_subsystem(F, P)
    return all(N.vector_set(Q).issuperset(F.hom_vectors(Q))
               for Q in F.objects())


def centralizer_subsystem(F: FusionSystem, Q: Subgroup) -> FusionSystem:
    """C_F(Q) = N_F^{1}(Q), over C_S(Q). When Q is a factor embedding of
    a product F and C_S(Q) = S, C_F(Q) keeps the maps a1 x 1 of F, whose
    push-forwards modulo Q are those of F, so it inherits F's read of the
    quotient by Q (see `quotient_fusion`)."""
    sub = normalizer_subsystem(F, Q, "trivial")
    C = centralizer(F.S, Q)
    if sub.S.ids != C.ids:
        raise AssertionError("N_S^1(Q) differs from C_S(Q)")
    read = getattr(F, "factor_quotients", {}).get(Q)
    if read is not None and C == F.S:
        sub.factor_quotients = {Q: read}
    return sub


def _hom_fingerprint(F: FusionSystem):
    return sorted(
        (Q.order, F.hom_count(Q)) for Q in F.objects()
    )


def fusion_isomorphic(F: FusionSystem, Fp: FusionSystem):
    """A group isomorphism S -> S' carrying hom sets onto hom sets, or
    None. Exhaustive over group isomorphisms, cheapest domains first. The
    image of phi on Q is sigma phi sigma^-1 on sigma(Q), whose vector is
    sigma of phi at sigma^-1 of sigma(Q)'s generators."""
    if F.S.order != Fp.S.order or F.p != Fp.p:
        return None
    if F.S.order > MAX_ISO_SEARCH_ORDER:
        raise ValueError("size bound exceeded for isomorphism search")
    if _hom_fingerprint(F) != _hom_fingerprint(Fp):
        return None
    for iso in isomorphisms(F.S, Fp.S):
        sigma = dict(zip(iso.domain.sorted_ids, iso.images))
        back = {y: x for x, y in sigma.items()}
        for Q in F.objects():
            Qp = Fp.subgroup(frozenset(sigma[i] for i in Q.ids))
            want = Fp.vector_set(Qp)
            vectors = F.hom_vectors(Q)
            if len(want) != len(vectors):
                break
            at = [back[y] for y in Qp.generator_ids()]
            if any(tuple([sigma[y] for y in im]) not in want
                   for im in F.images_at(Q, at, vectors)):
                break
        else:
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


def main_theorem_witness(F1: FusionSystem, F2: FusionSystem) -> WitnessReport:
    """Build F = F1 x F2 over (p^(1+2)) x A and certify: the abelian
    factor A is strongly closed, F/A is isomorphic to F1, and the
    quotient of C_F(A) by A is isomorphic to F1. Both factors must be
    saturated. A is a factor embedding and, being abelian, is centralized
    by all of S, so both quotients read F1's hom sets rather than the
    product's, and F and C_F(A) build hom sets only inside A, for the
    strong-closure checks."""
    p = F1.p
    _check_extraspecial(F1.S, p)
    if not is_abelian(F2.S):
        raise ValueError("second factor is not abelian")
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
