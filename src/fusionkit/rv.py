"""Three exotic-flavoured fusion systems over the extraspecial group 7^(1+2).

Each system is generated by a chosen subgroup of the outer automorphism
group (realized as 2x2 matrices over the 7-element field acting on S/Z)
together with prescribed automorphism groups on designated rank-2
subgroups. `build_rv` takes a system name, seeds, closes, and certifies
saturation; its RVDescriptor, `F.rv`, is the one record of the built
system. The profile pairs the line orbits of the outer group with the
classes of `FCR_PROFILES[name]`, both sorted by size. Classes of one size
carry one automizer order (a data test checks this), so the pairing is the
only assignment and there is one closure per system. `certify_rv`
recomputes every advertised invariant of the result; Aut_F(V) of each
orbit representative V must be `fusion.automorphism_closure` of the
rank-2 seeds, lifted afresh, keyed by the vectors that
`FusionSystem.aut_f_vectors` lists, with no image table of it built. Both
functions raise `AssertionError` explicitly, so their checks hold under
`python -O`.
"""

from __future__ import annotations

from .classify import (
    cr_objects,
    is_centric,
    is_radical,
    is_saturated,
    is_strongly_closed,
    out_F,
)
from .fusion import (
    FusionSystem,
    automorphism_closure,
    generated_fusion,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    group_isomorphic,
    hom_from_images,
    subgroup_generated,
)
from .named import (
    abelian_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    extraspecial_plus,
    semidirect_product,
)

P = 7

RV_NAMES = ("rv1", "rv2", "rv3")


# --------------------------------------------------------------------------
# matrix arithmetic over the 7-element field

def _mmul(a, b):
    return (
        ((a[0][0] * b[0][0] + a[0][1] * b[1][0]) % P,
         (a[0][0] * b[0][1] + a[0][1] * b[1][1]) % P),
        ((a[1][0] * b[0][0] + a[1][1] * b[1][0]) % P,
         (a[1][0] * b[0][1] + a[1][1] * b[1][1]) % P),
    )


def _mdet(a):
    return (a[0][0] * a[1][1] - a[0][1] * a[1][0]) % P


_I2 = ((1, 0), (0, 1))


def _mclose(gens):
    out = {_I2}
    frontier = [_I2]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                n = _mmul(m, g)
                if n not in out:
                    out.add(n)
                    new.append(n)
        frontier = new
    return out


# multiplication by 2 + 2w on the degree-2 field extension with w^2 = 3,
# in the basis (1, w): a field element of multiplicative order 16
_ORDER16 = ((2, 6), (2, 2))
_FROBENIUS = ((1, 0), (0, P - 1))


def outer_group_matrices(name: str) -> list:
    """Generators of the outer-action subgroup for each system, acting on
    S/Z by column vectors."""
    if name == "rv1":
        return [((3, 0), (0, 1)), ((1, 0), (0, 3)), ((0, 1), (1, 0))]
    two_i = ((2, 0), (0, 2))
    if name == "rv2":
        return [_mmul(_ORDER16, _ORDER16), _FROBENIUS, two_i]
    if name == "rv3":
        return [_ORDER16, _FROBENIUS, two_i]
    raise ValueError(f"unknown system name {name!r}")


OUT_ORDERS = {"rv1": 72, "rv2": 48, "rv3": 96}

FULL_TYPE_ORDER = 2016     # all invertible 2x2 matrices
HALF_TYPE_ORDER = 672      # determinant +1 or -1

# Conjugacy classes of rank-2 subgroups: (class size, automorphism group
# order) per class.  Both rv2 classes carry the order-672 group; only the
# small rv1 class gets the full 2x2 matrix group.
FCR_PROFILES = {
    "rv1": ((2, FULL_TYPE_ORDER), (6, HALF_TYPE_ORDER)),
    "rv2": ((4, HALF_TYPE_ORDER), (4, HALF_TYPE_ORDER)),
    "rv3": ((8, HALF_TYPE_ORDER),),
}

# Generator matrices of each prescribed rank-2 automorphism group, in the
# basis (lift of the line, center), by group order.
_RANK2_GENERATORS = {
    FULL_TYPE_ORDER: (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((3, 0), (0, 1))),
    HALF_TYPE_ORDER: (((1, 1), (0, 1)), ((1, 0), (1, 1)),
                      ((1, 0), (0, P - 1))),
}


def comparison_out_group(name: str) -> FiniteGroup:
    """The advertised abstract shape of each outer group, built
    independently of any matrix realization."""
    if name == "rv1":
        base = abelian_group([6, 6])
        a, b = base.generator_ids()
        swap = [[base.elements[b], base.elements[a]]]
        return semidirect_product(base, cyclic_group(2), swap)
    if name == "rv2":
        return direct_product(dihedral_group(16), cyclic_group(3))
    if name == "rv3":
        c16 = cyclic_group(16)
        r = c16.generator_ids()[0]
        act = [[c16.elements[c16.power_ids(r, 7)]]]
        sd32 = semidirect_product(c16, cyclic_group(2), act)
        return direct_product(sd32, cyclic_group(3))
    raise ValueError(f"unknown system name {name!r}")


# --------------------------------------------------------------------------
# lines of S/Z and lifts into the extraspecial group

def _lines() -> list:
    """Canonical generators of the eight 1-dimensional subspaces:
    (1, c) for each scalar c, plus (0, 1)."""
    return [(1, c) for c in range(P)] + [(0, 1)]


def _normalize(vec):
    u1, u2 = vec[0] % P, vec[1] % P
    if u1:
        inv = pow(u1, P - 2, P)
        return (1, (u2 * inv) % P)
    return (0, 1)


def _act_on_line(m, line):
    u1, u2 = line
    return _normalize((m[0][0] * u1 + m[0][1] * u2,
                       m[1][0] * u1 + m[1][1] * u2))


def _line_orbits(mats) -> list:
    todo = set(_lines())
    orbits = []
    while todo:
        start = min(todo)
        orbit = {start}
        frontier = [start]
        while frontier:
            new = []
            for ln in frontier:
                for m in mats:
                    nxt = _act_on_line(m, ln)
                    if nxt not in orbit:
                        orbit.add(nxt)
                        new.append(nxt)
            frontier = new
        todo -= orbit
        orbits.append(tuple(sorted(orbit)))
    return sorted(orbits)


class _Extraspecial:
    """The ambient group with its generator bookkeeping."""

    def __init__(self):
        self.G = extraspecial_plus(P)
        self.x, self.y, self.z = self.G.generator_ids()
        self.S = self.G.full()

    def word(self, xe: int, ye: int, ze: int) -> int:
        """The element x^xe y^ye z^ze by id."""
        G = self.G
        xy = G.mul_ids(G.power_ids(self.x, xe), G.power_ids(self.y, ye))
        return G.mul_ids(xy, G.power_ids(self.z, ze))

    def lift(self, m):
        """The automorphism of S induced by the matrix m on S/Z, with z
        raised to the determinant; linear on the standard generators."""
        det = _mdet(m)
        images = [
            self.word(m[0][0], m[1][0], 0),
            self.word(m[0][1], m[1][1], 0),
            self.word(0, 0, det),
        ]
        h = hom_from_images(self.S, self.G, [self.x, self.y, self.z], images)
        if h is None or not h.is_injective():
            raise AssertionError(f"matrix {m} did not lift to an automorphism")
        return h

    def rank2_subgroup(self, line) -> Subgroup:
        v = self.word(line[0], line[1], 0)
        return subgroup_generated(self.G, [v, self.z])

    def rank2_aut_seeds(self, line, type_order: int) -> list:
        """Generators of the automorphism group of order `type_order`
        prescribed on the rank-2 subgroup over the line: each matrix of
        `_RANK2_GENERATORS`, in the basis (lift of line, center), lifted
        and checked by `hom_from_images`."""
        mats = _RANK2_GENERATORS.get(type_order)
        if mats is None:
            raise ValueError(f"unknown type order {type_order}")
        G, z = self.G, self.z
        V = self.rank2_subgroup(line)
        v = self.word(line[0], line[1], 0)
        out = []
        for m in mats:
            imgs = [G.mul_ids(G.power_ids(v, m[0][c]), G.power_ids(z, m[1][c]))
                    for c in (0, 1)]
            h = hom_from_images(V, G, [v, z], imgs)
            if h is None or not h.is_injective():
                raise AssertionError(f"matrix {m} is not invertible on V")
            out.append(h)
        return out


class RVDescriptor:
    """Name, outer-group data, ambient group and rank-2 profile of one
    built system.

    `profile` maps each line orbit (a tuple of lines) to the order of the
    automorphism group prescribed on its rank-2 subgroups. `extraspecial`
    is the ambient 7^(1+2) with its generator bookkeeping, over whose S
    the system is built.
    """

    def __init__(self, name: str, out_matrices: list, profile: dict):
        name = name.lower()
        if name not in RV_NAMES:
            raise ValueError(f"unknown system name {name!r}")
        self.name = name
        self.out_matrices = out_matrices
        self.profile = profile
        shape = tuple(sorted((len(orb), t) for orb, t in profile.items()))
        if shape != tuple(sorted(FCR_PROFILES[name])):
            raise ValueError(f"profile {shape} does not match {name}")
        self.extraspecial = _Extraspecial()

    def __repr__(self):
        return f"<RVDescriptor {self.name}>"


def build_rv(name: str):
    """Construct the named system and check that the closure is
    saturated; `F.rv` is its RVDescriptor. `certify_rv(F)` runs the full
    invariant battery."""
    if not isinstance(name, str) or name.lower() not in RV_NAMES:
        raise ValueError(
            f"build_rv takes a system name ({'|'.join(RV_NAMES)}), "
            f"got {name!r}")
    name = name.lower()
    mats = outer_group_matrices(name)
    closure = _mclose(mats)
    if len(closure) != OUT_ORDERS[name]:
        raise AssertionError(f"outer matrix group has order {len(closure)}")
    # line orbits and profile classes, both by size: classes of one size
    # carry one automizer order, so this is the only assignment
    rv = RVDescriptor(name, mats, {
        orb: type_order for orb, (_size, type_order) in zip(
            sorted(_line_orbits(mats), key=len), sorted(FCR_PROFILES[name]))
    })
    ext = rv.extraspecial
    seeds = [ext.lift(m) for m in mats]
    for orb, type_order in sorted(rv.profile.items()):
        seeds.extend(ext.rank2_aut_seeds(min(orb), type_order))
    F = generated_fusion(ext.S, P, seeds)
    report = is_saturated(F)
    if not report.verdict:
        raise AssertionError(
            f"the {name} closure is not saturated: counterexample of order "
            f"{report.counterexample.order}")
    F.rv = rv
    return F


def certify_rv(F: FusionSystem) -> dict:
    """Recompute and check every advertised invariant of a system made by
    `build_rv`. Returns the evidence dict; raises AssertionError on any
    mismatch, and ValueError when F carries no RVDescriptor."""
    rv = getattr(F, "rv", None)
    if not isinstance(rv, RVDescriptor):
        raise ValueError("certify_rv takes a system made by build_rv, "
                         "which records its RVDescriptor as F.rv")
    ext, name = rv.extraspecial, rv.name
    out = out_F(F, F.S)
    if out.order != OUT_ORDERS[name]:
        raise AssertionError(
            f"outer group order {out.order} != {OUT_ORDERS[name]}")
    if group_isomorphic(out.full(), comparison_out_group(name).full()) is None:
        raise AssertionError("outer group shape mismatch")
    counts = {HALF_TYPE_ORDER: 0, FULL_TYPE_ORDER: 0}
    for line in _lines():
        V = ext.rank2_subgroup(line)
        counts[len(F.aut_f_vectors(V))] += 1
        if not (is_centric(F, V) and is_radical(F, V)):
            raise AssertionError("rank-2 subgroup not centric-radical")
    want = {HALF_TYPE_ORDER: 0, FULL_TYPE_ORDER: 0}
    for size, type_order in FCR_PROFILES[name]:
        want[type_order] += size
    if counts != want:
        raise AssertionError((counts, want))
    # every subgroup of order p^2 contains Z(S) = Phi(S), so these are the
    # classes of the eight subgroups over lines
    class_sizes = sorted(len(cls) for cls in F.conjugacy_classes()
                         if cls[0].order == P * P)
    if class_sizes != sorted(n for n, _ in FCR_PROFILES[name]):
        raise AssertionError(f"rank-2 class sizes {class_sizes}")
    if sum(Q.order == P * P for Q in cr_objects(F)) != 8:
        raise AssertionError("rank-2 centric-radical count is not eight")
    # the lift of matrices is an isomorphism GL(2, 7) -> Aut(V), so the
    # closure of the seeds, lifted afresh, is the lift of the group their
    # matrices generate
    for orb, type_order in rv.profile.items():
        V = ext.rank2_subgroup(min(orb))
        closure = automorphism_closure(V, [
            h.images for h in ext.rank2_aut_seeds(min(orb), type_order)])
        if len(closure) != type_order:
            raise AssertionError(
                f"rank-2 seeds generate {len(closure)} automorphisms, "
                f"not {type_order}")
        if closure.keys() != set(F.aut_f_vectors(V)):
            raise AssertionError("rank-2 automorphism group differs from seed")
    closed = [Q.order for Q in F.objects() if is_strongly_closed(F, Q)]
    if closed != [1, F.S.order]:
        raise AssertionError(f"strongly closed orders {closed}")
    return {
        "name": name,
        "out_order": out.order,
        "out_shape": {"rv1": "6^2:2", "rv2": "D16 x 3",
                      "rv3": "SD32 x 3"}[name],
        "rank2_counts": {str(k): v for k, v in sorted(counts.items())},
        "rank2_class_sizes": class_sizes,
        "strongly_closed_orders": closed,
        "saturated": True,
    }
